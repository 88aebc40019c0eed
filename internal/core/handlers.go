package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"rpdbscan/internal/dict"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/graph"
	"rpdbscan/internal/grid"
	"rpdbscan/internal/spill"
)

// Worker-side task handlers for clusters with a Transport. Each remote
// stage of the fit pipeline executes as one of these registered handlers
// on a worker process: the handler decodes the stage input, calls the
// same stage body the simulator calls in-process, and encodes the output.
// Every body is a deterministic pure function of (blobs, task, input) —
// cells are sorted by key before encoding — which is what lets the
// differential battery pin proc labels byte-identical to in-process Run.

// Blob names the driver pushes to every worker.
const (
	// BlobConf is the JSON-encoded taskConf.
	BlobConf = "conf"
	// BlobDict is the RPD2-encoded cell dictionary broadcast after
	// Phase I-2.
	BlobDict = "dict"
)

// Remote stage handler names (registered in init); each equals the name of
// the stage it serves.
const (
	HandlerCellPart  = "cell-partitioning"
	HandlerDictBuild = "dictionary-build"
	HandlerDictLoad  = "dictionary-load"
	HandlerPhase2    = "cell-graph-construction"
)

func init() {
	engine.RegisterHandler(HandlerCellPart, handlePartitionChunk)
	engine.RegisterHandler(HandlerDictBuild, handleDictionaryBuild)
	engine.RegisterHandler(HandlerDictLoad, handleDictionaryLoad)
	engine.RegisterHandler(HandlerPhase2, handlePhase2)
}

// taskConf is the Config subset the stage bodies read, frozen at the start
// of a fit; worker processes receive it as the conf blob.
type taskConf struct {
	Eps                float64 `json:"eps"`
	MinPts             int     `json:"min_pts"`
	Rho                float64 `json:"rho"`
	Dim                int     `json:"dim"`
	K                  int     `json:"k"`
	Seed               int64   `json:"seed"`
	MaxCellsPerSubDict int     `json:"max_cells_per_sub_dict"`
	DisableBatching    bool    `json:"disable_batching,omitempty"`
	DisableIndex       bool    `json:"disable_index,omitempty"`
}

func (c *taskConf) params() dict.Params {
	return dict.Params{Eps: c.Eps, Rho: c.Rho, Dim: c.Dim}
}

// workerConf returns the worker's decoded copy of the configuration blob.
func workerConf(ws *engine.WorkerState) (*taskConf, error) {
	v, err := ws.Cached(BlobConf, func(data []byte) (any, error) {
		var c taskConf
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("core: conf blob: %w", err)
		}
		if c.K < 1 || c.Dim < 1 {
			return nil, fmt.Errorf("core: conf blob has k=%d dim=%d", c.K, c.Dim)
		}
		return &c, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*taskConf), nil
}

// workerDict returns the worker's decoded-and-indexed dictionary, built at
// most once per pushed dict blob (the executor-side broadcast load of
// Algorithm 2).
func workerDict(ws *engine.WorkerState) (*dict.Dictionary, error) {
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	v, err := ws.Cached(BlobDict, func(data []byte) (any, error) {
		return dict.Decode(data, conf.MaxCellsPerSubDict)
	})
	if err != nil {
		return nil, err
	}
	return v.(*dict.Dictionary), nil
}

// handlePartitionChunk is remote Phase I-1: the input is one chunk
// (encodeChunk), the output its partition frames (encodeFrames).
func handlePartitionChunk(ws *engine.WorkerState, task int, input []byte) ([]byte, error) {
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	base, coords, err := decodeChunk(input, conf.Dim)
	if err != nil {
		return nil, err
	}
	return encodeFrames(partitionChunk(task, base, coords, conf)), nil
}

// handleDictionaryBuild is remote Phase I-2: the input is one partition's
// closed spill, the output its RPD2-encoded dictionary entries.
func handleDictionaryBuild(ws *engine.WorkerState, _ int, input []byte) ([]byte, error) {
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	runs, err := spill.Load(input)
	if err != nil {
		return nil, err
	}
	return dict.EncodeEntries(buildEntries(runs, conf.params()), conf.params()), nil
}

// handleDictionaryLoad decodes and indexes the pushed dictionary blob on
// the worker (the per-executor broadcast load the simulator runs as its
// own stage), returning the cell count as an 8-byte ack the driver can
// cross-check.
func handleDictionaryLoad(ws *engine.WorkerState, _ int, _ []byte) ([]byte, error) {
	d, err := workerDict(ws)
	if err != nil {
		return nil, err
	}
	var numCells int64
	for _, sd := range d.Subs {
		numCells += int64(len(sd.Entries))
	}
	ack := make([]byte, 8)
	binary.BigEndian.PutUint64(ack, uint64(numCells))
	return ack, nil
}

// handlePhase2 is remote Phase II: the input is a uint32 global cell count
// followed by one partition's closed spill, the output the partition's
// state (encodePhase2Result).
func handlePhase2(ws *engine.WorkerState, _ int, input []byte) ([]byte, error) {
	if len(input) < 4 {
		return nil, fmt.Errorf("core: phase-2 input truncated (%d bytes)", len(input))
	}
	numCells := int(binary.BigEndian.Uint32(input))
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	d, err := workerDict(ws)
	if err != nil {
		return nil, err
	}
	runs, err := spill.Load(input[4:])
	if err != nil {
		return nil, err
	}
	return encodePhase2Result(phase2Part(runs, conf, d, numCells)), nil
}

// encodeChunk serialises one Phase I-1 chunk: the global id of its first
// point, then its coordinates, all big-endian.
func encodeChunk(base int64, coords []float64) []byte {
	buf := make([]byte, 8, 8+8*len(coords))
	binary.BigEndian.PutUint64(buf, uint64(base))
	for _, v := range coords {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeChunk is the inverse of encodeChunk.
func decodeChunk(buf []byte, dim int) (int64, []float64, error) {
	if len(buf) < 8 || (len(buf)-8)%(8*dim) != 0 {
		return 0, nil, fmt.Errorf("core: chunk of %d bytes is not whole %d-d points", len(buf), dim)
	}
	coords := make([]float64, (len(buf)-8)/8)
	for i := range coords {
		coords[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[8+8*i:]))
	}
	return int64(binary.BigEndian.Uint64(buf)), coords, nil
}

// encodeFrames concatenates a chunk's non-nil partition frames, each
// prefixed with its uint32 destination partition.
func encodeFrames(frames [][]byte) []byte {
	var out []byte
	for d, f := range frames {
		if f != nil {
			out = binary.BigEndian.AppendUint32(out, uint32(d))
			out = append(out, f...)
		}
	}
	return out
}

// decodeFrames splits an encodeFrames output back into k destination
// frames. The frames are only delimited here; spill.Load verifies them.
func decodeFrames(buf []byte, k int) ([][]byte, error) {
	frames := make([][]byte, k)
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("core: truncated frame destination")
		}
		d := int(binary.BigEndian.Uint32(buf))
		sz, err := spill.FrameSize(buf[4:])
		if err != nil {
			return nil, err
		}
		if d >= k || frames[d] != nil {
			return nil, fmt.Errorf("core: frame for partition %d is out of range or repeated", d)
		}
		frames[d] = buf[4 : 4+sz]
		buf = buf[4+sz:]
	}
	return frames, nil
}

// encodePhase2Result serialises one partition's Phase II state: per owned
// cell its key, dense dictionary id, core flag and core points (global
// ids), then the length-prefixed encoded subgraph.
func encodePhase2Result(st *partState) []byte {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.keys)))
	for ci, key := range st.keys {
		buf = append(buf, key...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.ids[ci]))
		if st.cellCore[ci] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.corePts[ci])))
		for _, pi := range st.corePts[ci] {
			buf = binary.BigEndian.AppendUint32(buf, uint32(pi))
		}
	}
	g := st.subgraph.Encode()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(g)))
	return append(buf, g...)
}

// decodePhase2Result is the inverse of encodePhase2Result for dim-d keys,
// rejecting core points outside [0, n).
func decodePhase2Result(buf []byte, dim, n int) (*partState, error) {
	off := 0
	need := func(want int) error {
		if len(buf)-off < want {
			return fmt.Errorf("core: phase-2 result truncated at offset %d", off)
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	numOwned := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	keyLen := 4 * dim
	if err := need(numOwned * (keyLen + 9)); err != nil {
		return nil, err
	}
	st := &partState{
		keys:     make([]grid.Key, numOwned),
		ids:      make([]int32, numOwned),
		cellCore: make([]bool, numOwned),
		corePts:  make([][]int, numOwned),
	}
	for ci := 0; ci < numOwned; ci++ {
		if err := need(keyLen + 9); err != nil {
			return nil, err
		}
		st.keys[ci] = grid.Key(buf[off : off+keyLen])
		off += keyLen
		st.ids[ci] = int32(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		switch buf[off] {
		case 0:
		case 1:
			st.cellCore[ci] = true
		default:
			return nil, fmt.Errorf("core: phase-2 result cell %d has core flag %d", ci, buf[off])
		}
		off++
		npts := int(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		if err := need(4 * npts); err != nil {
			return nil, err
		}
		if npts > 0 {
			ids := make([]int, npts)
			for i := range ids {
				pi := int(binary.BigEndian.Uint32(buf[off:]))
				off += 4
				if pi < 0 || pi >= n {
					return nil, fmt.Errorf("core: phase-2 result core point %d out of range [0,%d)", pi, n)
				}
				ids[i] = pi
			}
			st.corePts[ci] = ids
		}
	}
	if err := need(4); err != nil {
		return nil, err
	}
	glen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if err := need(glen); err != nil {
		return nil, err
	}
	g, err := graph.Decode(buf[off : off+glen])
	if err != nil {
		return nil, err
	}
	if off+glen != len(buf) {
		return nil, fmt.Errorf("core: phase-2 result has %d trailing bytes", len(buf)-off-glen)
	}
	st.subgraph = g
	return st, nil
}
