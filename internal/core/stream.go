package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"rpdbscan/internal/dict"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/graph"
	"rpdbscan/internal/grid"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/pointio"
	"rpdbscan/internal/spill"
)

// DefaultChunkSize is the streamed chunk size, in points, when
// StreamConfig.ChunkSize is unset.
const DefaultChunkSize = 1 << 16

// StreamConfig configures the out-of-core pipeline. The embedded Config
// carries the algorithm parameters; streaming adds only memory knobs, so a
// streamed run and an in-memory run of the same Config are comparable.
type StreamConfig struct {
	Config
	// ChunkSize is the number of points ingested per chunk; <= 0 selects
	// DefaultChunkSize. Peak Phase I memory is proportional to
	// ChunkSize * parallelism, independent of N.
	ChunkSize int
	// SpillDir is the parent directory for the run's temporary spill
	// directory; empty means the OS default. The spill directory is
	// removed when RunStream returns.
	SpillDir string
	// Probe, when set, is called at memory-relevant moments with a label
	// ("chunk" per ingested chunk, then "spill-closed", "dict-built",
	// "dict-loaded", "phase2", "done"). The bench harness samples the live
	// heap here to certify the Phase I memory bound.
	Probe func(label string)
}

// StreamStats instruments one RunStream execution.
type StreamStats struct {
	// Chunks is the number of input chunks ingested.
	Chunks int
	// SpillBytes is the total run-record payload written across all
	// partition spill files.
	SpillBytes int64
	// SpillReloads counts partition reads after the initial write: the
	// dictionary build, Phase II, the core-point gather and the point
	// labeling each re-read partitions instead of holding them decoded.
	SpillReloads int64
}

// RunStream executes RP-DBSCAN over a single-pass point stream, producing
// output byte-identical to Run on the same points — the differential test
// battery asserts exactly that. It is the same pipeline with the
// partitions spilled to checksummed files under a temporary directory, so
// peak Phase I memory is proportional to ChunkSize * parallelism, never N,
// and later phases hold one decoded partition per running task.
//
// Determinism: chunk indices are assigned by the serial reader, each spill
// writer deduplicates appends by chunk (engine retries and speculative
// copies are no-ops), and loads sort runs by chunk index — so every
// per-cell point list comes back in ascending global order no matter how
// chaotic the execution was.
func RunStream(src pointio.Source, cfg StreamConfig, cl *engine.Cluster) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.SpillDir, "rpdbscan-spill-*")
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: spill dir: %w", err)
	}
	defer os.RemoveAll(dir)
	return fit(src, cfg, cl, func(t int) (*spill.Writer, error) {
		return spill.NewWriter(filepath.Join(dir, fmt.Sprintf("part-%03d.spill", t)))
	})
}

// fit is the one RP-DBSCAN pipeline (Algorithm 1). newPart opens the
// store of each of the k partitions: memory for Run, a spill file for
// RunStream. Stage bodies run in-process on the simulator; when the
// cluster has a Transport, Phase I-1, I-2 and II run as registered
// handlers on its worker processes, fed the same RPS1 frames, while
// Phase III stays on the driver as in the paper's architecture.
func fit(src pointio.Source, cfg StreamConfig, cl *engine.Cluster, newPart func(t int) (*spill.Writer, error)) (*Result, error) {
	dim := src.Dim()
	if dim < 1 {
		return nil, fmt.Errorf("rpdbscan: source dimension must be >= 1, got %d", dim)
	}
	chunkSize := cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	probe := cfg.Probe
	if probe == nil {
		probe = func(string) {}
	}
	k := partitionCount(cfg.Config, cl)
	conf := &taskConf{
		Eps: cfg.Eps, MinPts: cfg.MinPts, Rho: cfg.Rho, Dim: dim,
		K: k, Seed: cfg.Seed, MaxCellsPerSubDict: cfg.MaxCellsPerSubDict,
		DisableBatching: cfg.DisableBatching,
		DisableIndex:    cfg.DisableIndex,
	}
	store := make([]*spill.Writer, k)
	sealed := false
	defer func() {
		for _, w := range store {
			if w != nil && !sealed {
				w.Close()
			}
		}
	}()
	for t := range store {
		var err error
		if store[t], err = newPart(t); err != nil {
			return nil, fmt.Errorf("rpdbscan: spill writer: %w", err)
		}
	}
	tr := cl.Transport
	if tr != nil {
		// ---- Phase I-0: ship the task configuration to every worker
		// process (the broadcast variables of the Spark deployment).
		b, err := json.Marshal(conf)
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: encode conf: %w", err)
		}
		cl.PushStage("I-0", "config-push", BlobConf, engine.NewPayload("I-0", "config-push", b))
	}

	// ---- Phase I-1: pseudo random partitioning (Algorithm 2, part 1).
	// The serial pull reads one chunk into a fresh buffer (retries and
	// speculative copies may re-run a body after later chunks started, so
	// buffers are never shared) and assigns the chunk's contiguous global
	// index range; the concurrent body deals the chunk's cells to
	// partitions and appends one frame per touched partition. AppendFrame
	// deduplicates by chunk, making the body idempotent as the engine
	// requires.
	var nPoints int64 // owned by the serial pull
	partStage, err := cl.StreamStage("I-1", "cell-partitioning", func(task int) (func(int), error) {
		buf := make([]float64, chunkSize*dim)
		m, err := src.Next(buf)
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: stream chunk %d: %w", task, err)
		}
		base := nPoints
		nPoints += int64(m)
		obs.Histograms.StreamChunkPoints.Record(int64(m))
		probe("chunk")
		coords := buf[:m*dim]
		return func(attempt int) {
			var frames [][]byte
			if tr == nil {
				frames = partitionChunk(task, base, coords, conf)
			} else {
				out := invoke(cl, HandlerCellPart, task, attempt, encodeChunk(base, coords))
				var err error
				if frames, err = decodeFrames(out, k); err != nil {
					panic(err)
				}
			}
			for d, f := range frames {
				if f == nil {
					continue
				}
				if _, err := store[d].AppendFrame(task, f); err != nil {
					// Surfaces through the engine retry budget as an error.
					panic(err)
				}
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}
	sealed = true
	var spillBytes int64
	for t, w := range store {
		spillBytes += w.Bytes()
		if cerr := w.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("rpdbscan: close spill %d: %w", t, cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	partStage.Bytes = spillBytes
	probe("spill-closed")

	n := int(nPoints)
	res := &Result{
		Labels:          make([]int, n),
		CorePoint:       make([]bool, n),
		PointsProcessed: nPoints,
		Stream:          &StreamStats{Chunks: len(partStage.Costs), SpillBytes: spillBytes},
	}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if n == 0 {
		res.Report = cl.Report()
		return res, nil
	}
	// Every later phase re-reads partitions from the store.
	var reloads atomic.Int64
	contents := func(t int) ([]byte, error) {
		data, err := store[t].Contents()
		if err == nil {
			reloads.Add(1)
		}
		return data, err
	}
	runsOf := func(t int) ([]*spill.Run, error) {
		data, err := contents(t)
		if err != nil {
			return nil, err
		}
		return spill.Load(data)
	}

	// ---- Phase I-2: cell dictionary building (Algorithm 2, part 2).
	params := conf.params()
	entriesPer := make([][]dict.CellEntry, k)
	if err := runStage(cl, "I-2", "dictionary-build", k, func(t, attempt int) error {
		if tr == nil {
			runs, err := runsOf(t)
			if err == nil {
				entriesPer[t] = buildEntries(runs, params)
			}
			return err
		}
		data, err := contents(t)
		if err == nil {
			entriesPer[t], _, err = dict.DecodeEntries(invoke(cl, HandlerDictBuild, t, attempt, data))
		}
		return err
	}); err != nil {
		return nil, err
	}
	probe("dict-built")
	var stats dict.Stats
	payload := cl.BroadcastChecked("I-2", "dictionary-broadcast", func() []byte {
		var all []dict.CellEntry
		for _, e := range entriesPer {
			all = append(all, e...)
		}
		stats = dict.StatsOf(all, params)
		return dict.EncodeEntries(all, params)
	})
	res.DictSizeBits = stats.SizeBits
	res.DictBytes = payload.Len()
	res.NumCells = stats.NumCells
	res.NumSubCells = stats.NumSubCells
	numCells := stats.NumCells
	var dicts []*dict.Dictionary
	if tr == nil {
		// Each executor (worker machine) loads — decodes and indexes — the
		// broadcast once; its tasks share the read-only copy, as on Spark.
		// Fetch transfers it through the engine's checksummed channel:
		// under chaos, corrupted chunks are detected and re-transferred
		// before the bytes ever reach the decoder.
		dicts = make([]*dict.Dictionary, min(cl.ExecutorCount(), k))
		if err := runStage(cl, "I-2", "dictionary-load", len(dicts), func(t, _ int) error {
			buf, err := cl.Fetch(payload, t)
			if err == nil {
				dicts[t], err = dict.Decode(buf, cfg.MaxCellsPerSubDict)
			}
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		// Every worker process is an executor: the dictionary is pushed
		// once per worker through the per-chunk-checksummed channel, then
		// loaded once per worker, which acks its cell count.
		cl.PushStage("I-2", "dictionary-push", BlobDict, payload)
		acks, _ := cl.RunStageRemote("I-2", "dictionary-load", HandlerDictLoad, make([][]byte, tr.Workers()))
		for w, ack := range acks {
			if len(ack) != 8 || binary.BigEndian.Uint64(ack) != uint64(numCells) {
				return nil, fmt.Errorf("rpdbscan: worker %d dictionary-load ack %x does not confirm %d cells", w, ack, numCells)
			}
		}
	}
	probe("dict-loaded")

	// ---- Phase II: core marking and subgraph building (Algorithm 3), one
	// rematerialised partition per task.
	parts := make([]*partState, k)
	if err := runStage(cl, "II", "cell-graph-construction", k, func(t, attempt int) error {
		var st *partState
		if tr == nil {
			runs, err := runsOf(t)
			if err != nil {
				return err
			}
			// Tasks on one executor share its dictionary copy.
			st = phase2Part(runs, conf, dicts[t%len(dicts)], numCells)
		} else {
			data, err := contents(t)
			if err != nil {
				return err
			}
			in := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(data)), uint32(numCells))
			if st, err = decodePhase2Result(invoke(cl, HandlerPhase2, t, attempt, append(in, data...)), dim, n); err != nil {
				return err
			}
		}
		for _, cp := range st.corePts {
			for _, g := range cp {
				res.CorePoint[g] = true
			}
		}
		parts[t] = st
		return nil
	}); err != nil {
		return nil, err
	}
	dicts = nil // release the executors' dictionary copies
	probe("phase2")

	// ---- Phase III-1: graph merging (Algorithm 4, part 1) — the flat
	// lock-free merge by default, the pairwise tournament under
	// cfg.SerialMerge; see merge.go.
	subgraphs := make([]*graph.Graph, k)
	for i, st := range parts {
		subgraphs[i] = st.subgraph
	}
	finalize := mergePhase(cl, cfg.Config, numCells, subgraphs, res)

	// ---- Phase III-2: point labeling (Algorithm 4, part 2). The exact
	// distance checks of Lemma 3.5 need the core points of cells that
	// precede partial edges; a gather stage re-reads their coordinates
	// first, and only partitions owning such a cell pay a reload.
	var merged mergeOutcome
	needed := make(map[int32]bool)
	cl.Serial("III-2", "label-preparation", func() {
		merged = finalize()
		for _, ps := range merged.preds {
			for _, p := range ps {
				needed[p] = true
			}
		}
	})
	coreCoords := make([][]float64, numCells)
	if err := runStage(cl, "III-2", "core-point-gather", k, func(t, _ int) error {
		st := parts[t]
		want := make(map[grid.Key]int)
		for ci, key := range st.keys {
			if st.cellCore[ci] && needed[st.ids[ci]] {
				want[key] = ci
				coreCoords[st.ids[ci]] = make([]float64, 0, len(st.corePts[ci])*dim)
			}
		}
		if len(want) == 0 {
			return nil
		}
		runs, err := runsOf(t)
		if err != nil {
			return err
		}
		for _, r := range runs {
			for _, c := range r.Cells {
				ci, ok := want[c.Key]
				if !ok {
					continue
				}
				slot := st.ids[ci]
				for j, id := range c.IDs {
					if _, found := slices.BinarySearch(st.corePts[ci], int(id)); found {
						coreCoords[slot] = append(coreCoords[slot], c.Coords[j*dim:(j+1)*dim]...)
					}
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := runStage(cl, "III-2", "point-labeling", k, func(t, _ int) error {
		runs, err := runsOf(t)
		if err == nil {
			labelPart(runs, parts[t], merged, coreCoords, cfg.Eps, res.Labels)
		}
		return err
	}); err != nil {
		return nil, err
	}

	res.Stream.SpillReloads = reloads.Load()
	res.Report = cl.Report()
	probe("done")
	return res, nil
}

// labelPart labels one partition's points (Algorithm 4, part 2): every
// point of a core cell takes its component's cluster (Figure 3a,
// maximality); a point of a non-core cell takes the cluster of the first
// predecessor cell holding a core point within eps of it, and stays noise
// otherwise.
func labelPart(runs []*spill.Run, st *partState, m mergeOutcome, coreCoords [][]float64, eps float64, labels []int) {
	eps2 := eps * eps
	for _, r := range runs {
		dim := r.Dim
		ci := 0 // a run's cells are sorted by key, like st.keys
		for _, c := range r.Cells {
			for st.keys[ci] != c.Key {
				ci++
			}
			id := st.ids[ci]
			if st.cellCore[ci] {
				for _, g := range c.IDs {
					labels[g] = int(m.comp[id])
				}
				continue
			}
			pcs := m.preds[id]
			for j, g := range c.IDs {
				qp := c.Coords[j*dim : (j+1)*dim]
			preds:
				for _, pk := range pcs {
					if m.comp[pk] < 0 {
						continue
					}
					cc := coreCoords[pk]
					for off := 0; off+dim <= len(cc); off += dim {
						if geom.Dist2(qp, cc[off:off+dim]) <= eps2 {
							labels[g] = int(m.comp[pk])
							break preds
						}
					}
				}
			}
		}
	}
}

// runStage runs one stage whose task bodies can fail for good — an
// unreadable partition, a malformed worker reply — and returns the first
// such failure. Transient failures panic inside the body instead, and the
// engine retries them.
func runStage(cl *engine.Cluster, phase, name string, n int, body func(t, attempt int) error) error {
	errs := make([]error, n)
	cl.RunStageAttempts(phase, name, n, func(t, attempt int) { errs[t] = body(t, attempt) })
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("rpdbscan: %s: %w", name, err)
		}
	}
	return nil
}

// invoke runs one task attempt of the named handler on the cluster's
// Transport. A transport failure — dead worker, rejected checksum — panics
// the attempt, which the engine turns into a ledgered retry.
func invoke(cl *engine.Cluster, handler string, task, attempt int, input []byte) []byte {
	out, err := cl.Transport.Invoke(handler, handler, task, attempt, input)
	if err != nil {
		panic(fmt.Errorf("transport: stage %q task %d attempt %d: %w", handler, task, attempt, err))
	}
	return out
}
