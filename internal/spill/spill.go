// Package spill implements the checksummed RPS1 run records the fit
// pipeline shuffles Phase I partitions through: the stand-in for a
// distributed cluster's shuffle. Each of the k partitions owns one spill —
// a temp file for core.RunStream, memory for core.Run — and every input
// chunk appends one "run" per partition it touches, holding the chunk's
// cells dealt to that partition (cell key, global point ids, raw
// coordinates). The same frames travel over the multi-process transport.
//
// The wire conventions follow the RPD2 dictionary format: a magic tag, an
// FNV-1a checksum verified before any parsing, and lengths bounded by the
// bytes actually present so a corrupt length field cannot balloon memory.
// The checksum spans the body-length field and the body; within the
// checksummed span FNV-1a's per-byte mixing is a bijection of the
// accumulator, so any single-byte substitution inside one run record is
// guaranteed to be detected.
package spill

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"rpdbscan/internal/grid"
)

const (
	runMagic = "RPS1"
	// trailerMagic closes a spill file: without it, a file truncated at a
	// record boundary would load cleanly minus its tail runs.
	trailerMagic = "RPSE"
	// headerSize is magic(4) + checksum(8) + bodyLen(4).
	headerSize = 4 + 8 + 4
	// maxBodyLen bounds one run record. A run holds at most one chunk of
	// points plus per-cell framing; 1 GiB is far beyond any sane chunk and
	// exists only to reject absurd length fields before reading.
	maxBodyLen = 1 << 30
)

// RunCell is one cell's share of one streamed chunk: the points of the
// chunk that fall in the cell, as global ids plus raw coordinates.
type RunCell struct {
	Key    grid.Key
	IDs    []int64   // ascending global point indices
	Coords []float64 // len(IDs)*dim, point-major
}

// Run is one decoded spill record: the cells one chunk dealt to one
// partition.
type Run struct {
	Chunk int
	Dim   int
	Cells []RunCell
}

// EncodeRun serialises one run record, framing included.
func EncodeRun(chunk, dim int, cells []RunCell) []byte {
	bodyLen := 4 + 2 + 4 // chunk + dim + numCells
	for _, c := range cells {
		bodyLen += len(c.Key) + 4 + len(c.IDs)*8 + len(c.Coords)*8
	}
	buf := make([]byte, headerSize+bodyLen)
	copy(buf, runMagic)
	binary.BigEndian.PutUint32(buf[12:], uint32(bodyLen))
	off := headerSize
	binary.BigEndian.PutUint32(buf[off:], uint32(chunk))
	off += 4
	binary.BigEndian.PutUint16(buf[off:], uint16(dim))
	off += 2
	binary.BigEndian.PutUint32(buf[off:], uint32(len(cells)))
	off += 4
	for _, c := range cells {
		off += copy(buf[off:], c.Key)
		binary.BigEndian.PutUint32(buf[off:], uint32(len(c.IDs)))
		off += 4
		for _, id := range c.IDs {
			binary.BigEndian.PutUint64(buf[off:], uint64(id))
			off += 8
		}
		for _, v := range c.Coords {
			binary.BigEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	binary.BigEndian.PutUint64(buf[4:], fnv64a(buf[12:]))
	return buf
}

// fnv64a is the FNV-1a checksum shared with the RPD2 dictionary format.
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * prime64
	}
	return h
}

// EncodeTrailer serialises the end-of-file record.
func EncodeTrailer(numRuns int, payloadBytes int64) []byte {
	const bodyLen = 4 + 8
	buf := make([]byte, headerSize+bodyLen)
	copy(buf, trailerMagic)
	binary.BigEndian.PutUint32(buf[12:], bodyLen)
	binary.BigEndian.PutUint32(buf[16:], uint32(numRuns))
	binary.BigEndian.PutUint64(buf[20:], uint64(payloadBytes))
	binary.BigEndian.PutUint64(buf[4:], fnv64a(buf[12:]))
	return buf
}

// parseBody decodes a checksum-verified body. Per-cell allocations are
// still bounded by the remaining bytes: the checksum gate catches
// corruption, this catches encoder bugs.
func parseBody(body []byte) (*Run, error) {
	off := 0
	need := func(n int) error {
		if len(body)-off < n {
			return fmt.Errorf("spill: run body truncated at offset %d", off)
		}
		return nil
	}
	if err := need(10); err != nil {
		return nil, err
	}
	r := &Run{Chunk: int(binary.BigEndian.Uint32(body[off:]))}
	off += 4
	r.Dim = int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if r.Dim < 1 {
		return nil, fmt.Errorf("spill: implausible dimension %d", r.Dim)
	}
	numCells := int(binary.BigEndian.Uint32(body[off:]))
	off += 4
	keyLen := 4 * r.Dim
	// Every cell needs at least a key and a count.
	if minTotal := numCells * (keyLen + 4); minTotal > len(body)-off {
		return nil, fmt.Errorf("spill: %d cells cannot fit in %d remaining bytes", numCells, len(body)-off)
	}
	r.Cells = make([]RunCell, 0, numCells)
	// One backing array each for the run's ids and coordinates, sized by
	// the bytes left (an upper bound on the point count); every cell takes
	// a capacity-capped window, so appending to one never touches another.
	maxPts := (len(body) - off) / (8 * (1 + r.Dim))
	ids, coords := make([]int64, 0, maxPts), make([]float64, 0, maxPts*r.Dim)
	for ci := 0; ci < numCells; ci++ {
		if err := need(keyLen + 4); err != nil {
			return nil, err
		}
		key := grid.Key(body[off : off+keyLen])
		off += keyLen
		npts := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		recLen := npts * 8 * (1 + r.Dim)
		if npts < 0 || recLen < 0 {
			return nil, fmt.Errorf("spill: implausible point count %d", npts)
		}
		if err := need(recLen); err != nil {
			return nil, err
		}
		i0, c0 := len(ids), len(coords)
		for i := 0; i < npts; i++ {
			ids = append(ids, int64(binary.BigEndian.Uint64(body[off:])))
			off += 8
		}
		for i := 0; i < npts*r.Dim; i++ {
			coords = append(coords, math.Float64frombits(binary.BigEndian.Uint64(body[off:])))
			off += 8
		}
		r.Cells = append(r.Cells, RunCell{Key: key, IDs: ids[i0:len(ids):len(ids)], Coords: coords[c0:len(coords):len(coords)]})
	}
	if off != len(body) {
		return nil, fmt.Errorf("spill: %d trailing bytes after %d cells", len(body)-off, numCells)
	}
	return r, nil
}

// FrameSize returns the total byte length of the framed run record at the
// front of buf (header included) without verifying or parsing it — the
// cheap split used to carve a concatenation of frames apart.
func FrameSize(buf []byte) (int, error) {
	if len(buf) < headerSize {
		return 0, fmt.Errorf("spill: truncated run header (%d bytes)", len(buf))
	}
	if string(buf[:4]) != runMagic {
		return 0, fmt.Errorf("spill: bad magic %q", buf[:4])
	}
	bodyLen := int(binary.BigEndian.Uint32(buf[12:16]))
	if bodyLen < 10 || bodyLen > maxBodyLen {
		return 0, fmt.Errorf("spill: implausible body length %d", bodyLen)
	}
	if len(buf) < headerSize+bodyLen {
		return 0, fmt.Errorf("spill: truncated run body (%d of %d bytes)",
			len(buf)-headerSize, bodyLen)
	}
	return headerSize + bodyLen, nil
}

// decodeRuns decodes a concatenation of framed run records, in order,
// verifying each frame's checksum before parsing it. Trailing garbage
// (including a truncated final frame) is an error.
func decodeRuns(buf []byte) ([]*Run, error) {
	var runs []*Run
	for len(buf) > 0 {
		n, err := FrameSize(buf)
		if err == nil && fnv64a(buf[12:n]) != binary.BigEndian.Uint64(buf[4:12]) {
			err = fmt.Errorf("spill: run checksum mismatch")
		}
		var r *Run
		if err == nil {
			r, err = parseBody(buf[headerSize:n])
		}
		if err != nil {
			return nil, fmt.Errorf("spill: frame %d: %w", len(runs), err)
		}
		runs = append(runs, r)
		buf = buf[n:]
	}
	return runs, nil
}

// Writer appends run records to one partition's spill: a file (NewWriter)
// or memory (NewMemWriter), byte-identical either way. It is safe for
// concurrent use by the streaming stage's tasks, and appends are
// idempotent per chunk: the engine re-executes and speculatively re-runs
// task bodies, so a chunk that already reached the spill is silently
// skipped on re-append.
type Writer struct {
	mu      sync.Mutex
	path    string
	f       *os.File // nil for an in-memory writer
	bw      *bufio.Writer
	mem     bytes.Buffer
	out     io.Writer    // bw, or &mem
	written map[int]bool // chunks fully appended
	bytes   int64
	err     error // sticky: a failed write poisons the spill
}

// NewWriter creates (truncating) the spill file at path.
func NewWriter(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16), written: make(map[int]bool)}
	w.out = w.bw
	return w, nil
}

// NewMemWriter returns a Writer that keeps its records in memory.
func NewMemWriter() *Writer {
	w := &Writer{written: make(map[int]bool)}
	w.out = &w.mem
	return w
}

// AppendRun encodes and appends one run record, deduplicating by chunk
// index. It returns the bytes appended (0 for a deduplicated re-append).
func (w *Writer) AppendRun(chunk, dim int, cells []RunCell) (int64, error) {
	return w.AppendFrame(chunk, EncodeRun(chunk, dim, cells))
}

// AppendFrame appends one already-encoded run record (an EncodeRun frame
// for the given chunk), deduplicating by chunk index like AppendRun.
func (w *Writer) AppendFrame(chunk int, frame []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.written[chunk] {
		return 0, nil
	}
	if _, err := w.out.Write(frame); err != nil {
		// A partial append leaves the spill unframed; poison it so every
		// later append and the final Close fail loudly rather than ship a
		// corrupt shuffle.
		w.err = fmt.Errorf("spill: append chunk %d: %w", chunk, err)
		return 0, w.err
	}
	w.written[chunk] = true
	w.bytes += int64(len(frame))
	return int64(len(frame)), nil
}

// Bytes returns the total bytes appended so far.
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// Close appends the trailer and, for a file, flushes and closes it,
// keeping it on disk for readers. Without the trailer a reader cannot tell
// a complete spill from one truncated at a record boundary.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	if err == nil {
		_, err = w.out.Write(EncodeTrailer(len(w.written), w.bytes))
	}
	if w.f == nil {
		return err
	}
	if err == nil {
		err = w.bw.Flush()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Contents returns everything a closed Writer wrote, trailer included —
// the input Load expects. A file-backed Writer re-reads its file.
func (w *Writer) Contents() ([]byte, error) {
	if w.f == nil {
		return w.mem.Bytes(), nil
	}
	return os.ReadFile(w.path)
}

// LoadFile reads and decodes a spill file; see Load.
func LoadFile(path string) ([]*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	runs, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("spill: %s: %w", path, err)
	}
	return runs, nil
}

// Load decodes a closed spill — every run record followed by a trailer
// whose run count and payload byte total match — and returns the runs
// sorted by chunk index: concurrent chunk tasks append in
// nondeterministic order, and the sort restores the deterministic global
// point order the differential battery asserts.
func Load(data []byte) ([]*Run, error) {
	const trailerSize = headerSize + 12
	end := len(data) - trailerSize
	if end < 0 || string(data[end:end+4]) != trailerMagic {
		return nil, fmt.Errorf("spill: truncated: no trailer")
	}
	tr := data[end:]
	if binary.BigEndian.Uint32(tr[12:16]) != 12 || fnv64a(tr[12:]) != binary.BigEndian.Uint64(tr[4:12]) {
		return nil, fmt.Errorf("spill: trailer checksum mismatch")
	}
	runs, err := decodeRuns(data[:end])
	if err != nil {
		return nil, err
	}
	numRuns, payload := int(binary.BigEndian.Uint32(tr[16:20])), int64(binary.BigEndian.Uint64(tr[20:28]))
	if numRuns != len(runs) || payload != int64(end) {
		return nil, fmt.Errorf("spill: trailer promises %d runs / %d bytes, read %d / %d",
			numRuns, payload, len(runs), end)
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Chunk < runs[j].Chunk })
	return runs, nil
}
