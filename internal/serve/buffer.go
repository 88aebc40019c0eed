package serve

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"rpdbscan/internal/grid"
	"rpdbscan/internal/spill"
)

// IngestBuffer accumulates the online point stream behind /ingest: an
// in-memory point-major mirror (what refits cluster and what Prefix
// serves), optionally backed by durable RPS1 spill segments so a restarted
// server recovers the stream.
//
// Durability reuses internal/spill's run files verbatim: every accepted
// ingest batch is one checksummed run record (chunk = the batch's global
// sequence number, a single synthetic cell carrying the batch's global
// point ids and coordinates), appended to the current segment file. The
// writer's per-chunk dedup keeps re-appends idempotent, exactly as the
// engine's retry semantics require of the format. Segments are sealed —
// closed with the RPS1 trailer — by the refit loop at each watermark
// crossing, so a sealed segment is a complete, verifiable file and
// recovery always lands on the batch boundary of the most recent crossing.
//
// An unsealed tail segment (process crash mid-stream) has no trailer and
// is rejected by spill.LoadFile; its points are the ones an abrupt crash
// loses, which is precisely the tail beyond the last watermark — the same
// prefix the newest persisted model artifact was fitted on.
type IngestBuffer struct {
	mu     sync.Mutex
	dim    int       // 0 until the first append fixes it
	coords []float64 // every ingested point, point-major, in arrival order
	dir    string    // segment directory; "" keeps the buffer memory-only
	seg    *spill.Writer
	segIdx int   // index of the open segment
	batch  int   // next batch sequence number (spill chunk id)
	sealed int64 // points covered by sealed segments (the durable prefix)
}

// segmentName formats the on-disk name of segment i.
func segmentName(i int) string {
	return fmt.Sprintf("seg-%06d.rps", i)
}

// NewIngestBuffer opens a buffer. With dir == "" the buffer is
// memory-only. Otherwise dir is created if needed, any previously sealed
// segments are replayed (in order, stopping at the first unreadable or
// discontinuous segment), and a fresh segment is opened for new appends.
func NewIngestBuffer(dir string) (*IngestBuffer, error) {
	b := &IngestBuffer{dir: dir}
	if dir == "" {
		return b, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: ingest buffer dir: %w", err)
	}
	if err := b.recover(); err != nil {
		return nil, err
	}
	if err := b.openSegment(); err != nil {
		return nil, err
	}
	return b, nil
}

// recover replays sealed segments into the in-memory mirror. Segments are
// replayed in index order; the replay stops at the first segment that is
// missing, fails verification, or does not continue the global point
// sequence — everything before that boundary is intact by construction
// (checksummed runs, trailer-verified files, ascending batch ids).
func (b *IngestBuffer) recover() error {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("serve: ingest buffer dir: %w", err)
	}
	var idxs []int
	maxIdx := -1
	for _, e := range entries {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.rps", &i); err == nil &&
			e.Name() == segmentName(i) {
			idxs = append(idxs, i)
			if i > maxIdx {
				maxIdx = i
			}
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		runs, err := spill.LoadFile(filepath.Join(b.dir, segmentName(i)))
		if err != nil {
			break // unsealed or corrupt tail: recovery stops here
		}
		ok := true
		for _, r := range runs {
			if r.Chunk != b.batch || (b.dim != 0 && r.Dim != b.dim) {
				ok = false // discontinuity: a gap segment was skipped
				break
			}
			for _, c := range r.Cells {
				if len(c.IDs) > 0 && c.IDs[0] != int64(len(b.coords))/int64(r.Dim) {
					ok = false
					break
				}
				b.dim = r.Dim
				b.coords = append(b.coords, c.Coords...)
			}
			if !ok {
				break
			}
			b.batch = r.Chunk + 1
		}
		if !ok {
			break
		}
	}
	b.sealed = b.Total()
	// New segments go strictly after every existing file, replayed or not,
	// so a crash-orphaned tail is never overwritten and never re-read.
	b.segIdx = maxIdx + 1
	return nil
}

// openSegment starts the next segment file.
func (b *IngestBuffer) openSegment() error {
	w, err := spill.NewWriter(filepath.Join(b.dir, segmentName(b.segIdx)))
	if err != nil {
		return fmt.Errorf("serve: ingest segment: %w", err)
	}
	b.seg = w
	return nil
}

// syntheticKey is the cell key ingest runs are framed under. The buffer
// has no grid — the fit re-derives cells itself — but the RPS1 record
// format carries one, so every batch rides a single zero cell of the
// point dimensionality.
func syntheticKey(dim int) grid.Key {
	return grid.Key(strings.Repeat("\x00", 4*dim))
}

// Append accepts one batch of n = len(coords)/dim points, assigning them
// the next global indices. It returns the buffer's new total. The first
// append fixes the buffer's dimensionality; later appends must match.
// Coordinates must be finite (the HTTP layer validates before calling).
func (b *IngestBuffer) Append(coords []float64, dim int) (total int64, err error) {
	if dim < 1 || len(coords) == 0 || len(coords)%dim != 0 {
		return 0, fmt.Errorf("serve: bad ingest batch: %d coordinates of dimension %d", len(coords), dim)
	}
	for _, v := range coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("serve: non-finite ingest coordinate %g", v)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dim == 0 {
		b.dim = dim
	} else if dim != b.dim {
		return 0, fmt.Errorf("serve: ingest point has %d coordinates, buffer dimension is %d", dim, b.dim)
	}
	n := len(coords) / dim
	base := int64(len(b.coords) / dim)
	if b.seg != nil {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = base + int64(i)
		}
		cell := spill.RunCell{Key: syntheticKey(dim), IDs: ids, Coords: coords}
		if _, err := b.seg.AppendRun(b.batch, dim, []spill.RunCell{cell}); err != nil {
			return 0, err
		}
	}
	b.coords = append(b.coords, coords...)
	b.batch++
	return base + int64(n), nil
}

// Dim returns the fixed point dimensionality, or 0 before the first
// append.
func (b *IngestBuffer) Dim() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dim
}

// Total returns the number of ingested points.
func (b *IngestBuffer) Total() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dim == 0 {
		return 0
	}
	return int64(len(b.coords) / b.dim)
}

// Prefix copies the first n ingested points (point-major). The copy is
// what a refit clusters: the buffer keeps growing underneath while the fit
// runs, and the fit must see exactly the watermark prefix.
func (b *IngestBuffer) Prefix(n int64) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.coords[:int(n)*b.dim]...)
}

// Seal closes the current durable segment (writing its trailer) and opens
// the next one. The refit loop calls it at each watermark crossing; a
// memory-only buffer seals trivially. Sealing is the durability
// linearization point: everything appended so far survives a crash.
func (b *IngestBuffer) Seal() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seg == nil {
		return nil
	}
	if err := b.seg.Close(); err != nil {
		return fmt.Errorf("serve: seal ingest segment: %w", err)
	}
	b.sealed = int64(len(b.coords))
	if b.dim != 0 {
		b.sealed = int64(len(b.coords) / b.dim)
	}
	b.segIdx++
	return b.openSegment()
}

// SealedPoints returns the durable prefix length: points covered by sealed
// segments (recoverable after a crash).
func (b *IngestBuffer) SealedPoints() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sealed
}

// Close seals the tail segment and releases the buffer. A closed buffer's
// full contents are durable.
func (b *IngestBuffer) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seg == nil {
		return nil
	}
	err := b.seg.Close()
	b.seg = nil
	if err != nil {
		return fmt.Errorf("serve: close ingest segment: %w", err)
	}
	if b.dim != 0 {
		b.sealed = int64(len(b.coords) / b.dim)
	}
	return nil
}
