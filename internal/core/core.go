// Package core implements the RP-DBSCAN algorithm of Algorithm 1: Phase I
// pseudo random partitioning and two-level cell dictionary building
// (Section 4), Phase II core marking and cell-subgraph building
// (Section 5), and Phase III progressive graph merging and point labeling
// (Section 6). All parallel stages run on an engine.Cluster, which records
// per-task costs for the experiment harness.
//
// There is one pipeline (fit, in stream.go). It is fed by a
// pointio.Source and shuffles every partition as a sequence of RPS1 run
// frames: Run keeps those frames in memory, RunStream spills them to
// files. Each stage body is a plain function over decoded values; on the
// simulator the driver calls it directly, and on a cluster with a
// Transport the registered handler (handlers.go) decodes its input, calls
// the same body and encodes the output.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"rpdbscan/internal/dict"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/graph"
	"rpdbscan/internal/grid"
	"rpdbscan/internal/pointio"
	"rpdbscan/internal/spill"
)

// phase2Scratch bundles the blocked path's reusable buffers: the SoA gather
// of one cell's points, their region counts, and the core-point selection
// mask. Pooling them across Phase II tasks keeps the per-task allocation
// cost (and the GC assist it draws mid-stage) off the hot path; each task
// holds one scratch at a time, so the pool high-water mark is the number of
// concurrently running tasks, not the partition count.
type phase2Scratch struct {
	blk    geom.Block
	counts []int64
	sel    []bool
}

var phase2Pool = sync.Pool{New: func() any { return new(phase2Scratch) }}

// ensure sizes the scratch for cells of up to maxn points of dim
// dimensions.
func (s *phase2Scratch) ensure(dim, maxn int) {
	s.blk.Grow(dim, maxn)
	if cap(s.counts) < maxn {
		s.counts = make([]int64, maxn)
	}
	if cap(s.sel) < maxn {
		s.sel = make([]bool, maxn)
	}
}

// partitionOf deals a cell to one of k pseudo random partitions: a seeded
// FNV-1a hash of the cell key, so every mapper computes the same
// assignment with no coordination (the "random key" of Algorithm 2 line
// 7). The mix is inlined: hash/fnv costs a hasher plus an 8-byte seed
// buffer allocation per call, and this runs once per cell per mapper. A
// test pins the inlined hash to hash/fnv's output.
func partitionOf(key grid.Key, seed int64, k int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*i)))) * prime64
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return int(h % uint64(k))
}

// Noise is the label assigned to points in no cluster.
const Noise = -1

// Config holds the RP-DBSCAN parameters.
type Config struct {
	// Eps is the neighborhood radius of DBSCAN.
	Eps float64
	// MinPts is the core-point threshold of DBSCAN.
	MinPts int
	// Rho is the approximation rate of the two-level cell dictionary
	// (Definition 4.1). The paper's default is 0.01.
	Rho float64
	// NumPartitions is k, the number of pseudo random partitions. Zero
	// defaults to the cluster's virtual worker count.
	NumPartitions int
	// MaxCellsPerSubDict bounds sub-dictionary size for defragmentation
	// (Section 4.2.2); <= 0 keeps a single sub-dictionary.
	MaxCellsPerSubDict int
	// Seed drives the pseudo random cell-to-partition assignment.
	Seed int64

	// DisableBatching answers Phase II region queries per point (the
	// pre-batching oracle path) instead of per cell. Results are
	// identical; only cost changes. Ablation / testing knob.
	DisableBatching bool
	// DisableIndex makes the dictionary querier scan entries instead of
	// using its kd-tree index (dict.Querier.DisableIndex). Results are
	// identical; only cost changes.
	DisableIndex bool
	// SerialMerge merges Phase III subgraphs with the pairwise tournament
	// of Figure 9a instead of the flat lock-free merge, restoring the
	// per-round edge telemetry of Table 7. Results are identical; only
	// cost and EdgesPerRound granularity change.
	SerialMerge bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Eps <= 0 {
		return fmt.Errorf("rpdbscan: Eps must be positive, got %g", c.Eps)
	}
	if c.MinPts < 1 {
		return fmt.Errorf("rpdbscan: MinPts must be >= 1, got %d", c.MinPts)
	}
	if c.Rho <= 0 {
		return fmt.Errorf("rpdbscan: Rho must be positive, got %g", c.Rho)
	}
	if c.NumPartitions < 0 {
		return fmt.Errorf("rpdbscan: NumPartitions must be >= 0, got %d", c.NumPartitions)
	}
	return nil
}

// Result is the output of one RP-DBSCAN run plus the instrumentation the
// experiment harness consumes.
type Result struct {
	// Labels holds a cluster id per point, or Noise.
	Labels []int
	// CorePoint marks the points judged core by the (eps,rho)-region
	// queries.
	CorePoint []bool
	// NumClusters is the number of clusters found.
	NumClusters int

	// Report carries per-stage task costs from the engine.
	Report *engine.Report

	// DictSizeBits is the two-level cell dictionary size per Lemma 4.3.
	DictSizeBits int64
	// DictBytes is the size of the encoded broadcast payload.
	DictBytes int
	// NumCells and NumSubCells are dictionary totals.
	NumCells    int
	NumSubCells int
	// EdgesPerRound records the total cell-graph edges remaining after
	// each merge round; index 0 is the pre-merge total (Table 7).
	EdgesPerRound []int64
	// PointsProcessed is the summed number of points handled across all
	// splits. Pseudo random partitioning makes this exactly N
	// (Section 7.3.2).
	PointsProcessed int64

	// Stream holds out-of-core pipeline statistics; nil for in-memory Run.
	Stream *StreamStats
}

// partState is one partition's Phase II result — everything Phase III
// needs from it: the keys of its cells in ascending order, their dense
// dictionary ids, which cells are core, each cell's core points as
// ascending global ids, and the partition's cell subgraph.
type partState struct {
	keys     []grid.Key
	ids      []int32
	cellCore []bool
	corePts  [][]int
	subgraph *graph.Graph
}

// Run executes RP-DBSCAN over pts on the given cluster: the fit pipeline
// fed from memory in k chunks of ⌈n/k⌉ points, with the partitions' RPS1
// frames kept in memory. The cluster's report accumulates the stage
// costs; callers wanting a clean report should pass a fresh cluster.
func Run(pts *geom.Points, cfg Config, cl *engine.Cluster) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := partitionCount(cfg, cl)
	chunk := max((pts.N()+k-1)/k, 1)
	res, err := fit(pointio.FromPoints(pts), StreamConfig{Config: cfg, ChunkSize: chunk}, cl,
		func(int) (*spill.Writer, error) { return spill.NewMemWriter(), nil })
	if err != nil {
		return nil, err
	}
	res.Stream = nil
	return res, nil
}

// partitionCount resolves k: cfg.NumPartitions, defaulting to the
// cluster's virtual worker count.
func partitionCount(cfg Config, cl *engine.Cluster) int {
	k := cfg.NumPartitions
	if k == 0 {
		k = cl.Workers
	}
	return max(k, 1)
}

// partitionChunk is the Phase I-1 body (Algorithm 2, part 1): it assigns
// one chunk's points — global ids base, base+1, ... — to cells and deals
// each cell to its pseudo random partition. It returns one RPS1 frame per
// partition, nil where the chunk has no cell for it; cells within a frame
// are sorted by key, so the bytes never depend on map iteration order.
func partitionChunk(chunk int, base int64, coords []float64, c *taskConf) [][]byte {
	dim := c.Dim
	side := grid.Side(c.Eps, dim)
	cells := make(map[grid.Key][]int)
	for i := 0; i < len(coords)/dim; i++ {
		key := grid.KeyFor(coords[i*dim:(i+1)*dim], side)
		cells[key] = append(cells[key], i)
	}
	dest := make([][]spill.RunCell, c.K)
	ids, xs := make([]int64, 0, len(coords)/dim), make([]float64, 0, len(coords))
	for key, idx := range cells {
		i0, x0 := len(ids), len(xs)
		for _, li := range idx {
			ids = append(ids, base+int64(li))
			xs = append(xs, coords[li*dim:(li+1)*dim]...)
		}
		d := partitionOf(key, c.Seed, c.K)
		dest[d] = append(dest[d], spill.RunCell{Key: key, IDs: ids[i0:], Coords: xs[x0:]})
	}
	frames := make([][]byte, c.K)
	for d, cs := range dest {
		if len(cs) > 0 {
			slices.SortFunc(cs, func(a, b spill.RunCell) int { return cmp.Compare(a.Key, b.Key) })
			frames[d] = spill.EncodeRun(chunk, dim, cs)
		}
	}
	return frames
}

// buildEntries is the Phase I-2 body (Algorithm 2, part 2): one
// partition's dictionary entries, folded run by run. The builder is
// order-independent, so the runs need not be chunk-sorted.
func buildEntries(runs []*spill.Run, p dict.Params) []dict.CellEntry {
	b := dict.NewStreamBuilder(p)
	for _, r := range runs {
		for _, c := range r.Cells {
			b.Add(c.Key, c.Coords)
		}
	}
	return b.Entries()
}

// phase2Part is the Phase II body for one partition: it rematerialises
// the partition's cells from its chunk-sorted runs over partition-local
// point indices — so every cell's list is in ascending global order —
// runs phase2Task, and maps the core points back to global ids.
func phase2Part(runs []*spill.Run, c *taskConf, d *dict.Dictionary, numCells int) *partState {
	frags := make(map[grid.Key][]*spill.RunCell)
	var keys []grid.Key
	total := 0
	for _, r := range runs {
		for i := range r.Cells {
			rc := &r.Cells[i]
			if _, ok := frags[rc.Key]; !ok {
				keys = append(keys, rc.Key)
			}
			frags[rc.Key] = append(frags[rc.Key], rc)
			total += len(rc.IDs)
		}
	}
	slices.Sort(keys)
	pts := &geom.Points{Dim: c.Dim, Coords: make([]float64, 0, total*c.Dim)}
	gids := make([]int, 0, total)
	cells := make([]*grid.Cell, len(keys))
	for i, key := range keys {
		cell := &grid.Cell{Key: key}
		for _, f := range frags[key] {
			for _, id := range f.IDs {
				cell.Points = append(cell.Points, len(gids))
				gids = append(gids, int(id))
			}
			pts.Coords = append(pts.Coords, f.Coords...)
		}
		cells[i] = cell
	}
	st := phase2Task(pts, c, cells, d, numCells)
	for _, cp := range st.corePts {
		for j, li := range cp {
			cp[j] = gids[li]
		}
	}
	return st
}

// phase2Task runs one partition's share of Phase II — core marking and
// cell-subgraph building (Algorithm 3) — over its owned cells (sorted by
// key, points indexing pts) and returns the partition's state, core points
// as indices into pts. The hot path batches region queries at cell granularity
// (dict.Querier.QueryCell) and evaluates the per-point residual checks
// through the blocked SoA kernels: each cell's points are gathered once
// into per-dimension lanes (geom.Block), CountPoints answers every point's
// core decision candidate-by-candidate with the MinPts early exit, and
// AppendNeighborsBlock computes the core points' neighbor-cell union
// directly. c.DisableBatching selects the per-point oracle path, which
// produces identical output.
func phase2Task(pts *geom.Points, c *taskConf, cells []*grid.Cell, d *dict.Dictionary, numCells int) *partState {
	q := d.AcquireQuerier()
	defer d.ReleaseQuerier(q)
	q.DisableBatching = c.DisableBatching
	q.DisableIndex = c.DisableIndex
	g := graph.New(numCells)
	st := &partState{
		keys:     make([]grid.Key, len(cells)),
		ids:      make([]int32, len(cells)),
		cellCore: make([]bool, len(cells)),
		corePts:  make([][]int, len(cells)),
	}
	// Scratch of the blocked path, pooled across tasks and pre-sized to the
	// partition's largest cell so the cell loop never reallocates. The
	// arena backs every cell's core-point list (total core points never
	// exceed total points): one allocation per task instead of one per core
	// cell, and it cannot be pooled because the windows are retained in
	// st.corePts.
	var scratch *phase2Scratch
	var counts []int64
	var sel []bool
	var arena []int
	if !c.DisableBatching {
		maxn, total := 0, 0
		for _, cell := range cells {
			if len(cell.Points) > maxn {
				maxn = len(cell.Points)
			}
			total += len(cell.Points)
		}
		scratch = phase2Pool.Get().(*phase2Scratch)
		defer phase2Pool.Put(scratch)
		scratch.ensure(pts.Dim, maxn)
		counts = scratch.counts
		sel = scratch.sel
		arena = make([]int, 0, total)
	}
	// Sparse-set dedup of neighbor-cell ids keyed by dense cell id: inNC
	// flags membership, ncIDs lists members for an O(|NC|) reset. Replaces
	// a map[int32]struct{} whose hashing and clearing dominated cells with
	// many core points.
	inNC := make([]bool, numCells)
	ncIDs := make([]int32, 0, 64)
	var neighborCells []int32
	minPts := int64(c.MinPts)
	for ci, cell := range cells {
		id, ok := d.IDOf(cell.Key)
		if !ok {
			// Every owned cell is non-empty, so it must be in the
			// dictionary; reaching here means a broadcast bug.
			panic("rpdbscan: owned cell missing from dictionary")
		}
		st.keys[ci] = cell.Key
		st.ids[ci] = id
		for _, nid := range ncIDs {
			inNC[nid] = false
		}
		ncIDs = ncIDs[:0]
		if q.DisableBatching {
			for _, pi := range cell.Points {
				count, cellsOut := q.Query(pts.At(pi), true, neighborCells[:0])
				neighborCells = cellsOut
				if count >= minPts {
					st.cellCore[ci] = true
					st.corePts[ci] = append(st.corePts[ci], pi)
					for _, nid := range neighborCells {
						if !inNC[nid] {
							inNC[nid] = true
							ncIDs = append(ncIDs, nid)
						}
					}
				}
			}
		} else {
			b := q.QueryCell(cell.Key)
			blk := &scratch.blk
			blk.Gather(pts, cell.Points)
			np := len(cell.Points)
			counts, sel = counts[:np], sel[:np]
			b.CountPoints(blk, minPts, counts)
			ncore := 0
			for i := range cell.Points {
				sel[i] = counts[i] >= minPts
				if sel[i] {
					ncore++
				}
			}
			if ncore > 0 {
				st.cellCore[ci] = true
				// The arena's capacity covers every point of the partition,
				// so these appends never reallocate and the window stays
				// valid.
				start := len(arena)
				for i, pi := range cell.Points {
					if sel[i] {
						arena = append(arena, pi)
					}
				}
				st.corePts[ci] = arena[start:len(arena):len(arena)]
			}
			if st.cellCore[ci] {
				// Per-point neighbor sets are only ever unioned into NC, so
				// the blocked kernel answers the union over the cell's core
				// points directly; fully-inside candidates neighbor every
				// point and join once.
				neighborCells = b.AppendNeighborsBlock(blk, sel, neighborCells[:0])
				for _, nid := range neighborCells {
					if !inNC[nid] {
						inNC[nid] = true
						ncIDs = append(ncIDs, nid)
					}
				}
				for _, nid := range b.InsideCells() {
					if !inNC[nid] {
						inNC[nid] = true
						ncIDs = append(ncIDs, nid)
					}
				}
			}
		}
		if st.cellCore[ci] {
			g.SetVertex(id, graph.Core)
			slices.Sort(ncIDs) // deterministic edge insertion order
			for _, nid := range ncIDs {
				g.AddEdge(id, nid)
			}
		} else {
			g.SetVertex(id, graph.NonCore)
		}
	}
	st.subgraph = g
	return st
}
