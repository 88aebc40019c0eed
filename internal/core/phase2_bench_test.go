package core

// BenchmarkPhaseII times cell-graph construction only (Algorithm 3):
// partitioning and the dictionary are built once in setup, and each
// iteration replays every partition's phase2Task. The blocked/per-point
// pair quantifies the SoA-kernel cell-batching speedup on the skewed
// synthetic workload; cmd/rpbench's phase2 experiment reports
// the same contrast from the engine's stage accounting, and CI compares
// the blocked mode's ns/op against the checked-in BENCH_baseline.json.

import (
	"sort"
	"testing"

	"rpdbscan/internal/datagen"
	"rpdbscan/internal/dict"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"
)

type phase2Fixture struct {
	pts      *geom.Points
	conf     taskConf
	parts    [][]*grid.Cell
	d        *dict.Dictionary
	numCells int
}

// newPhase2Fixture replays Phase I serially: cell assignment, pseudo
// random partitioning, and one shared decoded dictionary.
func newPhase2Fixture(b *testing.B, n, k int) *phase2Fixture {
	b.Helper()
	pts := datagen.Mixture(datagen.MixtureConfig{
		N: n, Dim: 2, Components: 10, Span: 100, Alpha: 3,
	}, 1)
	cfg := Config{Eps: 5.0, MinPts: 20, Rho: 0.01, NumPartitions: k}
	side := grid.Side(cfg.Eps, pts.Dim)
	params := dict.Params{Eps: cfg.Eps, Rho: cfg.Rho, Dim: pts.Dim}
	byKey := make(map[grid.Key][]int)
	for i := 0; i < pts.N(); i++ {
		key := grid.KeyFor(pts.At(i), side)
		byKey[key] = append(byKey[key], i)
	}
	perPart := make([][]grid.Key, k)
	for key := range byKey {
		p := partitionOf(key, cfg.Seed, k)
		perPart[p] = append(perPart[p], key)
	}
	parts := make([][]*grid.Cell, k)
	var entries []dict.CellEntry
	for t, keys := range perPart {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			c := &grid.Cell{Key: key, Points: byKey[key]}
			parts[t] = append(parts[t], c)
			entries = append(entries, dict.BuildEntry(c, pts, params))
		}
	}
	d, err := dict.Decode(dict.EncodeEntries(entries, params), cfg.MaxCellsPerSubDict)
	if err != nil {
		b.Fatal(err)
	}
	return &phase2Fixture{
		pts:      pts,
		conf:     taskConf{Eps: cfg.Eps, MinPts: cfg.MinPts, Rho: cfg.Rho, Dim: pts.Dim, K: k},
		parts:    parts,
		d:        d,
		numCells: len(entries),
	}
}

func (f *phase2Fixture) run(disableBatching bool) {
	conf := f.conf
	conf.DisableBatching = disableBatching
	for _, cells := range f.parts {
		phase2Task(f.pts, &conf, cells, f.d, f.numCells)
	}
}

func BenchmarkPhaseII(b *testing.B) {
	f := newPhase2Fixture(b, 20000, 40)
	for _, mode := range []struct {
		name            string
		disableBatching bool
	}{
		{name: "blocked"},
		{name: "per-point", disableBatching: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.run(mode.disableBatching)
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N*f.pts.N())/sec, "points/sec")
			}
		})
	}
}
