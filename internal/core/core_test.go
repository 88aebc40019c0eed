package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rpdbscan/internal/datagen"
	"rpdbscan/internal/dbscan"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/metrics"

	"rpdbscan/internal/testutil"
)

func run(t *testing.T, pts *geom.Points, cfg Config) *Result {
	t.Helper()
	res, err := Run(pts, cfg, engine.New(4))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	pts, _ := geom.FromSlice([][]float64{{0, 0}}, 2)
	cases := []Config{
		{Eps: 0, MinPts: 3, Rho: 0.01},
		{Eps: 1, MinPts: 0, Rho: 0.01},
		{Eps: 1, MinPts: 3, Rho: 0},
		{Eps: 1, MinPts: 3, Rho: 0.01, NumPartitions: -1},
	}
	for i, cfg := range cases {
		if _, err := Run(pts, cfg, engine.New(1)); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res := run(t, geom.NewPoints(2, 0), Config{Eps: 1, MinPts: 3, Rho: 0.01})
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Fatalf("empty input: %+v", res)
	}
}

func TestSingleTightCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := geom.NewPoints(2, 0)
	row := make([]float64, 2)
	for i := 0; i < 200; i++ {
		row[0], row[1] = rng.NormFloat64()*0.2, rng.NormFloat64()*0.2
		pts.Append(row)
	}
	res := run(t, pts, Config{Eps: 0.5, MinPts: 5, Rho: 0.01, NumPartitions: 4})
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != 0 {
			t.Fatalf("point %d labelled %d, want 0", i, l)
		}
	}
	if res.PointsProcessed != 200 {
		t.Fatalf("PointsProcessed = %d, want 200 (no duplication)", res.PointsProcessed)
	}
}

func TestAllNoise(t *testing.T) {
	// Far-apart single points: nothing is core.
	pts := geom.NewPoints(2, 0)
	for i := 0; i < 20; i++ {
		pts.Append([]float64{float64(i) * 100, 0})
	}
	res := run(t, pts, Config{Eps: 1, MinPts: 3, Rho: 0.01, NumPartitions: 3})
	if res.NumClusters != 0 {
		t.Fatalf("NumClusters = %d, want 0", res.NumClusters)
	}
	for _, l := range res.Labels {
		if l != Noise {
			t.Fatal("isolated point not noise")
		}
	}
}

func equivalence(t *testing.T, pts *geom.Points, eps float64, minPts int, rho float64, wantRI float64) {
	t.Helper()
	exact := dbscan.Run(pts, eps, minPts)
	approx := run(t, pts, Config{Eps: eps, MinPts: minPts, Rho: rho, NumPartitions: 5})
	ri := metrics.RandIndex(exact.Labels, approx.Labels)
	if ri < wantRI {
		t.Fatalf("RandIndex = %.4f, want >= %.4f (exact clusters %d, approx %d)",
			ri, wantRI, exact.NumClusters, approx.NumClusters)
	}
}

func TestEquivalenceMoons(t *testing.T) {
	pts := datagen.Moons(2000, 0.04, 7)
	equivalence(t, pts, 0.12, 10, 0.01, 0.999)
}

func TestEquivalenceBlobs(t *testing.T) {
	pts := datagen.Blobs(3000, 4, 0.4, 8)
	equivalence(t, pts, 0.35, 10, 0.01, 0.999)
}

func TestEquivalenceChameleon(t *testing.T) {
	pts := datagen.Chameleon(4000, 9)
	equivalence(t, pts, 1.2, 12, 0.01, 0.99)
}

func TestEquivalence3D(t *testing.T) {
	pts := datagen.Mixture(datagen.MixtureConfig{
		N: 3000, Dim: 3, Components: 8, Span: 40, Alpha: 1,
	}, 10)
	equivalence(t, pts, 1.0, 10, 0.01, 0.99)
}

func TestPartitionCountInvariance(t *testing.T) {
	pts := datagen.Blobs(1500, 3, 0.4, 4)
	cfg := Config{Eps: 0.4, MinPts: 8, Rho: 0.01}
	var base *Result
	for _, k := range []int{1, 2, 7, 16} {
		cfg.NumPartitions = k
		res := run(t, pts, cfg)
		if base == nil {
			base = res
			continue
		}
		if ri := metrics.RandIndex(base.Labels, res.Labels); ri != 1 {
			t.Fatalf("k=%d changed the clustering: RandIndex=%.6f", k, ri)
		}
	}
}

func TestSeedInvariance(t *testing.T) {
	pts := datagen.Moons(1200, 0.04, 2)
	cfg := Config{Eps: 0.12, MinPts: 8, Rho: 0.01, NumPartitions: 6}
	a := run(t, pts, cfg)
	cfg.Seed = 999
	b := run(t, pts, cfg)
	if ri := metrics.RandIndex(a.Labels, b.Labels); ri != 1 {
		t.Fatalf("partitioning seed changed the clustering: RandIndex=%.6f", ri)
	}
}

func TestRhoSweepAccuracyImproves(t *testing.T) {
	// Coarser rho may cost accuracy; rho=0.01 should be at least as good
	// as rho=0.25 against exact DBSCAN (Table 4's trend).
	pts := datagen.Chameleon(3000, 11)
	exact := dbscan.Run(pts, 1.2, 12)
	riOf := func(rho float64) float64 {
		res := run(t, pts, Config{Eps: 1.2, MinPts: 12, Rho: rho, NumPartitions: 4})
		return metrics.RandIndex(exact.Labels, res.Labels)
	}
	coarse := riOf(0.5)
	fine := riOf(0.01)
	if fine < coarse-1e-9 {
		t.Fatalf("rho=0.01 (RI %.4f) worse than rho=0.5 (RI %.4f)", fine, coarse)
	}
	if fine < 0.99 {
		t.Fatalf("rho=0.01 RI = %.4f, want >= 0.99", fine)
	}
}

func TestReportStagesAndPhases(t *testing.T) {
	pts := datagen.Blobs(500, 3, 0.4, 5)
	res := run(t, pts, Config{Eps: 0.4, MinPts: 8, Rho: 0.05, NumPartitions: 4})
	for _, name := range []string{
		"cell-partitioning", "dictionary-build",
		"dictionary-broadcast", "dictionary-load",
		"cell-graph-construction", "label-preparation", "point-labeling",
	} {
		if res.Report.Stage(name) == nil {
			t.Fatalf("missing stage %q", name)
		}
	}
	_, order := res.Report.PhaseBreakdown()
	want := []string{"I-1", "I-2", "II", "III-1", "III-2"}
	if len(order) != len(want) {
		t.Fatalf("phases = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("phases = %v, want %v", order, want)
		}
	}
	if res.Report.Stage("cell-graph-construction").Imbalance() < 1 {
		t.Fatal("imbalance below 1")
	}
}

func TestEdgesPerRoundMonotone(t *testing.T) {
	pts := datagen.Mixture(datagen.MixtureConfig{
		N: 2000, Dim: 2, Components: 6, Span: 30, Alpha: 1,
	}, 6)
	res := run(t, pts, Config{Eps: 0.8, MinPts: 10, Rho: 0.01, NumPartitions: 8})
	if len(res.EdgesPerRound) < 2 {
		t.Fatalf("EdgesPerRound = %v", res.EdgesPerRound)
	}
	for i := 1; i < len(res.EdgesPerRound); i++ {
		if res.EdgesPerRound[i] > res.EdgesPerRound[i-1] {
			t.Fatalf("edge counts increased: %v", res.EdgesPerRound)
		}
	}
	if res.EdgesPerRound[0] == 0 {
		t.Fatal("no edges before merging on a clustered set")
	}
}

func TestDictionaryAccounting(t *testing.T) {
	pts := datagen.Blobs(800, 3, 0.4, 3)
	res := run(t, pts, Config{Eps: 0.4, MinPts: 8, Rho: 0.01, NumPartitions: 4})
	if res.NumCells == 0 || res.NumSubCells < res.NumCells {
		t.Fatalf("cell totals wrong: %d / %d", res.NumCells, res.NumSubCells)
	}
	if res.DictSizeBits <= 0 || res.DictBytes <= 0 {
		t.Fatalf("dictionary sizes not recorded: bits=%d bytes=%d", res.DictSizeBits, res.DictBytes)
	}
	bcast := res.Report.Stage("dictionary-broadcast")
	if bcast.Bytes != int64(res.DictBytes) {
		t.Fatalf("broadcast bytes %d != DictBytes %d", bcast.Bytes, res.DictBytes)
	}
}

func TestCoreFlagsCloseToExact(t *testing.T) {
	pts := datagen.Moons(1500, 0.04, 3)
	exact := dbscan.Run(pts, 0.12, 10)
	res := run(t, pts, Config{Eps: 0.12, MinPts: 10, Rho: 0.01, NumPartitions: 4})
	diff := 0
	for i := range exact.CorePoint {
		if exact.CorePoint[i] != res.CorePoint[i] {
			diff++
		}
	}
	if frac := float64(diff) / float64(pts.N()); frac > 0.02 {
		t.Fatalf("core flags differ on %.2f%% of points", frac*100)
	}
}

func TestDefragmentedDictEquivalence(t *testing.T) {
	pts := datagen.Blobs(1500, 4, 0.4, 12)
	cfg := Config{Eps: 0.4, MinPts: 8, Rho: 0.01, NumPartitions: 4}
	a := run(t, pts, cfg)
	cfg.MaxCellsPerSubDict = 16
	b := run(t, pts, cfg)
	if ri := metrics.RandIndex(a.Labels, b.Labels); ri != 1 {
		t.Fatalf("defragmentation changed the clustering: RandIndex=%.6f", ri)
	}
}

// Property: on random mixtures, RP-DBSCAN at rho=0.01 matches exact
// DBSCAN (the Table 4 claim) — up to the Theorem 5.4 sandwich: a
// knife-edge configuration where a +/-rho/2 change of eps legitimately
// flips connectivity must instead match exact DBSCAN at a sandwich
// radius.
func TestEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const rho = 0.01
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 2 + r.Intn(2)
		pts := datagen.Mixture(datagen.MixtureConfig{
			N: 800 + r.Intn(800), Dim: dim,
			Components: 3 + r.Intn(5), Span: 30, Alpha: 2,
			NoiseFrac: 0.05,
		}, seed)
		eps := 0.8
		minPts := 8
		res, err := Run(pts, Config{
			Eps: eps, MinPts: minPts, Rho: rho,
			NumPartitions: 1 + r.Intn(8), Seed: seed,
		}, engine.New(4))
		if err != nil {
			return false
		}
		for _, refEps := range []float64{eps, (1 - rho/2) * eps, (1 + rho/2) * eps} {
			ref := dbscan.Run(pts, refEps, minPts)
			if metrics.RandIndex(ref.Labels, res.Labels) >= 0.99 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 1, 15)); err != nil {
		t.Fatal(err)
	}
}
