package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"rpdbscan/internal/datagen"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/pointio"
)

// Fit parameters shared by every workload. k is the paper's partition
// count, run on as many virtual workers.
const (
	k            = 40
	rho          = 0.01
	minPts       = 20
	denseEps     = 0.6
	sparseEps    = 0.1
	denseDensity = 20 // SimCosmo points per reference-world point
	streamChunk  = 16384
	fitSeed      = 1 // partitioning seed; labels do not depend on it
)

// params fixes every input size and offered rate. They are constants, never
// tuned per run, so two commits always receive identical inputs and load.
type params struct {
	denseN, sparseN int
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps int
	// minWarm is the fewest warm fit repetitions a run measures.
	minWarm int
	// predictRate is the open-loop predict rate in requests per second;
	// every batchEvery-th request is a /predict/batch of batchSize points.
	predictRate         float64
	batchEvery, batchSz int
	// conns is the generator's connection pool. Independent users do not
	// share a couple of connections: with as few connections as CPUs, one
	// slow reply holds back every request due behind it, and the tail
	// measures the client's queue instead of the server.
	conns                int
	watermark            int     // serve-refit refit cadence in points
	ingestRate           float64 // serve-refit ingested points per second
	ingestBatch          int     // points per /ingest request
	refitTail, bootLimit float64 // seconds allowed for the last swap and a boot
}

var fullScale = params{
	denseN: 400_000, sparseN: 500_000,
	setupReps: 3, minWarm: 3,
	predictRate: 1000, batchEvery: 10, batchSz: 64, conns: 32,
	watermark: 50_000, ingestRate: 10_000, ingestBatch: 500,
	refitTail: 20, bootLimit: 60,
}

// quickScale keeps every code path but shrinks inputs so that the smoke
// test runs all four workloads in seconds.
var quickScale = params{
	denseN: 20_000, sparseN: 20_000,
	setupReps: 3, minWarm: 2,
	predictRate: 500, batchEvery: 10, batchSz: 16, conns: 32,
	watermark: 5_000, ingestRate: 10_000, ingestBatch: 500,
	refitTail: 20, bootLimit: 30,
}

// worldSeed fixes the layout of both simulated worlds (cluster centres,
// road segments), standing in for a fixed real data set. The run seed draws
// the sample from that world, so a seed changes which points a workload
// sees but not how hard they are to cluster: the spread across seeds then
// measures the system, not the layout.
const worldSeed = 1

// densePoints samples n SimCosmo 3-d points at 20x the reference density.
func densePoints(n int, seed int64) *geom.Points {
	return sample(datagen.SimCosmoWorld(2*n, n/denseDensity, worldSeed).Points, n, seed)
}

// sparsePoints samples n SimOSM 2-d points at the reference density.
func sparsePoints(n int, seed int64) *geom.Points {
	return sample(datagen.SimOSMWorld(2*n, n, worldSeed).Points, n, seed)
}

// sample draws n of pts without replacement, in seeded random order. The
// world holds 2n points at twice the target density, so the sample has the
// target density and every seed sees an independent draw.
func sample(pts *geom.Points, n int, seed int64) *geom.Points {
	rng := rand.New(rand.NewSource(seed))
	out := geom.NewPoints(pts.Dim, n)
	for _, i := range rng.Perm(pts.N())[:n] {
		out.Append(pts.At(i))
	}
	return out
}

func writeCSV(path string, pts *geom.Points) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := pointio.WriteCSV(bw, pts); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// query is one prediction request: its points and pre-encoded body.
type query struct {
	path   string
	points [][]float64
	body   []byte
}

// queries generates count predict requests over the training points: half
// the query points lie within eps/2 (per coordinate, Gaussian) of a training
// point, so they mostly hit a cluster, and half are uniform in the bounding
// box, so they mostly miss. Every batchEvery-th request is a batch.
func queries(pts *geom.Points, eps float64, p params, seed int64, count int) []query {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	lo, hi := bounds(pts)
	point := func() []float64 {
		q := make([]float64, pts.Dim)
		if rng.Intn(2) == 0 {
			base := pts.At(rng.Intn(pts.N()))
			for j := range q {
				q[j] = base[j] + rng.NormFloat64()*eps/2
			}
		} else {
			for j := range q {
				q[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
		}
		return q
	}
	out := make([]query, count)
	for i := range out {
		if i%p.batchEvery == p.batchEvery-1 {
			qs := make([][]float64, p.batchSz)
			for j := range qs {
				qs[j] = point()
			}
			out[i] = query{path: "/predict/batch", points: qs, body: mustJSON(map[string]any{"points": qs})}
		} else {
			q := point()
			out[i] = query{path: "/predict", points: [][]float64{q}, body: mustJSON(map[string]any{"point": q})}
		}
	}
	return out
}

func bounds(pts *geom.Points) (lo, hi []float64) {
	lo = append([]float64(nil), pts.At(0)...)
	hi = append([]float64(nil), pts.At(0)...)
	for i := 1; i < pts.N(); i++ {
		for j, v := range pts.At(i) {
			lo[j] = min(lo[j], v)
			hi[j] = max(hi[j], v)
		}
	}
	return lo, hi
}

// ingestBodies encodes pts as consecutive /ingest batches of size points.
func ingestBodies(pts *geom.Points, size int) [][]byte {
	var out [][]byte
	for start := 0; start+size <= pts.N(); start += size {
		rows := make([][]float64, size)
		for i := range rows {
			rows[i] = pts.At(start + i)
		}
		out = append(out, mustJSON(map[string]any{"points": rows}))
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite coordinates are encoded
	}
	return b
}
