package harness

import (
	"fmt"
	"time"

	"rpdbscan/internal/chaos"
	"rpdbscan/internal/core"
	"rpdbscan/internal/datagen"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/transport"
)

// TransportRow is one multi-process run compared against its in-process
// twin: same points, same configuration, same seed — the simulator result
// is the reference the proc backend must reproduce byte for byte.
type TransportRow struct {
	// Workers is the number of worker processes (and virtual cluster
	// workers) behind the run.
	Workers int
	// Seed seeds the data set, the partitioner, and (when ChaosOn) the
	// fault schedule.
	Seed int64
	// ChaosOn marks runs under process-level fault injection: worker
	// kills, wire corruption, and simulated task failures together.
	ChaosOn bool
	// Identical reports whether labels, core flags, and cluster count
	// matched the in-process run exactly.
	Identical bool
	// Accounted reports whether the engine's fault ledger reconciled
	// exactly against the injector's own tally (trivially true without
	// chaos).
	Accounted bool
	// InjectedFailures / ChecksumRejects / WorkerKills are the run's
	// ledgered fault totals.
	InjectedFailures int64 `json:"injected_failures"`
	ChecksumRejects  int64 `json:"checksum_rejects"`
	WorkerKills      int64 `json:"worker_kills"`
	// MeasuredMillis is the real wall time summed over the run's stages;
	// SimulatedMillis is the virtual-scheduler makespan summed over the
	// same stages. On the proc backend each task's recorded cost includes
	// its real wire roundtrip, so the two track each other up to
	// scheduling overhead.
	MeasuredMillis  float64 `json:"measured_ms"`
	SimulatedMillis float64 `json:"simulated_ms"`
	// WithinBound reports the makespan reconciliation: measured within
	// [simulated/divergenceFactor, simulated*divergenceFactor +
	// divergenceSlack]. Outside that bound the cost model and reality
	// have diverged.
	WithinBound bool `json:"within_bound"`
	// Stages is the per-stage measured-vs-simulated breakdown.
	Stages []TransportStage `json:"stages"`
}

// TransportStage is one stage's measured wall time against its simulated
// makespan.
type TransportStage struct {
	Name            string  `json:"name"`
	MeasuredMillis  float64 `json:"measured_ms"`
	SimulatedMillis float64 `json:"simulated_ms"`
}

// Makespan-reconciliation bound: measured total wall within this factor of
// the simulated total, plus a flat slack for process startup and barrier
// overhead at sub-millisecond stage sizes.
const (
	divergenceFactor = 25.0
	divergenceSlack  = 250 * time.Millisecond
)

// TransportConfig parameterises the sweep.
type TransportConfig struct {
	// Spawn brings up worker processes; nil defaults to
	// transport.Subprocess (the caller's binary must route through
	// transport.MaybeWorker). Tests pass transport.InProcess so worker
	// code runs under -race and -cover.
	Spawn transport.SpawnFunc
	// WorkerCounts are the process counts swept; nil means {1, 2, 4}.
	WorkerCounts []int
	// Seeds are the data/fault seeds swept; nil means {1, 2, 3}.
	Seeds []int64
}

// Transport sweeps the multi-process backend over worker counts, seeds,
// and chaos on/off, differencing every run against the in-process
// simulator. It is the harness twin of transport.TestTransportEquivalence:
// byte-identical output, exact fault reconciliation, and bounded
// measured-vs-simulated makespan divergence.
func Transport(s Scale, cfg TransportConfig) ([]TransportRow, error) {
	counts := cfg.WorkerCounts
	if counts == nil {
		counts = []int{1, 2, 4}
	}
	seeds := cfg.Seeds
	if seeds == nil {
		seeds = []int64{1, 2, 3}
	}
	n := s.N
	if n > 4000 {
		n = 4000 // wire roundtrips per point: keep the sweep snappy
	}
	var rows []TransportRow
	for _, seed := range seeds {
		pts := datagen.Moons(n, 0.05, seed)
		ccfg := core.Config{
			Eps: 0.1, MinPts: minPtsFor(s, n), Rho: s.Rho,
			NumPartitions: 8, Seed: seed,
		}
		ref, err := core.Run(pts, ccfg, engine.New(4))
		if err != nil {
			return nil, fmt.Errorf("transport: reference run seed %d: %w", seed, err)
		}
		for _, w := range counts {
			for _, chaosOn := range []bool{false, true} {
				row, err := transportRun(pts, ccfg, ref, w, seed, chaosOn, cfg.Spawn)
				if err != nil {
					return nil, err
				}
				rows = append(rows, *row)
			}
		}
	}
	return rows, nil
}

// minPtsFor scales MinPts the way the efficiency experiments do.
func minPtsFor(s Scale, n int) int {
	if s.MinPts > 0 {
		return s.MinPts
	}
	return 10
}

// transportRun executes one proc-backend run and differences it against
// the reference result.
func transportRun(pts *geom.Points, ccfg core.Config, ref *core.Result,
	workers int, seed int64, chaosOn bool, spawn transport.SpawnFunc) (*TransportRow, error) {
	cl := engine.New(workers)
	opts := transport.Options{Spawn: spawn}
	var inj *chaos.Injector
	if chaosOn {
		var err error
		inj, err = chaos.New(chaos.Config{
			Seed: seed, FailProb: 0.05, CorruptProb: 0.05, KillProb: 0.05,
		})
		if err != nil {
			return nil, err
		}
		cl.Injector = inj
		opts.Injector = inj
		opts.Killer = inj
	}
	tr, err := transport.NewProc(workers, opts)
	if err != nil {
		return nil, fmt.Errorf("transport: spawn %d workers: %w", workers, err)
	}
	defer tr.Close()
	tr.Bind(cl)
	res, err := core.Run(pts, ccfg, cl)
	if err != nil {
		return nil, fmt.Errorf("transport: proc run (workers=%d seed=%d chaos=%v): %w",
			workers, seed, chaosOn, err)
	}
	row := &TransportRow{
		Workers: workers, Seed: seed, ChaosOn: chaosOn,
		Identical: identicalResults(ref, res),
	}
	rep := cl.Report()
	var faults engine.FaultStats
	var measured, simulated time.Duration
	for _, st := range rep.Stages {
		faults.Add(st.Faults)
		measured += st.Wall
		simulated += st.Makespan(rep.Workers)
		row.Stages = append(row.Stages, TransportStage{
			Name:            st.Name,
			MeasuredMillis:  float64(st.Wall.Microseconds()) / 1e3,
			SimulatedMillis: float64(st.Makespan(rep.Workers).Microseconds()) / 1e3,
		})
	}
	row.InjectedFailures = faults.InjectedFailures
	row.ChecksumRejects = faults.ChecksumRejects
	row.WorkerKills = faults.WorkerKills
	row.MeasuredMillis = float64(measured.Microseconds()) / 1e3
	row.SimulatedMillis = float64(simulated.Microseconds()) / 1e3
	row.WithinBound = measured <= time.Duration(float64(simulated)*divergenceFactor)+divergenceSlack &&
		float64(measured) >= float64(simulated)/divergenceFactor
	if chaosOn {
		st := inj.Stats()
		row.Accounted = st.Failures == faults.InjectedFailures &&
			st.Corruptions == faults.ChecksumRejects &&
			st.Kills == faults.WorkerKills
	} else {
		row.Accounted = faults.IsZero()
	}
	return row, nil
}

// identicalResults compares the full observable clustering output.
func identicalResults(a, b *core.Result) bool {
	if a.NumClusters != b.NumClusters || a.NumCells != b.NumCells ||
		a.DictBytes != b.DictBytes || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] || a.CorePoint[i] != b.CorePoint[i] {
			return false
		}
	}
	return true
}
