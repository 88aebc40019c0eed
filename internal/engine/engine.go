// Package engine provides the parallel execution substrate that stands in
// for Apache Spark in the original RP-DBSCAN system. A Cluster executes
// stages of independent tasks on a bounded goroutine pool, measures every
// task's cost, and computes the makespan those costs would have on a
// virtual cluster of W workers using the same greedy in-order scheduling a
// MapReduce scheduler applies.
//
// The virtual-cluster makespan is what the experiment harness reports as
// "elapsed time": it reproduces the quantities the paper measures (per-split
// elapsed time, slowest/fastest load imbalance, speed-up versus cores)
// deterministically, independent of how many physical cores this machine
// has. Real wall-clock time is also recorded per stage.
package engine

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// StageStats records the measured execution of one stage: the per-task
// costs plus the real wall-clock duration of the stage.
type StageStats struct {
	// Name identifies the stage (e.g. "core-marking").
	Name string
	// Phase groups stages for breakdown reporting (e.g. "I-1", "II").
	Phase string
	// Costs holds the measured duration of each task.
	Costs []time.Duration
	// Wall is the real elapsed time of the whole stage.
	Wall time.Duration
	// Bytes optionally accounts payload size (broadcasts, shuffles).
	Bytes int64
	// Retries counts failed task attempts that were re-executed (panics
	// and injected faults).
	Retries int64
	// AllocDelta is the growth of cumulative heap allocation across the
	// stage, in bytes: runtime.MemStats.TotalAlloc's meaning, read from
	// runtime/metrics (see readAllocs). It is a process-wide measure:
	// concurrent allocation outside the stage is attributed to it too.
	AllocDelta int64
	// MallocDelta is the growth of the cumulative heap allocation count
	// across the stage, tiny allocations included (runtime.MemStats.Mallocs'
	// meaning) — the allocs/op numerator for stage-level benchmark
	// reporting. Process-wide, like AllocDelta.
	MallocDelta int64
	// Faults accounts everything the fault injector did to this stage and
	// how the scheduler responded. All zero when no Injector is installed.
	Faults FaultStats
	// TaskWorkers holds, per task, the index of the remote worker process
	// that served the task's successful attempt, or -1 when the task ran
	// in-process. Nil for stages executed without a Transport.
	TaskWorkers []int32
}

// FaultStats records, per stage, the injected faults and the scheduler's
// responses: it is the ledger the chaos harness reconciles against the
// injector's own accounting ("every injected failure accounted for").
type FaultStats struct {
	// InjectedFailures counts task attempts failed by the Injector.
	InjectedFailures int64
	// BackoffVirtual is the summed virtual retry backoff added to task
	// costs (exponential with deterministic jitter; never slept for real).
	// It includes re-transfer backoff after checksum rejections.
	BackoffVirtual time.Duration
	// StragglerDelay is the summed virtual cost inflation injected into
	// straggler tasks.
	StragglerDelay time.Duration
	// SpeculativeLaunches counts speculative task copies launched for
	// stragglers; SpeculativeWins counts those that finished (in virtual
	// time) before the straggling original.
	SpeculativeLaunches int64
	SpeculativeWins     int64
	// ChecksumRejects counts corrupted payload chunks detected (and
	// re-fetched) via per-chunk checksums.
	ChecksumRejects int64
	// WorkerKills counts worker processes killed under the attempt's feet
	// by process-level chaos (multi-process transport only; the simulator
	// has no processes to kill). Each kill fails the in-flight attempt,
	// which is retried on a respawned or surviving worker.
	WorkerKills int64
}

// IsZero reports whether no fault activity was recorded.
func (f FaultStats) IsZero() bool { return f == FaultStats{} }

// Add accumulates o into f (used for report-level totals).
func (f *FaultStats) Add(o FaultStats) {
	f.InjectedFailures += o.InjectedFailures
	f.BackoffVirtual += o.BackoffVirtual
	f.StragglerDelay += o.StragglerDelay
	f.SpeculativeLaunches += o.SpeculativeLaunches
	f.SpeculativeWins += o.SpeculativeWins
	f.ChecksumRejects += o.ChecksumRejects
	f.WorkerKills += o.WorkerKills
}

// Total returns the sum of all task costs.
func (s *StageStats) Total() time.Duration {
	var t time.Duration
	for _, c := range s.Costs {
		t += c
	}
	return t
}

// Max returns the largest task cost, or 0 for an empty stage.
func (s *StageStats) Max() time.Duration {
	var m time.Duration
	for _, c := range s.Costs {
		if c > m {
			m = c
		}
	}
	return m
}

// Min returns the smallest task cost, or 0 for an empty stage.
func (s *StageStats) Min() time.Duration {
	if len(s.Costs) == 0 {
		return 0
	}
	m := s.Costs[0]
	for _, c := range s.Costs[1:] {
		if c < m {
			m = c
		}
	}
	return m
}

// Imbalance returns the slowest/fastest task-cost ratio, the load-imbalance
// metric of Section 7.3.1. A stage with fewer than two tasks, or a zero
// fastest task, reports 1.
func (s *StageStats) Imbalance() float64 {
	if len(s.Costs) < 2 {
		return 1
	}
	min, max := s.Min(), s.Max()
	if min <= 0 {
		return 1
	}
	return float64(max) / float64(min)
}

// Makespan returns the completion time of the stage on a virtual cluster of
// w workers under greedy in-order scheduling: each task is assigned, in
// submission order, to the worker that frees up first.
func (s *StageStats) Makespan(w int) time.Duration {
	if w < 1 {
		w = 1
	}
	if len(s.Costs) == 0 {
		return 0
	}
	free := make([]time.Duration, w) // min-heap by free time
	for _, c := range s.Costs {
		// Pop the earliest-free worker (index 0 after sift).
		siftDown(free)
		free[0] += c
	}
	var m time.Duration
	for _, f := range free {
		if f > m {
			m = f
		}
	}
	return m
}

// siftDown restores the min at free[0] for the tiny worker heap. Worker
// counts are small (tens), so an O(w) scan-and-swap is simpler and fast.
func siftDown(free []time.Duration) {
	mi := 0
	for i := 1; i < len(free); i++ {
		if free[i] < free[mi] {
			mi = i
		}
	}
	free[0], free[mi] = free[mi], free[0]
}

// Report collects the ordered stages of one algorithm run.
type Report struct {
	// Workers is the virtual worker count used for simulated totals.
	Workers int
	Stages  []*StageStats
}

// SimulatedElapsed returns the total simulated elapsed time: the sum over
// stages of their makespan on the report's virtual cluster. Stages run one
// after another, as MapReduce stages are barrier-separated.
func (r *Report) SimulatedElapsed() time.Duration {
	var t time.Duration
	for _, s := range r.Stages {
		t += s.Makespan(r.Workers)
	}
	return t
}

// WallElapsed returns the summed real wall time of all stages.
func (r *Report) WallElapsed() time.Duration {
	var t time.Duration
	for _, s := range r.Stages {
		t += s.Wall
	}
	return t
}

// PhaseBreakdown returns the simulated elapsed time grouped by phase label,
// plus the phase order of first appearance.
func (r *Report) PhaseBreakdown() (map[string]time.Duration, []string) {
	m := make(map[string]time.Duration)
	var order []string
	for _, s := range r.Stages {
		if _, ok := m[s.Phase]; !ok {
			order = append(order, s.Phase)
		}
		m[s.Phase] += s.Makespan(r.Workers)
	}
	return m, order
}

// PhaseSummary aggregates the stages of one phase label: the rollup the
// observability snapshot renders (per-phase wall clock, simulated makespan,
// payload bytes, retries, allocation growth, and the fault ledger).
type PhaseSummary struct {
	// Phase is the shared phase label (e.g. "I-1", "II").
	Phase string
	// Stages and Tasks count the stages and tasks grouped under the phase.
	Stages int
	Tasks  int
	// Wall is the summed real wall time; Simulated the summed virtual
	// makespan on the report's worker count.
	Wall      time.Duration
	Simulated time.Duration
	// Bytes sums the accounted payload sizes of the phase's stages.
	Bytes int64
	// Retries sums re-executed task attempts.
	Retries int64
	// AllocDelta and MallocDelta sum the stages' heap-growth accounting.
	AllocDelta  int64
	MallocDelta int64
	// Faults is the phase's combined fault ledger.
	Faults FaultStats
}

// PhaseSummaries rolls the report's stages up by phase label, in order of
// first appearance. It is the single aggregation behind the obs.Snapshot
// phase table and the /metrics phase gauges.
func (r *Report) PhaseSummaries() []PhaseSummary {
	idx := make(map[string]int)
	var out []PhaseSummary
	for _, s := range r.Stages {
		i, ok := idx[s.Phase]
		if !ok {
			i = len(out)
			idx[s.Phase] = i
			out = append(out, PhaseSummary{Phase: s.Phase})
		}
		p := &out[i]
		p.Stages++
		p.Tasks += len(s.Costs)
		p.Wall += s.Wall
		p.Simulated += s.Makespan(r.Workers)
		p.Bytes += s.Bytes
		p.Retries += s.Retries
		p.AllocDelta += s.AllocDelta
		p.MallocDelta += s.MallocDelta
		p.Faults.Add(s.Faults)
	}
	return out
}

// Stage returns the first stage with the given name, or nil.
func (r *Report) Stage(name string) *StageStats {
	for _, s := range r.Stages {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// TotalFaults sums the per-stage fault ledgers. A fault-free run returns
// the zero FaultStats.
func (r *Report) TotalFaults() FaultStats {
	var t FaultStats
	for _, s := range r.Stages {
		t.Add(s.Faults)
	}
	return t
}

// MergeOf combines the stage lists of several reports in order (used when
// an algorithm run is assembled from sub-runs).
func MergeOf(workers int, reports ...*Report) *Report {
	out := &Report{Workers: workers}
	for _, r := range reports {
		out.Stages = append(out.Stages, r.Stages...)
	}
	return out
}

// String formats the report as a per-stage table. Broadcast/shuffle
// payload sizes and retry counts are appended only for stages that have
// them.
func (r *Report) String() string {
	out := fmt.Sprintf("report (workers=%d, simulated=%v):\n", r.Workers, r.SimulatedElapsed())
	for _, s := range r.Stages {
		out += fmt.Sprintf("  [%-5s] %-28s tasks=%-4d total=%-12v makespan=%-12v imbalance=%.2f",
			s.Phase, s.Name, len(s.Costs), s.Total(), s.Makespan(r.Workers), s.Imbalance())
		if s.Bytes > 0 {
			out += fmt.Sprintf(" bytes=%d", s.Bytes)
		}
		if s.Retries > 0 {
			out += fmt.Sprintf(" retries=%d", s.Retries)
		}
		if f := s.Faults; !f.IsZero() {
			out += fmt.Sprintf(" faults[inj=%d cksum=%d kill=%d spec=%d/%d backoff=%v straggle=%v]",
				f.InjectedFailures, f.ChecksumRejects, f.WorkerKills, f.SpeculativeLaunches, f.SpeculativeWins,
				f.BackoffVirtual.Round(time.Microsecond), f.StragglerDelay.Round(time.Microsecond))
		}
		out += "\n"
	}
	return out
}

// Cluster executes stages and accumulates a Report. It is safe for a single
// run at a time (stages execute sequentially, tasks within a stage in
// parallel).
type Cluster struct {
	// Workers is the virtual worker count (the "cores" of the paper's
	// scalability experiments).
	Workers int
	// Executors is the number of worker machines: broadcast payloads are
	// loaded once per executor, not once per task, as on Spark. Zero
	// defaults to ceil(Workers/4), matching the paper's 4-core nodes.
	Executors int
	// Parallelism bounds the real goroutines a stage runs its tasks on;
	// New sets it to GOMAXPROCS. It changes wall time only: task results,
	// and so every output, are independent of it. A caller that shares
	// the process with latency-sensitive goroutines can lower it to leave
	// them a P (the online refitter runs GOMAXPROCS-1 while it serves).
	Parallelism int
	// MaxTaskRetries is how many times a panicking task is re-executed
	// before the panic propagates, mirroring Spark's task re-execution.
	// Zero defaults to 2.
	MaxTaskRetries int
	// Injector, when set, is consulted at every fault-injection point:
	// before each task attempt (FailTask), after each task completes
	// (TaskDelay, straggler inflation), and per chunk of a checksummed
	// payload transfer (CorruptFetch). Nil disables all chaos machinery
	// at the cost of one nil check per site; see internal/chaos for the
	// seed-driven implementation.
	Injector Injector
	// RetryBackoffBase is the virtual backoff before re-executing a
	// failed attempt: attempt a waits base<<a scaled by a deterministic
	// jitter in [0.5,1.5) derived from (stage, task, attempt). The wait
	// is virtual time — added to the task's recorded cost (and so to the
	// simulated makespan), never slept — which keeps chaos runs
	// reproducible. Zero defaults to 5ms; negative disables backoff.
	RetryBackoffBase time.Duration
	// RetryBackoffMax caps a single backoff wait. Zero defaults to 1s.
	RetryBackoffMax time.Duration
	// SpeculationFactor controls speculative re-execution of stragglers:
	// a task whose virtual cost (measured + injected delay) reaches
	// factor x its measured cost gets a speculative copy, launched (in
	// virtual time) at the detection threshold; the first finisher wins.
	// Zero defaults to 2; negative disables speculation. Only injected
	// stragglers are speculated — without an Injector nothing straggles
	// by more than its real measured cost.
	SpeculationFactor float64
	// Sink, when set, receives per-task span events (start, end, retry,
	// fault, broadcast). Nil disables emission at the cost of one nil
	// check per event site.
	Sink EventSink
	// Transport, when set, is the backend remote stages execute on (see
	// RunStageRemote and PushStage). Nil keeps every stage in-process on
	// the virtual-cluster simulator — the default, unchanged behavior.
	Transport Transport

	mu     sync.Mutex
	report Report
	// cur points at the running stage's fault accumulator so that
	// Fetch — called from inside task bodies — can attribute checksum
	// rejections and re-transfer backoff to the right stage and task.
	cur atomic.Pointer[faultAccum]
}

// Injector is the fault-injection hook the cluster consults when one is
// installed. Implementations must be deterministic pure functions of their
// arguments (plus an internal seed): the same schedule must replay across
// runs, goroutine interleavings, and worker counts, or chaos failures
// become unreproducible. Implementations must also be safe for concurrent
// use and must bound per-task injections below the retry budget
// (MaxTaskRetries) so injection alone can never exhaust it.
type Injector interface {
	// FailTask reports whether attempt `attempt` of task `task` in stage
	// `stage` should fail with an injected error.
	FailTask(stage string, task, attempt int) bool
	// TaskDelay returns extra virtual time added to the task's recorded
	// cost, simulating a straggler. Consulted once per task, after its
	// successful attempt. Zero means no inflation.
	TaskDelay(stage string, task int) time.Duration
	// CorruptFetch reports whether the transfer of chunk `chunk` of a
	// checksummed payload to task `task` should be corrupted on attempt
	// `attempt`. The engine flips a byte in the transferred copy, so the
	// corruption must be caught by the per-chunk checksum.
	CorruptFetch(stage string, task, attempt, chunk int) bool
}

// InjectorFunc adapts a plain attempt-failure predicate (the historical
// FaultInjector shape) to the Injector interface: failures only, no
// stragglers, no corruption.
type InjectorFunc func(stage string, task, attempt int) bool

// FailTask implements Injector.
func (f InjectorFunc) FailTask(stage string, task, attempt int) bool { return f(stage, task, attempt) }

// TaskDelay implements Injector; it never inflates.
func (f InjectorFunc) TaskDelay(string, int) time.Duration { return 0 }

// CorruptFetch implements Injector; it never corrupts.
func (f InjectorFunc) CorruptFetch(string, int, int, int) bool { return false }

// faultAccum is the concurrent accumulator behind a stage's FaultStats.
type faultAccum struct {
	stage                                         string
	injected, rejects, specLaunch, specWin, kills atomic.Int64
	backoff, straggler                            atomic.Int64 // ns
	// extra holds, per task, virtual ns added by Fetch (re-transfer
	// backoff after checksum rejections) to fold into the task's cost.
	extra []atomic.Int64
	// workers holds, per task, 1 + the index of the remote worker that
	// served the successful attempt (0 = not recorded / local execution).
	// Written by the transport via ChargeWorkerTask from inside task
	// bodies; disjoint slots, so plain stores race with nothing.
	workers []atomic.Int32
}

// stats snapshots the accumulator into a FaultStats.
func (a *faultAccum) stats() FaultStats {
	return FaultStats{
		InjectedFailures:    a.injected.Load(),
		BackoffVirtual:      time.Duration(a.backoff.Load()),
		StragglerDelay:      time.Duration(a.straggler.Load()),
		SpeculativeLaunches: a.specLaunch.Load(),
		SpeculativeWins:     a.specWin.Load(),
		ChecksumRejects:     a.rejects.Load(),
		WorkerKills:         a.kills.Load(),
	}
}

// allocMetrics names the runtime/metrics counters behind AllocDelta and
// MallocDelta. runtime.ReadMemStats would give the same numbers but stops
// the world, twice per stage, which stalls every goroutine in the process —
// a server's request handlers included while a refit runs beside them.
var allocMetrics = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
}

// allocCounts is one reading of the process's cumulative heap allocation.
type allocCounts struct {
	bytes   uint64 // MemStats.TotalAlloc
	objects uint64 // MemStats.Mallocs: heap objects plus tiny allocations
}

// readAllocs samples the cumulative allocation counters without stopping
// the world.
func readAllocs() allocCounts {
	var s [len(allocMetrics)]metrics.Sample
	for i, name := range allocMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return allocCounts{
		bytes:   s[0].Value.Uint64(),
		objects: s[1].Value.Uint64() + s[2].Value.Uint64(),
	}
}

// setAllocDelta records the allocation growth since mem0.
func (s *StageStats) setAllocDelta(mem0 allocCounts) {
	mem1 := readAllocs()
	s.AllocDelta = int64(mem1.bytes - mem0.bytes)
	s.MallocDelta = int64(mem1.objects - mem0.objects)
}

// New returns a cluster simulating w virtual workers.
func New(w int) *Cluster {
	return &Cluster{Workers: w, Parallelism: runtime.GOMAXPROCS(0)}
}

// ExecutorCount resolves the effective executor count.
func (c *Cluster) ExecutorCount() int {
	if c.Executors > 0 {
		return c.Executors
	}
	e := (c.Workers + 3) / 4
	if e < 1 {
		e = 1
	}
	return e
}

// Report returns the accumulated report. The stage list is copied so the
// returned Report is not aliased by stages appended later; the StageStats
// themselves are shared (they are immutable once appended).
func (c *Cluster) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := Report{
		Workers: c.Workers,
		Stages:  append([]*StageStats(nil), c.report.Stages...),
	}
	return &rep
}

// Reset clears the accumulated report.
func (c *Cluster) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.report = Report{}
}

// RunStage executes n independent tasks, measuring each, and appends the
// stage to the report. fn is called with task indices 0..n-1, possibly
// concurrently from multiple goroutines.
func (c *Cluster) RunStage(phase, name string, n int, fn func(task int)) *StageStats {
	return c.RunStageAttempts(phase, name, n, func(task, _ int) { fn(task) })
}

// RunStageAttempts is RunStage for task bodies that need the zero-based
// attempt number — the remote-execution path, where the attempt index keys
// the deterministic chaos schedule for wire corruption and worker kills. A
// speculative re-execution of a straggler is passed an attempt beyond the
// retry budget (MaxTaskRetries+1), which deterministic injectors bounded by
// MaxFaultsPerTask treat as a healthy node and never fault.
func (c *Cluster) RunStageAttempts(phase, name string, n int, fn func(task, attempt int)) *StageStats {
	s := &StageStats{Name: name, Phase: phase, Costs: make([]time.Duration, n)}
	mem0 := readAllocs()
	start := time.Now()
	if c.Sink != nil {
		c.emit(Event{Kind: EventStageStart, Stage: name, Phase: phase, Task: -1, Time: start})
	}
	par := c.Parallelism
	if par < 1 {
		par = 1
	}
	if par > n {
		par = n
	}
	acc := &faultAccum{stage: name, extra: make([]atomic.Int64, n)}
	if c.Transport != nil {
		acc.workers = make([]atomic.Int32, n)
	}
	c.cur.Store(acc)
	defer c.cur.Store(nil)
	var next, retries atomic.Int64
	var wg sync.WaitGroup
	var failure atomic.Value // first exhausted-retries failure, if any
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failure.Load() != nil {
					return
				}
				// Emit before taking the clock: sink time is telemetry, not
				// task work, and must not land in the recorded cost.
				if c.Sink != nil {
					c.emit(Event{Kind: EventTaskStart, Stage: name, Phase: phase, Task: i, Time: time.Now()})
				}
				t0 := time.Now()
				attempt, backoff, err := c.runWithRetry(phase, name, i, fn, &retries, acc)
				if err != nil {
					failure.CompareAndSwap(nil, err)
					return
				}
				// The recorded cost is the measured real time plus the
				// virtual delays chaos added: retry backoff and any
				// re-transfer backoff Fetch charged to this task.
				cost := time.Since(t0) + backoff + time.Duration(acc.extra[i].Load())
				if inj := c.Injector; inj != nil {
					if d := inj.TaskDelay(name, i); d > 0 {
						acc.straggler.Add(int64(d))
						cost = c.speculate(phase, name, i, cost, d, acc, fn)
					}
				}
				s.Costs[i] = cost
				if c.Sink != nil {
					c.emit(Event{Kind: EventTaskEnd, Stage: name, Phase: phase, Task: i,
						Attempt: attempt, Time: time.Now(), Duration: s.Costs[i]})
				}
			}
		}()
	}
	wg.Wait()
	if f := failure.Load(); f != nil {
		// Exhausted retries mean a real bug; surface it loudly on the
		// caller's goroutine.
		panic(f)
	}
	s.Wall = time.Since(start)
	s.Retries = retries.Load()
	s.Faults = acc.stats()
	if acc.workers != nil {
		s.TaskWorkers = make([]int32, n)
		for i := range s.TaskWorkers {
			s.TaskWorkers[i] = acc.workers[i].Load() - 1
		}
	}
	s.setAllocDelta(mem0)
	if c.Sink != nil {
		c.emit(Event{Kind: EventStageEnd, Stage: name, Phase: phase, Task: -1,
			Time: time.Now(), Duration: s.Wall})
	}
	c.append(s)
	return s
}

// runWithRetry executes task i, re-running it after a panic up to
// MaxTaskRetries times, the way a MapReduce scheduler re-executes failed
// tasks. Tasks must therefore be idempotent (every stage in this codebase
// writes only to its own task's slot). It returns the attempt that
// succeeded plus the summed virtual backoff the retries waited, or a
// non-nil error only when retries are exhausted; RunStage turns that into
// a panic on the caller's goroutine. Each failed attempt that will be
// re-executed increments retryCount, accrues a deterministic exponential
// backoff (virtual time), and emits an EventTaskRetry carrying it.
func (c *Cluster) runWithRetry(phase, stage string, i int, fn func(int, int), retryCount *atomic.Int64, acc *faultAccum) (int, time.Duration, error) {
	retries := c.MaxTaskRetries
	if retries <= 0 {
		retries = 2
	}
	var err error
	var backoff time.Duration
	for attempt := 0; attempt <= retries; attempt++ {
		if err = c.attempt(phase, stage, i, attempt, fn, acc); err == nil {
			return attempt, backoff, nil
		}
		if attempt < retries {
			retryCount.Add(1)
			wait := c.backoffFor(stage, i, attempt)
			backoff += wait
			acc.backoff.Add(int64(wait))
			if c.Sink != nil {
				c.emit(Event{Kind: EventTaskRetry, Stage: stage, Phase: phase, Task: i,
					Attempt: attempt, Time: time.Now(), Duration: wait, Err: err})
			}
		}
	}
	return 0, 0, fmt.Errorf("engine: stage %q task %d failed after %d attempts: %w",
		stage, i, retries+1, err)
}

func (c *Cluster) attempt(phase, stage string, i, attempt int, fn func(int, int), acc *faultAccum) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panic: %v", r)
		}
	}()
	if inj := c.Injector; inj != nil && inj.FailTask(stage, i, attempt) {
		acc.injected.Add(1)
		err = fmt.Errorf("injected fault (attempt %d)", attempt)
		if c.Sink != nil {
			c.emit(Event{Kind: EventTaskFault, Stage: stage, Phase: phase, Task: i,
				Attempt: attempt, Time: time.Now(), Err: err})
		}
		return err
	}
	fn(i, attempt)
	return nil
}

// backoffFor computes the virtual wait before re-executing attempt
// `attempt` of a task: RetryBackoffBase << attempt, scaled by a
// deterministic jitter in [0.5, 1.5) hashed from (stage, task, attempt),
// capped at RetryBackoffMax. Being a pure function of its arguments, the
// same fault schedule always produces the same simulated makespan.
func (c *Cluster) backoffFor(stage string, task, attempt int) time.Duration {
	base := c.RetryBackoffBase
	if base == 0 {
		base = 5 * time.Millisecond
	}
	if base < 0 {
		return 0
	}
	max := c.RetryBackoffMax
	if max <= 0 {
		max = time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	d = time.Duration(float64(d) * (0.5 + hashFrac(stage, task, attempt)))
	if d > max {
		d = max
	}
	return d
}

// hashFrac maps (stage, a, b) to a deterministic fraction in [0, 1) via
// FNV-1a, the jitter source for retry backoff.
func hashFrac(stage string, a, b int) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(stage); i++ {
		h = (h ^ uint64(stage[i])) * prime64
	}
	for _, v := range [2]uint64{uint64(a), uint64(b)} {
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * prime64
		}
	}
	return float64(h>>11) / float64(1<<53)
}

// speculate models Spark's speculative execution for an injected straggler:
// the scheduler notices the task once it has run SpeculationFactor x its
// measured cost, launches a copy (really re-executing fn, which checks
// idempotence for free), and the first finisher in virtual time wins. The
// returned duration is the task's final virtual cost. The speculative copy
// runs on a "healthy node": the injector is not consulted for it, and a
// panicking copy simply loses to the original.
func (c *Cluster) speculate(phase, stage string, task int, measured, delay time.Duration, acc *faultAccum, fn func(int, int)) time.Duration {
	inflated := measured + delay
	factor := c.SpeculationFactor
	if factor == 0 {
		factor = 2
	}
	if factor < 0 {
		return inflated
	}
	threshold := time.Duration(float64(measured) * factor)
	if inflated < threshold {
		return inflated
	}
	acc.specLaunch.Add(1)
	if c.Sink != nil {
		c.emit(Event{Kind: EventSpecLaunch, Stage: stage, Phase: phase, Task: task,
			Time: time.Now(), Duration: inflated})
	}
	t0 := time.Now()
	// The speculative copy runs on a healthy node: its attempt index sits
	// beyond the retry budget, which bounded deterministic injectors never
	// fault (see RunStageAttempts).
	ok := runRecovered(fn, task, c.maxRetries()+1)
	copyCost := time.Since(t0)
	specFinish := threshold + copyCost
	if !ok || specFinish >= inflated {
		return inflated
	}
	acc.specWin.Add(1)
	if c.Sink != nil {
		c.emit(Event{Kind: EventSpecWin, Stage: stage, Phase: phase, Task: task,
			Time: time.Now(), Duration: specFinish})
	}
	return specFinish
}

// runRecovered executes fn(i, attempt), absorbing panics.
func runRecovered(fn func(int, int), i, attempt int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	fn(i, attempt)
	return true
}

// maxRetries resolves the effective retry budget.
func (c *Cluster) maxRetries() int {
	if c.MaxTaskRetries > 0 {
		return c.MaxTaskRetries
	}
	return 2
}

// Serial measures a single driver-side action as a one-task stage.
func (c *Cluster) Serial(phase, name string, fn func()) *StageStats {
	s := &StageStats{Name: name, Phase: phase}
	mem0 := readAllocs()
	t0 := time.Now()
	if c.Sink != nil {
		c.emit(Event{Kind: EventStageStart, Stage: name, Phase: phase, Task: -1, Time: t0})
	}
	fn()
	d := time.Since(t0)
	s.Costs = []time.Duration{d}
	s.Wall = d
	s.setAllocDelta(mem0)
	if c.Sink != nil {
		c.emit(Event{Kind: EventStageEnd, Stage: name, Phase: phase, Task: -1,
			Time: time.Now(), Duration: d})
	}
	c.append(s)
	return s
}

// Broadcast accounts a payload broadcast to every virtual worker and
// measures the driver-side cost of producing it. The per-worker load cost
// is measured where the payload is actually consumed (inside worker tasks).
func (c *Cluster) Broadcast(phase, name string, produce func() []byte) []byte {
	var payload []byte
	s := &StageStats{Name: name, Phase: phase}
	mem0 := readAllocs()
	t0 := time.Now()
	payload = produce()
	d := time.Since(t0)
	s.Costs = []time.Duration{d}
	s.Wall = d
	s.Bytes = int64(len(payload))
	s.setAllocDelta(mem0)
	if c.Sink != nil {
		c.emit(Event{Kind: EventBroadcast, Stage: name, Phase: phase, Task: -1,
			Time: time.Now(), Duration: d, Bytes: s.Bytes})
	}
	c.append(s)
	return payload
}

func (c *Cluster) append(s *StageStats) {
	c.mu.Lock()
	c.report.Stages = append(c.report.Stages, s)
	c.mu.Unlock()
}

// SpeedUp computes the ratio of simulated elapsed time at baseWorkers to
// that at each of the worker counts, for a fixed set of recorded stages.
// The paper's Figure 15 uses baseWorkers = 5.
func SpeedUp(r *Report, baseWorkers int, workerCounts []int) []float64 {
	base := remake(r, baseWorkers).SimulatedElapsed()
	out := make([]float64, len(workerCounts))
	for i, w := range workerCounts {
		e := remake(r, w).SimulatedElapsed()
		if e <= 0 {
			out[i] = 0
			continue
		}
		out[i] = float64(base) / float64(e)
	}
	return out
}

func remake(r *Report, w int) *Report {
	return &Report{Workers: w, Stages: r.Stages}
}

// SortedCosts returns a copy of the stage's task costs in ascending order
// (useful for percentile reporting in the harness).
func (s *StageStats) SortedCosts() []time.Duration {
	out := make([]time.Duration, len(s.Costs))
	copy(out, s.Costs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
