package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// StreamStage executes a stage whose tasks are discovered one at a time by
// draining a sequential source — the shape of an out-of-core ingestion
// stage, where the task count (number of chunks) is unknown until the
// stream ends.
//
// pull is invoked serially (under a stage-internal lock, so a sequential
// reader needs no synchronisation of its own) with the next task index; it
// returns the task body, or nil at the clean end of the stream, or an
// error that aborts the stage. The body receives the zero-based attempt
// number, as in RunStageAttempts, so a remote body can key the
// deterministic chaos schedule with it. Bodies run concurrently on the
// cluster's pool with full RunStage parity: injected failures are retried with
// virtual backoff, stragglers are inflated and speculated, and each task's
// recorded cost includes its share of the serial pull (the read is part of
// the ingestion work the makespan must account).
//
// Bodies must be idempotent: retries and speculative copies re-run them,
// exactly as in RunStage. Unlike RunStage, a task that exhausts its retry
// budget surfaces as a returned error rather than a panic — out-of-core
// ingestion has legitimate runtime failures (disk full, unreadable spill)
// that callers must be able to handle.
func (c *Cluster) StreamStage(phase, name string, pull func(task int) (func(attempt int), error)) (*StageStats, error) {
	s := &StageStats{Name: name, Phase: phase}
	mem0 := readAllocs()
	start := time.Now()
	if c.Sink != nil {
		c.emit(Event{Kind: EventStageStart, Stage: name, Phase: phase, Task: -1, Time: start})
	}
	par := c.Parallelism
	if par < 1 {
		par = 1
	}
	acc := &faultAccum{stage: name}
	c.cur.Store(acc)
	defer c.cur.Store(nil)
	var (
		pullMu  sync.Mutex // serialises pull and task numbering
		next    int
		done    bool
		pullErr error

		costsMu sync.Mutex
		costs   []time.Duration

		retries atomic.Int64
		failure atomic.Value // first exhausted-retries failure, if any
		wg      sync.WaitGroup
	)
	record := func(i int, d time.Duration) {
		costsMu.Lock()
		for len(costs) <= i {
			costs = append(costs, 0)
		}
		costs[i] = d
		costsMu.Unlock()
	}
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for failure.Load() == nil {
				pullMu.Lock()
				if done || pullErr != nil {
					pullMu.Unlock()
					return
				}
				i := next
				t0 := time.Now()
				fn, err := pull(i)
				pullCost := time.Since(t0)
				if err != nil {
					pullErr = err
					pullMu.Unlock()
					return
				}
				if fn == nil {
					done = true
					pullMu.Unlock()
					return
				}
				next++
				pullMu.Unlock()
				if c.Sink != nil {
					c.emit(Event{Kind: EventTaskStart, Stage: name, Phase: phase, Task: i, Time: t0})
				}
				body := func(_, attempt int) { fn(attempt) }
				t1 := time.Now()
				attempt, backoff, err := c.runWithRetry(phase, name, i, body, &retries, acc)
				if err != nil {
					failure.CompareAndSwap(nil, err)
					return
				}
				cost := pullCost + time.Since(t1) + backoff
				if inj := c.Injector; inj != nil {
					if d := inj.TaskDelay(name, i); d > 0 {
						acc.straggler.Add(int64(d))
						cost = c.speculate(phase, name, i, cost, d, acc, body)
					}
				}
				record(i, cost)
				if c.Sink != nil {
					c.emit(Event{Kind: EventTaskEnd, Stage: name, Phase: phase, Task: i,
						Attempt: attempt, Time: time.Now(), Duration: cost})
				}
			}
		}()
	}
	wg.Wait()
	s.Costs = costs
	s.Wall = time.Since(start)
	s.Retries = retries.Load()
	s.Faults = acc.stats()
	s.setAllocDelta(mem0)
	if c.Sink != nil {
		c.emit(Event{Kind: EventStageEnd, Stage: name, Phase: phase, Task: -1,
			Time: time.Now(), Duration: s.Wall})
	}
	// The stage is recorded even on failure: a chaos post-mortem needs the
	// partial cost and fault ledger of an aborted ingestion.
	c.append(s)
	if f := failure.Load(); f != nil {
		return s, f.(error)
	}
	if pullErr != nil {
		return s, pullErr
	}
	return s, nil
}
