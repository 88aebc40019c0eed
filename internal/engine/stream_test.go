package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamStageRunsAllTasks: every pulled task body runs exactly once
// (absent chaos) and the stage records one cost per task.
func TestStreamStageRunsAllTasks(t *testing.T) {
	c := New(4)
	const n = 37
	var mu sync.Mutex
	ran := make(map[int]int)
	s, err := c.StreamStage("I-1", "stream-test", func(task int) (func(int), error) {
		if task >= n {
			return nil, nil
		}
		return func(int) {
			mu.Lock()
			ran[task]++
			mu.Unlock()
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Costs) != n {
		t.Fatalf("recorded %d costs, want %d", len(s.Costs), n)
	}
	if len(ran) != n {
		t.Fatalf("ran %d distinct tasks, want %d", len(ran), n)
	}
	for i, times := range ran {
		if times != 1 {
			t.Fatalf("task %d ran %d times", i, times)
		}
	}
	if got := c.Report().Stage("stream-test"); got == nil {
		t.Fatal("stage missing from report")
	}
}

// TestStreamStagePullIsSerial: pull must never run concurrently with
// itself, and task indices arrive in order — the contract that lets a
// sequential reader live inside pull without locks.
func TestStreamStagePullIsSerial(t *testing.T) {
	c := New(8)
	var inPull atomic.Int32
	lastTask := -1
	_, err := c.StreamStage("I-1", "serial-pull", func(task int) (func(int), error) {
		if inPull.Add(1) != 1 {
			t.Error("pull re-entered concurrently")
		}
		defer inPull.Add(-1)
		if task != lastTask+1 {
			t.Errorf("pull task %d after %d", task, lastTask)
		}
		lastTask = task
		if task >= 50 {
			return nil, nil
		}
		return func(int) { time.Sleep(time.Microsecond) }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamStagePullError: a pull error aborts the stage and is returned.
func TestStreamStagePullError(t *testing.T) {
	c := New(4)
	boom := errors.New("bad read")
	var bodies atomic.Int32
	s, err := c.StreamStage("I-1", "pull-error", func(task int) (func(int), error) {
		if task == 3 {
			return nil, boom
		}
		return func(int) { bodies.Add(1) }, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s == nil {
		t.Fatal("stats not returned on failure")
	}
	if got := bodies.Load(); got > 3 {
		t.Fatalf("%d bodies ran after the pull error position", got)
	}
}

// TestStreamStageRetriesInjectedFaults: injected attempt failures are
// retried (bodies re-run, so the count exceeds the task count) and the
// fault ledger records them; the stage still completes every task.
func TestStreamStageRetriesInjectedFaults(t *testing.T) {
	c := New(4)
	c.Injector = InjectorFunc(func(stage string, task, attempt int) bool {
		return task%3 == 0 && attempt == 0
	})
	const n = 20
	var mu sync.Mutex
	ran := make(map[int]bool)
	s, err := c.StreamStage("I-1", "faulty-stream", func(task int) (func(int), error) {
		if task >= n {
			return nil, nil
		}
		return func(int) {
			mu.Lock()
			ran[task] = true
			mu.Unlock()
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != n {
		t.Fatalf("completed %d tasks, want %d", len(ran), n)
	}
	wantFaults := int64(0)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			wantFaults++
		}
	}
	if s.Faults.InjectedFailures != wantFaults {
		t.Fatalf("ledger has %d injected failures, want %d", s.Faults.InjectedFailures, wantFaults)
	}
	if s.Retries != wantFaults {
		t.Fatalf("retries = %d, want %d", s.Retries, wantFaults)
	}
	if s.Faults.BackoffVirtual <= 0 {
		t.Fatal("no virtual backoff recorded")
	}
}

// TestStreamStageExhaustedRetriesReturnsError: unlike RunStage (which
// panics), a stream task that fails every attempt returns an error.
func TestStreamStageExhaustedRetriesReturnsError(t *testing.T) {
	c := New(2)
	c.MaxTaskRetries = 1
	_, err := c.StreamStage("I-1", "always-fails", func(task int) (func(int), error) {
		if task >= 4 {
			return nil, nil
		}
		return func(int) {
			if task == 2 {
				panic(fmt.Sprintf("task %d is cursed", task))
			}
		}, nil
	})
	if err == nil {
		t.Fatal("exhausted retries did not surface as an error")
	}
}

// TestStreamStageEmptyStream: an immediately-ending stream records an
// empty stage and no error.
func TestStreamStageEmptyStream(t *testing.T) {
	c := New(4)
	s, err := c.StreamStage("I-1", "empty", func(task int) (func(int), error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Costs) != 0 {
		t.Fatalf("empty stream recorded %d costs", len(s.Costs))
	}
}

// TestStreamStageStragglers: TaskDelay inflates stream task costs and the
// speculation machinery engages, mirroring RunStage behavior.
func TestStreamStageStragglers(t *testing.T) {
	c := New(4)
	delay := 50 * time.Millisecond
	c.Injector = stragglerInjector{delay: delay}
	s, err := c.StreamStage("I-1", "straggling-stream", func(task int) (func(int), error) {
		if task >= 8 {
			return nil, nil
		}
		return func(int) {}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults.StragglerDelay != time.Duration(8)*delay {
		t.Fatalf("straggler ledger %v, want %v", s.Faults.StragglerDelay, 8*delay)
	}
	if s.Faults.SpeculativeLaunches == 0 {
		t.Fatal("no speculative copies launched for heavy stragglers")
	}
}

// stragglerInjector inflates every task by a fixed delay.
type stragglerInjector struct{ delay time.Duration }

func (s stragglerInjector) FailTask(string, int, int) bool          { return false }
func (s stragglerInjector) TaskDelay(string, int) time.Duration     { return s.delay }
func (s stragglerInjector) CorruptFetch(string, int, int, int) bool { return false }
