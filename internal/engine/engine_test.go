package engine

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"rpdbscan/internal/testutil"
)

func statsWith(costs ...time.Duration) *StageStats {
	return &StageStats{Name: "s", Phase: "p", Costs: costs}
}

func TestStageAggregates(t *testing.T) {
	s := statsWith(3, 1, 2)
	if s.Total() != 6 || s.Max() != 3 || s.Min() != 1 {
		t.Fatalf("aggregates wrong: total=%v max=%v min=%v", s.Total(), s.Max(), s.Min())
	}
	if got := s.Imbalance(); got != 3 {
		t.Fatalf("Imbalance = %v, want 3", got)
	}
}

func TestImbalanceDegenerate(t *testing.T) {
	if statsWith().Imbalance() != 1 {
		t.Fatal("empty stage imbalance != 1")
	}
	if statsWith(5).Imbalance() != 1 {
		t.Fatal("single-task imbalance != 1")
	}
	if statsWith(0, 5).Imbalance() != 1 {
		t.Fatal("zero-min imbalance != 1")
	}
}

func TestMakespanSingleWorkerIsTotal(t *testing.T) {
	s := statsWith(4, 2, 9, 1)
	if s.Makespan(1) != s.Total() {
		t.Fatalf("Makespan(1) = %v, want %v", s.Makespan(1), s.Total())
	}
}

func TestMakespanManyWorkersIsMax(t *testing.T) {
	s := statsWith(4, 2, 9, 1)
	if s.Makespan(100) != 9 {
		t.Fatalf("Makespan(100) = %v, want 9", s.Makespan(100))
	}
}

func TestMakespanGreedyInOrder(t *testing.T) {
	// Tasks 6,4,3,2 on 2 workers greedy in order:
	// w1: 6; w2: 4, then 3 -> w2 (free at 4? no: w2 free at 4, w1 at 6, so
	// 3 goes to w2 -> 7; 2 goes to w1 -> 8). Makespan 8.
	s := statsWith(6, 4, 3, 2)
	if got := s.Makespan(2); got != 8 {
		t.Fatalf("Makespan(2) = %v, want 8", got)
	}
}

// Oracle: Makespan must equal a direct simulation of greedy in-order
// scheduling (assign each task to the worker that frees up first).
func TestMakespanMatchesOracle(t *testing.T) {
	f := func(raw []uint16, w8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]time.Duration, len(raw))
		for i, v := range raw {
			costs[i] = time.Duration(v)
		}
		w := int(w8%15) + 1
		s := statsWith(costs...)
		// Oracle: linear-scan min each step.
		free := make([]time.Duration, w)
		for _, c := range costs {
			mi := 0
			for i := 1; i < w; i++ {
				if free[i] < free[mi] {
					mi = i
				}
			}
			free[mi] += c
		}
		var want time.Duration
		for _, f := range free {
			if f > want {
				want = f
			}
		}
		return s.Makespan(w) == want
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 207, 300)); err != nil {
		t.Fatal(err)
	}
}

// Properties: makespan is monotone in workers, between max and total.
func TestMakespanProperties(t *testing.T) {
	f := func(raw []uint16, w8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]time.Duration, len(raw))
		for i, v := range raw {
			costs[i] = time.Duration(v) + 1
		}
		s := statsWith(costs...)
		w := int(w8%31) + 1
		m := s.Makespan(w)
		if m < s.Max() || m > s.Total() {
			return false
		}
		return s.Makespan(w+1) <= m
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 208, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestRunStageExecutesAllTasks(t *testing.T) {
	c := New(4)
	var hits atomic.Int64
	seen := make([]atomic.Bool, 37)
	s := c.RunStage("II", "work", 37, func(i int) {
		hits.Add(1)
		if seen[i].Swap(true) {
			t.Errorf("task %d ran twice", i)
		}
	})
	if hits.Load() != 37 {
		t.Fatalf("ran %d tasks, want 37", hits.Load())
	}
	if len(s.Costs) != 37 {
		t.Fatalf("recorded %d costs, want 37", len(s.Costs))
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("task %d never ran", i)
		}
	}
}

func TestSerialAndBroadcast(t *testing.T) {
	c := New(2)
	ran := false
	c.Serial("I-1", "setup", func() { ran = true })
	if !ran {
		t.Fatal("Serial did not run fn")
	}
	payload := c.Broadcast("I-2", "dict", func() []byte { return make([]byte, 123) })
	if len(payload) != 123 {
		t.Fatalf("payload = %d bytes", len(payload))
	}
	rep := c.Report()
	if len(rep.Stages) != 2 {
		t.Fatalf("report has %d stages, want 2", len(rep.Stages))
	}
	if b := rep.Stage("dict"); b == nil || b.Bytes != 123 {
		t.Fatalf("broadcast stage = %+v", b)
	}
}

func TestReportBreakdownAndElapsed(t *testing.T) {
	r := &Report{Workers: 2, Stages: []*StageStats{
		{Name: "a", Phase: "I", Costs: []time.Duration{2, 2}},
		{Name: "b", Phase: "II", Costs: []time.Duration{10}},
		{Name: "c", Phase: "I", Costs: []time.Duration{4}},
	}}
	if got := r.SimulatedElapsed(); got != 2+10+4 {
		t.Fatalf("SimulatedElapsed = %v, want 16", got)
	}
	m, order := r.PhaseBreakdown()
	if m["I"] != 6 || m["II"] != 10 {
		t.Fatalf("breakdown = %v", m)
	}
	if len(order) != 2 || order[0] != "I" || order[1] != "II" {
		t.Fatalf("phase order = %v", order)
	}
}

func TestSpeedUpMonotone(t *testing.T) {
	costs := make([]time.Duration, 40)
	for i := range costs {
		costs[i] = time.Duration(10 + i%7)
	}
	r := &Report{Stages: []*StageStats{{Name: "x", Phase: "II", Costs: costs}}}
	su := SpeedUp(r, 5, []int{5, 10, 20, 40})
	if su[0] != 1 {
		t.Fatalf("speedup at base = %v, want 1", su[0])
	}
	for i := 1; i < len(su); i++ {
		if su[i] < su[i-1]-1e-9 {
			t.Fatalf("speedup not monotone: %v", su)
		}
	}
	if su[3] <= 1 {
		t.Fatalf("speedup at 40 workers = %v, want > 1", su[3])
	}
}

func TestExecutorCount(t *testing.T) {
	cases := []struct {
		workers, executors, want int
	}{
		{40, 0, 10}, // paper deployment: 4-core nodes
		{8, 0, 2},
		{5, 0, 2},
		{1, 0, 1},
		{3, 0, 1},
		{40, 12, 12}, // explicit override
	}
	for _, c := range cases {
		cl := New(c.workers)
		cl.Executors = c.executors
		if got := cl.ExecutorCount(); got != c.want {
			t.Errorf("workers=%d executors=%d: ExecutorCount = %d, want %d",
				c.workers, c.executors, got, c.want)
		}
	}
}

func TestTaskRetryOnInjectedFault(t *testing.T) {
	c := New(4)
	// Every task fails on its first attempt and succeeds on the second.
	c.Injector = InjectorFunc(func(stage string, task, attempt int) bool {
		return attempt == 0
	})
	var done atomic.Int64
	s := c.RunStage("II", "flaky", 20, func(i int) { done.Add(1) })
	if done.Load() != 20 {
		t.Fatalf("completed %d tasks, want 20", done.Load())
	}
	if len(s.Costs) != 20 {
		t.Fatal("costs not recorded")
	}
	if s.Faults.InjectedFailures != 20 {
		t.Fatalf("InjectedFailures = %d, want 20", s.Faults.InjectedFailures)
	}
	if s.Faults.BackoffVirtual <= 0 {
		t.Fatalf("BackoffVirtual = %v, want > 0", s.Faults.BackoffVirtual)
	}
}

func TestTaskRetryRecoversPanics(t *testing.T) {
	c := New(2)
	// Per-task counters: a shared odd/even counter lets two concurrent
	// tasks interleave so that one of them panics on every attempt.
	var attempts [4]atomic.Int64
	c.RunStage("II", "panicky", 4, func(i int) {
		if attempts[i].Add(1) == 1 {
			panic("transient")
		}
	})
	// Each task panicked once and succeeded on retry: 8 attempts.
	var total int64
	for i := range attempts {
		total += attempts[i].Load()
	}
	if total != 8 {
		t.Fatalf("attempts = %d, want 8", total)
	}
}

func TestTaskRetriesExhaustedPropagates(t *testing.T) {
	c := New(1)
	c.MaxTaskRetries = 1
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted retries did not panic")
		}
	}()
	c.RunStage("II", "doomed", 1, func(i int) { panic("permanent") })
}

func TestResetClearsReport(t *testing.T) {
	c := New(1)
	c.Serial("I", "x", func() {})
	c.Reset()
	if len(c.Report().Stages) != 0 {
		t.Fatal("Reset did not clear stages")
	}
}

func TestMergeOf(t *testing.T) {
	a := &Report{Stages: []*StageStats{{Name: "x", Phase: "I", Costs: []time.Duration{1}}}}
	b := &Report{Stages: []*StageStats{{Name: "y", Phase: "II", Costs: []time.Duration{2}}}}
	m := MergeOf(7, a, b)
	if m.Workers != 7 || len(m.Stages) != 2 || m.Stages[0].Name != "x" || m.Stages[1].Name != "y" {
		t.Fatalf("MergeOf wrong: %+v", m)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Workers: 2, Stages: []*StageStats{
		{Name: "work", Phase: "II", Costs: []time.Duration{time.Millisecond}},
	}}
	s := r.String()
	if s == "" || !contains(s, "work") || !contains(s, "II") {
		t.Fatalf("String() = %q", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSortedCosts(t *testing.T) {
	s := statsWith(3, 1, 2)
	got := s.SortedCosts()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("SortedCosts = %v", got)
	}
	// Original must be untouched.
	if s.Costs[0] != 3 {
		t.Fatal("SortedCosts mutated original")
	}
}
