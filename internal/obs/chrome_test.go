package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rpdbscan/internal/engine"
)

func testReport() *engine.Report {
	return &engine.Report{Workers: 3, Stages: []*engine.StageStats{
		{Name: "cell-partitioning", Phase: "I-1", Costs: []time.Duration{5, 3, 4, 2, 6}, Wall: 9},
		{Name: "dictionary-broadcast", Phase: "I-2", Costs: []time.Duration{7}, Wall: 7, Bytes: 4096},
		{Name: "cell-graph-construction", Phase: "II", Costs: []time.Duration{10, 1, 1}, Wall: 11},
	}}
}

func decodeTrace(t *testing.T, buf *bytes.Buffer) chromeTrace {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	return tr
}

func TestChromeTraceParsesAndPairsEvents(t *testing.T) {
	r := testReport()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, &buf)

	nTasks := 0
	for _, s := range r.Stages {
		nTasks += len(s.Costs)
	}
	begins, ends := 0, 0
	open := map[int][]chromeEvent{} // per-lane stack of open B events
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
			open[e.Tid] = append(open[e.Tid], e)
		case "E":
			ends++
			stack := open[e.Tid]
			if len(stack) == 0 {
				t.Fatalf("E event with no open B on lane %d at ts=%v", e.Tid, e.Ts)
			}
			top := stack[len(stack)-1]
			if e.Ts < top.Ts {
				t.Fatalf("E before its B on lane %d: %v < %v", e.Tid, e.Ts, top.Ts)
			}
			open[e.Tid] = stack[:len(stack)-1]
		}
	}
	if begins != nTasks || ends != nTasks {
		t.Fatalf("begin/end pairs = %d/%d, want one pair per task (%d)", begins, ends, nTasks)
	}
	for tid, stack := range open {
		if len(stack) != 0 {
			t.Fatalf("lane %d has %d unclosed B events", tid, len(stack))
		}
	}
}

func TestChromeTraceLaneCountEqualsWorkers(t *testing.T) {
	r := testReport()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, &buf)
	lanes := map[int]bool{}
	for _, e := range tr.TraceEvents {
		if e.Name == "thread_name" && e.Ph == "M" {
			lanes[e.Tid] = true
		}
	}
	if len(lanes) != r.Workers {
		t.Fatalf("lane count = %d, want Workers = %d", len(lanes), r.Workers)
	}
	// No task event may land outside the declared lanes.
	for _, e := range tr.TraceEvents {
		if (e.Ph == "B" || e.Ph == "E") && !lanes[e.Tid] {
			t.Fatalf("task event on undeclared lane %d", e.Tid)
		}
	}
}

// The replay must agree with the engine's own scheduler: the last task end
// of each stage, measured from the stage's barrier, is the stage makespan,
// and the whole timeline ends at SimulatedElapsed.
func TestChromeTraceMatchesMakespanReplay(t *testing.T) {
	r := testReport()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, &buf)
	var lastEnd float64
	for _, e := range tr.TraceEvents {
		if e.Ph == "E" && e.Ts > lastEnd {
			lastEnd = e.Ts
		}
	}
	want := micros(r.SimulatedElapsed())
	if diff := lastEnd - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("timeline ends at %vus, want SimulatedElapsed %vus", lastEnd, want)
	}
}

func TestChromeTraceZeroWorkers(t *testing.T) {
	r := &engine.Report{Workers: 0, Stages: []*engine.StageStats{
		{Name: "s", Phase: "I", Costs: []time.Duration{1, 2}},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, &buf)
	lanes := map[int]bool{}
	for _, e := range tr.TraceEvents {
		if e.Name == "thread_name" && e.Ph == "M" {
			lanes[e.Tid] = true
		}
	}
	if len(lanes) != 1 {
		t.Fatalf("zero-worker report should clamp to 1 lane, got %d", len(lanes))
	}
}

func TestWriteTraceDispatch(t *testing.T) {
	r := testReport()
	var rep, chr bytes.Buffer
	if err := WriteTrace(&rep, r, "report"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "task_costs_ns") {
		t.Fatal("report format did not produce the engine JSON trace")
	}
	// Round-trips through the engine reader.
	if _, err := engine.ReadJSON(&rep); err != nil {
		t.Fatalf("report output unreadable: %v", err)
	}
	if err := WriteTrace(&chr, r, "chrome"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chr.String(), "traceEvents") {
		t.Fatal("chrome format did not produce trace events")
	}
	if err := WriteTrace(&bytes.Buffer{}, r, "nope"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
