package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rpdbscan/internal/engine"
)

func snapshotTestReport() *engine.Report {
	return &engine.Report{Workers: 4, Stages: []*engine.StageStats{
		{Name: "cell-partitioning", Phase: "I-1",
			Costs: []time.Duration{time.Millisecond, 3 * time.Millisecond},
			Wall:  4 * time.Millisecond, Bytes: 1000},
		{Name: "dictionary-build", Phase: "I-2",
			Costs: []time.Duration{2 * time.Millisecond},
			Wall:  2 * time.Millisecond, Retries: 1,
			Faults: engine.FaultStats{InjectedFailures: 1, SpeculativeLaunches: 2}},
		{Name: "merge-round-0", Phase: "III-1",
			Costs: []time.Duration{time.Millisecond, time.Millisecond},
			Wall:  time.Millisecond},
		{Name: "merge-round-1", Phase: "III-1",
			Costs: []time.Duration{time.Millisecond},
			Wall:  time.Millisecond},
	}}
}

func TestTakeSnapshotRollsUpPhases(t *testing.T) {
	rep := snapshotTestReport()
	s := TakeSnapshot(rep, RunInfo{Algorithm: "rp", Points: 100, Clusters: 3, Cells: 7})
	if s.Workers != 4 {
		t.Fatalf("workers = %d", s.Workers)
	}
	if len(s.Stages) != 4 {
		t.Fatalf("stages = %d", len(s.Stages))
	}
	if len(s.Phases) != 3 {
		t.Fatalf("phases = %d: %+v", len(s.Phases), s.Phases)
	}
	// Phase order follows first appearance; III-1 folds two stages.
	if s.Phases[0].Phase != "I-1" || s.Phases[2].Phase != "III-1" {
		t.Fatalf("phase order: %+v", s.Phases)
	}
	p3 := s.Phases[2]
	if p3.Stages != 2 || p3.Tasks != 3 || p3.WallNs != int64(2*time.Millisecond) {
		t.Fatalf("III-1 rollup: %+v", p3)
	}
	if s.Phases[1].Faults.Injected != 1 || s.Phases[1].Faults.SpecLaunches != 2 {
		t.Fatalf("I-2 faults: %+v", s.Phases[1].Faults)
	}
	if s.SimulatedNs != int64(rep.SimulatedElapsed()) || s.WallNs != int64(rep.WallElapsed()) {
		t.Fatal("totals disagree with the report")
	}
	if s.Counters["rpdbscan.points_read"] != Counters.PointsRead.Value() {
		t.Fatal("counter capture missing")
	}
}

func TestSnapshotStringRendersAllSections(t *testing.T) {
	s := TakeSnapshot(snapshotTestReport(), RunInfo{
		Algorithm: "rp", Points: 100, Clusters: 3, Cells: 7, SubCells: 21, DictBytes: 512,
		Streamed: true, Chunks: 4, SpillBytes: 2048, SpillReloads: 3,
	})
	out := s.String()
	for _, want := range []string{
		"algo=rp", "100 points", "3 clusters",
		"dictionary: 7 cells / 21 sub-cells, 512 bytes",
		"stream: 4 chunks, 2048 spill bytes, 3 reloads",
		"cell-partitioning", "merge-round-1", "bytes=1000", "retries=1",
		"faults[inj=1", "phases:", "[III-1]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotWriteJSONRoundTrips(t *testing.T) {
	s := TakeSnapshot(snapshotTestReport(), RunInfo{Algorithm: "rp", Points: 100, Clusters: 3})
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("stats JSON invalid: %v", err)
	}
	if back.Run.Points != 100 || back.Run.Algorithm != "rp" || len(back.Stages) != 4 {
		t.Fatalf("round trip lost data: %+v", back.Run)
	}
	if back.Counters["rpdbscan.points_read"] != s.Counters["rpdbscan.points_read"] {
		t.Fatal("counters lost in JSON")
	}
}

func TestSnapshotLogArgs(t *testing.T) {
	s := TakeSnapshot(snapshotTestReport(), RunInfo{
		Algorithm: "rp", Points: 5, Clusters: 1, Cells: 2,
		Streamed: true, Chunks: 1,
	})
	args := s.LogArgs()
	if len(args)%2 != 0 {
		t.Fatalf("odd slog args: %v", args)
	}
	keys := map[string]bool{}
	for i := 0; i < len(args); i += 2 {
		keys[args[i].(string)] = true
	}
	for _, want := range []string{"algo", "points", "clusters", "workers", "simulated", "wall", "cells", "chunks"} {
		if !keys[want] {
			t.Errorf("LogArgs missing %q", want)
		}
	}
}

func TestSortedCounterNames(t *testing.T) {
	s := TakeSnapshot(&engine.Report{Workers: 1}, RunInfo{})
	names := s.SortedCounterNames()
	if len(names) == 0 {
		t.Fatal("no counters")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names unsorted at %d: %v", i, names)
		}
	}
}

func TestPublishAndPublishedSnapshot(t *testing.T) {
	old := PublishedSnapshot()
	defer published.Store(old)
	s := TakeSnapshot(snapshotTestReport(), RunInfo{Algorithm: "rp", Points: 1})
	s.Publish()
	if got := PublishedSnapshot(); got != s {
		t.Fatal("published snapshot not visible")
	}
	// A nil publish is ignored rather than clearing the slot.
	(*Snapshot)(nil).Publish()
	if got := PublishedSnapshot(); got != s {
		t.Fatal("nil publish clobbered the snapshot")
	}
}

func TestCountRunAppliesSideEffects(t *testing.T) {
	rep := &engine.Report{Workers: 2, Stages: []*engine.StageStats{
		{Name: "cell-partitioning", Phase: "I-1", Bytes: 111},
		{Name: "merge-round-0", Phase: "III-1", Costs: []time.Duration{1, 1, 1}},
	}}
	p0 := Counters.PointsRead.Value()
	c0 := Counters.CellsBuilt.Value()
	sh0 := Counters.ShuffleBytes.Value()
	m0 := Counters.MergeOps.Value()
	ch0 := Counters.StreamChunks.Value()
	sb0 := Counters.StreamSpillBytes.Value()
	sr0 := Counters.StreamSpillReloads.Value()
	CountRun(rep, RunInfo{
		Points: 50, Cells: 9,
		Streamed: true, Chunks: 2, SpillBytes: 333, SpillReloads: 4,
	})
	check := func(name string, got, want int64) {
		if got != want {
			t.Errorf("%s delta = %d, want %d", name, got, want)
		}
	}
	check("PointsRead", Counters.PointsRead.Value()-p0, 50)
	check("CellsBuilt", Counters.CellsBuilt.Value()-c0, 9)
	check("ShuffleBytes", Counters.ShuffleBytes.Value()-sh0, 111)
	check("MergeOps", Counters.MergeOps.Value()-m0, 3)
	check("StreamChunks", Counters.StreamChunks.Value()-ch0, 2)
	check("StreamSpillBytes", Counters.StreamSpillBytes.Value()-sb0, 333)
	check("StreamSpillReloads", Counters.StreamSpillReloads.Value()-sr0, 4)
}

func TestCounterHelpFallback(t *testing.T) {
	if CounterHelp("rpdbscan.points_read") == CounterHelp("rpdbscan.not_a_counter") {
		t.Fatal("fallback identical to known help")
	}
	if CounterHelp("rpdbscan.unknown") == "" {
		t.Fatal("fallback empty")
	}
}

func TestSinkRecordsTaskCostHistogram(t *testing.T) {
	before := Histograms.TaskCostNs.Snapshot()
	s := NewSink(nil)
	s.Emit(engine.Event{Kind: engine.EventTaskEnd, Duration: 1500})
	window := Histograms.TaskCostNs.Snapshot().Sub(before)
	if window.Count != 1 {
		t.Fatalf("task-end not recorded: %+v", window)
	}
}
