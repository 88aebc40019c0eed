package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestBenchmarkDeclaration checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark emits.
func TestBenchmarkDeclaration(t *testing.T) {
	bm := readBenchmark(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd)
	check("per_layer", bm.PerLayer, perLayer)
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(buf, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestQuickScale runs all four workloads at quick scale, untraced and
// traced, against an rpserve built from this checkout, and checks that
// every declared metric is emitted with its unit and every oracle passes.
func TestQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rpserve and runs every workload")
	}
	bm := readBenchmark(t)
	dir := t.TempDir()
	build := func(out, pkg, wd string) {
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Dir = wd
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
		}
	}
	rpserve, bench := filepath.Join(dir, "rpserve"), filepath.Join(dir, "e2e")
	build(rpserve, "./cmd/rpserve", filepath.Join("..", ".."))
	build(bench, ".", ".")

	for _, trace := range []string{"0", "1"} {
		out := filepath.Join(dir, "out-"+trace+".json")
		cmd := exec.Command(bench, "-quick", "-seconds", "1", "-seed", "1", "-trace", trace,
			"-rpserve", rpserve, "-work", filepath.Join(dir, "work"), "-out", out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, msg)
		}
		buf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Runs []report `json:"runs"`
		}
		if err := json.Unmarshal(buf, &res); err != nil {
			t.Fatal(err)
		}
		want := bm.EndToEnd
		if trace == "1" {
			want = bm.PerLayer
		}
		if len(res.Runs) != len(bm.Workloads) {
			t.Fatalf("trace %s: %d runs, want %d", trace, len(res.Runs), len(bm.Workloads))
		}
		for _, run := range res.Runs {
			if !run.Summary.Correct || run.Summary.Failed != 0 {
				t.Errorf("%s trace %s: incorrect: %v", run.Meta.Workload, trace, run.Problems)
			}
			if len(run.Summary.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", run.Meta.Workload, trace, len(run.Summary.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := run.Summary.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", run.Meta.Workload, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "0" {
				for _, m := range want {
					if run.Summary.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", run.Meta.Workload, m.Name, run.Summary.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}
