package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"rpdbscan/internal/serve"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/rpdbscan -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestMain lets the test binary impersonate the real CLI: a child process
// spawned with RPDBSCAN_BE_CLI=1 runs main() against its own arguments, so
// the golden test exercises the actual flag parsing, I/O, and exit paths
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("RPDBSCAN_BE_CLI") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI invokes the CLI (this test binary re-executed) with args.
func runCLI(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "RPDBSCAN_BE_CLI=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("cli %v failed: %v\nstderr:\n%s", args, err, errb.Bytes())
	}
	return out.Bytes(), errb.Bytes()
}

var fixtureArgs = []string{
	"-eps", "0.3", "-minpts", "4", "-workers", "4", "-partitions", "4",
	"-seed", "1", filepath.Join("testdata", "two_blobs.csv"),
}

// TestGoldenLabels pins the CLI's exact output on a checked-in fixture:
// the full label stream and the report fields that must stay stable
// (clusters found, points read). Any diff is either a real regression or
// an intentional change, in which case re-run with -update and review the
// golden diff.
func TestGoldenLabels(t *testing.T) {
	golden := filepath.Join("testdata", "two_blobs.labels.golden")
	out, _ := runCLI(t, fixtureArgs...)
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("labels diverged from %s:\n got %d bytes\nwant %d bytes\n(review and re-run with -update if intentional)",
			golden, len(out), len(want))
	}
	// Pin the report-level facts too: exactly 2 clusters over 65 points.
	labels := map[string]int{}
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		labels[string(line)]++
		n++
	}
	if n != 65 {
		t.Fatalf("wrote %d labels, want 65", n)
	}
	clusters := 0
	for l := range labels {
		if l != "-1" {
			clusters++
		}
	}
	if clusters != 2 {
		t.Fatalf("fixture clustered into %d clusters, want 2 (labels seen: %v)", clusters, labels)
	}
	if labels["-1"] == 0 || labels["-1"] > 10 {
		t.Fatalf("noise count %d implausible for the fixture", labels["-1"])
	}
}

// TestGoldenStreamLabels: the streamed CLI path must produce the exact
// bytes of the non-stream golden — there is no separate stream golden,
// because the out-of-core pipeline's contract is byte-identical output.
// A tiny chunk size forces many chunks over the 65-point fixture, and the
// same -update convention applies (updating the shared golden re-pins
// both paths at once).
func TestGoldenStreamLabels(t *testing.T) {
	golden := filepath.Join("testdata", "two_blobs.labels.golden")
	// -stats exercises the streamed reporting path (it writes to stderr
	// only, so the stdout golden comparison is unaffected).
	out, stderr := runCLI(t, append([]string{"-stream", "-chunk-size", "7", "-stats"}, fixtureArgs...)...)
	if !bytes.Contains(stderr, []byte("spill_bytes")) {
		t.Fatalf("-stream -stats did not report spill accounting:\n%s", stderr)
	}
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("-stream labels diverged from the non-stream golden %s: got %d bytes, want %d",
			golden, len(out), len(want))
	}
}

// TestGoldenProcBackend: the multi-process backend must produce the exact
// bytes of the in-process golden — like the stream path, there is no
// separate proc golden, because the transport's contract is byte-identical
// output. The worker subprocesses are this same test binary re-executed a
// second time: main() routes the grandchild into transport.MaybeWorker
// before any flag parsing, so no TestMain special-casing is needed.
func TestGoldenProcBackend(t *testing.T) {
	golden := filepath.Join("testdata", "two_blobs.labels.golden")
	out, _ := runCLI(t, append([]string{"-backend", "proc"}, fixtureArgs...)...)
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("-backend=proc labels diverged from the in-process golden %s: got %d bytes, want %d",
			golden, len(out), len(want))
	}
	// And under process-level chaos — kills, wire corruption, injected
	// failures — still not a single byte may move.
	chaotic, stderr := runCLI(t, append([]string{
		"-backend", "proc", "-chaos-fail", "0.2", "-chaos-corrupt", "0.2",
		"-chaos-kill", "0.2", "-chaos-seed", "5",
	}, fixtureArgs...)...)
	if !bytes.Equal(chaotic, want) {
		t.Fatalf("-backend=proc with chaos changed the output labels\nstderr:\n%s", stderr)
	}
	// A streamed fit on the proc backend, clean and under the same chaos.
	for _, chaosArgs := range [][]string{nil, {
		"-chaos-fail", "0.2", "-chaos-corrupt", "0.2", "-chaos-kill", "0.2", "-chaos-seed", "5",
	}} {
		args := append([]string{"-backend", "proc", "-stream", "-chunk-size", "7"}, chaosArgs...)
		streamed, stderr := runCLI(t, append(args, fixtureArgs...)...)
		if !bytes.Equal(streamed, want) {
			t.Fatalf("-backend=proc -stream %v diverged from the golden\nstderr:\n%s", chaosArgs, stderr)
		}
	}
}

// TestProcBackendFlagErrors pins the proc backend's rejection paths:
// incompatible flag combinations and unknown backend names must exit
// non-zero before any clustering starts.
func TestProcBackendFlagErrors(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"algo":            {"-backend", "proc", "-algo", "exact"},
		"unknown-backend": {"-backend", "warp"},
		"kill-needs-proc": {"-chaos-kill", "0.5"},
	}
	for name, extra := range cases {
		cmd := exec.Command(exe, append(extra, fixtureArgs...)...)
		cmd.Env = append(os.Environ(), "RPDBSCAN_BE_CLI=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s: invalid flag combination accepted:\n%s", name, out)
		}
	}
}

// TestStreamFlagIncompatibilities pins the error paths: -stream cannot
// serve features that need the full coordinate set in memory.
func TestStreamFlagIncompatibilities(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"labeled":    {"-stream", "-labeled"},
		"save-model": {"-stream", "-save-model", filepath.Join(t.TempDir(), "m")},
		"algo":       {"-stream", "-algo", "exact"},
	}
	for name, extra := range cases {
		cmd := exec.Command(exe, append(extra, fixtureArgs...)...)
		cmd.Env = append(os.Environ(), "RPDBSCAN_BE_CLI=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s: incompatible flag combination accepted:\n%s", name, out)
		}
	}
}

// TestGoldenTraceReport pins the stage structure of the engine report the
// CLI exports: stage names and phases are part of the observable contract
// (dashboards and the chrome trace key off them).
func TestGoldenTraceReport(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	args := append([]string{"-trace", tracePath, "-o", filepath.Join(t.TempDir(), "labels")}, fixtureArgs...)
	runCLI(t, args...)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var dto struct {
		Workers int `json:"workers"`
		Stages  []struct {
			Name  string `json:"name"`
			Phase string `json:"phase"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if dto.Workers != 4 {
		t.Fatalf("trace workers = %d, want 4", dto.Workers)
	}
	want := []string{
		"cell-partitioning", "dictionary-build", "dictionary-broadcast",
		"dictionary-load", "cell-graph-construction",
	}
	have := map[string]bool{}
	for _, s := range dto.Stages {
		have[s.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Fatalf("stage %q missing from trace (stages: %+v)", name, dto.Stages)
		}
	}
}

// TestChaosFlagsPreserveOutput is the CLI-level differential check: chaos
// flags must not change a single output byte.
func TestChaosFlagsPreserveOutput(t *testing.T) {
	clean, _ := runCLI(t, fixtureArgs...)
	chaotic, stderr := runCLI(t, append([]string{
		"-chaos-fail", "0.3", "-chaos-straggler", "0.3", "-chaos-corrupt", "0.3",
		"-chaos-seed", "9",
	}, fixtureArgs...)...)
	if !bytes.Equal(clean, chaotic) {
		t.Fatalf("chaos flags changed the output labels\nstderr:\n%s", stderr)
	}
	if !bytes.Contains(stderr, []byte("chaos enabled")) {
		t.Fatalf("chaos not announced on stderr:\n%s", stderr)
	}
}

// TestGoldenSaveModel pins the -save-model artifact byte for byte against
// the fixture model that cmd/rpserve serves in its own golden tests: the
// two CLIs must agree on the artifact. It then reloads the artifact and
// checks the served predictions are consistent with the golden labels the
// clustering itself produced.
func TestGoldenSaveModel(t *testing.T) {
	golden := filepath.Join("..", "rpserve", "testdata", "two_blobs.model")
	modelPath := filepath.Join(t.TempDir(), "two_blobs.model")
	stdout, _ := runCLI(t, append([]string{"-save-model", modelPath}, fixtureArgs...)...)
	got, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("-save-model artifact diverged from %s: got %d bytes, want %d (re-run with -update if intentional)",
				golden, len(got), len(want))
		}
	}

	// Reload and cross-check against the labels the run just printed:
	// every core training point must predict its own fitted label.
	m, err := serve.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	info := m.Info()
	if info.Points != 65 || info.Clusters != 2 || info.Dim != 2 {
		t.Fatalf("model info = %+v, want 65 points / 2 clusters / dim 2", info)
	}
	var labels []int
	for _, line := range bytes.Split(bytes.TrimSpace(stdout), []byte("\n")) {
		v, err := strconv.Atoi(string(line))
		if err != nil {
			t.Fatalf("bad label line %q: %v", line, err)
		}
		labels = append(labels, v)
	}
	if len(labels) != info.Points {
		t.Fatalf("printed %d labels, model has %d points", len(labels), info.Points)
	}
	for i := 0; i < m.Len(); i++ {
		if m.TrainingLabel(i) != labels[i] {
			t.Fatalf("point %d: artifact label %d != printed label %d", i, m.TrainingLabel(i), labels[i])
		}
		if !m.TrainingCore(i) {
			continue
		}
		pred, err := m.Predict(m.TrainingPoint(i))
		if err != nil {
			t.Fatal(err)
		}
		if pred.Label != labels[i] {
			t.Fatalf("core point %d predicted %d, fitted label %d", i, pred.Label, labels[i])
		}
	}
}

// TestSaveModelRequiresCoreFlags pins the error path: algorithms that do
// not report core points cannot serve a model.
func TestSaveModelRequiresCoreFlags(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-algo", "esp", "-save-model", filepath.Join(t.TempDir(), "m")}, fixtureArgs...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "RPDBSCAN_BE_CLI=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-save-model with a coreless algorithm should fail:\n%s", out)
	}
}
