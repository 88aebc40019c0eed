// Command e2e is the repository's end-to-end and per-layer benchmark. It
// generates every input from a seed, runs one workload (or all four)
// against the code of this checkout, checks the outputs against oracles,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// bench/run.sh builds this command and rpserve, then runs it:
//
//	bash bench/run.sh --workload fit-dense --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1 -out results.json      # all four workloads
//	bash bench/run.sh --workload serve-refit --trace 1 # per-layer metrics + Chrome trace
//	bash bench/run.sh --workload fit-dense --repeat 5  # spread of every metric
//
// With --trace 0 a run reports the end-to-end metrics, with --trace 1 the
// per-layer metrics and a Chrome trace of the benchmark's spans. Wall time
// and the simulated makespan on k virtual workers are separate metrics
// (core.wall_ms, core.sim_ms), never swapped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	out      string
	quick    bool
	rpserve  string
	work     string
	traceOut string
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	var o options
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "all", "workload: "+strings.Join(names, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes a Chrome trace instead of end-to-end metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run N times with seeds seed..seed+N-1 and print each metric's median, quartiles and spread")
	fs.StringVar(&o.out, "out", "", "also write the full result (metadata, metrics, checks) as JSON to this file")
	fs.BoolVar(&o.quick, "quick", false, "tiny inputs, for the smoke test")
	fs.StringVar(&o.rpserve, "rpserve", "", "rpserve binary built from this checkout")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default: next to the scratch directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	switch {
	case fs.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds <= 0 || o.repeat < 0:
		fmt.Fprintln(os.Stderr, "e2e: bad arguments")
		fs.Usage()
		return 2
	case o.rpserve == "":
		fmt.Fprintln(os.Stderr, "e2e: -rpserve is required (bench/run.sh builds it)")
		return 2
	case o.workload != "all" && find(o.workload) == nil:
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", o.workload)
		return 2
	}
	if o.workload == "all" || o.repeat > 0 {
		return multi(o)
	}
	return single(o)
}

func find(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runner carries one workload run: its settings, the processes it started
// and what it measured.
type runner struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	p       params
	scale   string
	self    string
	rpserve string
	dir     string
	rec     *recorder
	origin  time.Time

	mu    sync.Mutex
	procs map[*exec.Cmd]bool

	e2e, layers       map[string]float64
	attempted, failed int
	answered          int // predict requests answered 200
	problems          []string
	invalids          []string
	digest            string
}

// pinKey names a pinned output digest.
func (r *runner) pinKey(workload string) string {
	return fmt.Sprintf("%s/%s/%d", r.scale, workload, r.seed)
}

// problem records an oracle failure: the run is not correct.
func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// invalid flags a run whose numbers do not measure the system, without
// calling it a regression.
func (r *runner) invalid(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.invalids = append(r.invalids, msg)
	fmt.Fprintln(os.Stderr, "e2e: invalid run:", msg)
}

// command prepares a child process. Children die with the bench process,
// and their temporary files land in the run's scratch directory.
func (r *runner) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+r.dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

func (r *runner) start(cmd *exec.Cmd) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	r.procs[cmd] = true
	return nil
}

func (r *runner) wait(cmd *exec.Cmd) error {
	err := cmd.Wait()
	r.mu.Lock()
	delete(r.procs, cmd)
	r.mu.Unlock()
	return err
}

// killAll stops every child still running and waits for it.
func (r *runner) killAll() {
	r.mu.Lock()
	procs := r.procs
	r.procs = map[*exec.Cmd]bool{}
	r.mu.Unlock()
	for cmd := range procs {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// meta identifies what was measured and where.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      string  `json:"scale"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	CPU        string  `json:"cpu"`
	Started    string  `json:"started"`
}

func collectMeta(r *runner) meta {
	m := meta{
		Workload: r.name, Seed: r.seed, Seconds: r.seconds, Trace: r.trace, Scale: r.scale,
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Kernel: "unknown", CPU: "unknown",
		Started: r.origin.UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		m.Kernel = b.String()
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
				m.CPU = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	return m
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's full record, written with -out.
type report struct {
	Meta     meta               `json:"meta"`
	Summary  summary            `json:"summary"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Digest   string             `json:"digest,omitempty"`
	Problems []string           `json:"problems,omitempty"`
	Invalid  []string           `json:"invalid,omitempty"`
	Trace    string             `json:"trace,omitempty"`
}

// single runs one workload in this process (and its children).
func single(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	r := &runner{
		name: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace,
		p: fullScale, scale: "full", self: self, rpserve: o.rpserve, origin: time.Now(),
		procs: map[*exec.Cmd]bool{}, e2e: map[string]float64{}, layers: map[string]float64{},
	}
	if o.quick {
		r.p, r.scale = quickScale, "quick"
	}
	if r.trace {
		r.rec = newRecorder(0)
	}
	r.dir = filepath.Join(o.work, fmt.Sprintf("%s-s%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	defer r.killAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigs; ok {
			r.mu.Lock()
			for cmd := range r.procs {
				cmd.Process.Kill()
			}
			r.mu.Unlock()
			os.RemoveAll(r.dir)
			os.Exit(1)
		}
	}()
	defer signal.Stop(sigs)

	m := collectMeta(r)
	id, start := r.rec.begin()
	err = find(o.workload).run(r)
	r.rec.end(id, 0, o.workload, start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", o.workload, err)
		return 1
	}
	rep := report{Meta: m, EndToEnd: r.e2e, Digest: r.digest, Problems: r.problems, Invalid: r.invalids}
	defs := endToEnd
	values := r.e2e
	if r.trace {
		defs, values = perLayer, r.layers
		r.layers["trace.spans"] = float64(len(r.rec.all()))
		rep.Layers = r.layers
		rep.Trace = o.traceOut
		if rep.Trace == "" {
			rep.Trace = filepath.Join(filepath.Dir(o.work), fmt.Sprintf("trace-%s-s%d.json", o.workload, o.seed))
		}
		if err := r.writeTrace(rep.Trace, m); err != nil {
			fmt.Fprintln(os.Stderr, "e2e: write trace:", err)
			return 1
		}
	}
	rep.Summary = summary{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		rep.Summary.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}

	fmt.Printf("# %s seed=%d seconds=%g trace=%v scale=%s commit=%s dirty=%v %s GOMAXPROCS=%d nproc=%d kernel=%s cpu=%q\n",
		m.Workload, m.Seed, m.Seconds, m.Trace, m.Scale, m.Commit, m.Dirty, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.Kernel, m.CPU)
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, p := range r.problems {
		fmt.Println("# check failed:", p)
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, mustJSON(rep), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 1
		}
	}
	fmt.Println(string(mustJSON(rep.Summary)))
	if !rep.Summary.Correct {
		return 1
	}
	return 0
}

// multi runs every requested (workload, seed) pair in a child process, so
// that the benchmark's own state starts fresh for each workload too, and
// prints each metric per workload: its value, or with -repeat the median,
// quartiles and spreads over the seeds.
func multi(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	var names []string
	if o.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{o.workload}
	}
	runs := max(o.repeat, 1)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	total := summary{Correct: true, Metrics: map[string]metric{}}
	var reports []report
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < runs; i++ {
			seed := o.seed + int64(i)
			out := filepath.Join(o.work, fmt.Sprintf("result-%s-s%d-%d.json", name, seed, os.Getpid()))
			args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
				"-rpserve", o.rpserve, "-work", o.work, "-out", out}
			if o.trace {
				args = append(args, "-trace", "1")
			}
			if o.quick {
				args = append(args, "-quick")
			}
			if o.traceOut != "" {
				args = append(args, "-trace-out", fmt.Sprintf("%s-%s-s%d.json", strings.TrimSuffix(o.traceOut, ".json"), name, seed))
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			cmd.Stdout = os.Stderr // the child's table; this process prints the summary
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			runErr := cmd.Run()
			var rep report
			buf, err := os.ReadFile(out)
			os.Remove(out)
			if err == nil {
				err = json.Unmarshal(buf, &rep)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s seed %d: %v %v\n", name, seed, runErr, err)
				total.Correct = false
				total.Failed++
				total.Attempted++
				continue
			}
			reports = append(reports, rep)
			total.Correct = total.Correct && rep.Summary.Correct && runErr == nil
			total.Attempted += rep.Summary.Attempted
			total.Failed += rep.Summary.Failed
			for k, m := range rep.Summary.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		printSpread(name, values, units, o.repeat > 0)
		for k, vs := range values {
			total.Metrics[name+"/"+k] = metric{Value: median(vs), Unit: units[k]}
		}
	}
	total.Attempted = max(total.Attempted, 1)
	if o.out != "" {
		if err := os.WriteFile(o.out, mustJSON(map[string]any{"summary": total, "runs": reports}), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 1
		}
	}
	fmt.Println(string(mustJSON(total)))
	if !total.Correct {
		return 1
	}
	return 0
}

// printSpread prints one workload's metrics; over repeated runs also the
// quartiles, the interquartile range over the median (the spread the
// benchmark's bounds are checked against) and (max-min)/median.
func printSpread(name string, values map[string][]float64, units map[string]string, spread bool) {
	if spread {
		fmt.Printf("%-20s %-32s %12s %12s %12s %9s %9s %s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		vs, ok := values[d.name]
		if !ok {
			continue
		}
		med := median(vs)
		if !spread {
			fmt.Printf("%-20s %-32s %14.6g %s\n", name, d.name, med, units[d.name])
			continue
		}
		q1, q3 := quartiles(vs)
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		iqr, rng := 0.0, 0.0
		if med != 0 {
			iqr, rng = (q3-q1)/med, (hi-lo)/med
		}
		fmt.Printf("%-20s %-32s %12.6g %12.6g %12.6g %8.1f%% %8.1f%% %s\n",
			name, d.name, med, q1, q3, 100*iqr, 100*rng, units[d.name])
	}
}
