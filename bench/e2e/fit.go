package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rpdbscan"
	"rpdbscan/internal/core"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/pointio"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
)

// fitJob is what the bench process asks one fit child process to do.
type fitJob struct {
	Workload string `json:"workload"`
	CSV      string `json:"csv"`
	// Dir holds the child's registries and spill files.
	Dir string `json:"dir"`
	// Seconds is the warm window after the cold repetition; 0 runs the
	// cold repetition only.
	Seconds float64 `json:"seconds"`
	MinWarm int     `json:"min_warm"`
	// Trace sends odd-numbered warm repetitions (and a cold-only child's
	// single repetition) through the traced path.
	Trace bool `json:"trace"`
	// Other fits once more on the other substrate (stream for an in-memory
	// workload and vice versa): the differential oracle for seeds without a
	// pinned digest.
	Other bool `json:"other,omitempty"`
	// Registry, when set, is where the cold repetition publishes, kept for
	// the caller (serve-steady boots rpserve from it).
	Registry string `json:"registry,omitempty"`
}

// repResult is one fit repetition as the child measured it.
type repResult struct {
	WallMs float64            `json:"wall_ms"`
	CPUMs  float64            `json:"cpu_ms"`
	Digest string             `json:"digest"`
	Traced bool               `json:"traced"`
	Layers map[string]float64 `json:"layers"`
}

// childDone closes a fit child's report.
type childDone struct {
	Layers map[string]float64 `json:"layers"`
	Other  string             `json:"other,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// childMain runs one fitJob and reports on stdout: a "rep {json}" line as
// each repetition finishes (the bench process timestamps the first), then
// one "done {json}" line.
func childMain(spec string) int {
	emit := func(kind string, v any) { fmt.Printf("%s %s\n", kind, mustJSON(v)) }
	var job fitJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		emit("done", childDone{Err: err.Error()})
		return 1
	}
	var rec *recorder
	if job.Trace {
		rec = newRecorder(1)
	}
	done := childDone{Layers: map[string]float64{}}
	fail := func(err error) int {
		done.Err = err.Error()
		emit("done", done)
		return 1
	}

	cold, err := fitRep(job, 0, job.Trace && job.Seconds == 0, rec)
	if err != nil {
		return fail(err)
	}
	emit("rep", cold)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	window := time.Duration(job.Seconds * float64(time.Second))
	start, last := time.Now(), time.Duration(0)
	// Start another repetition only while it is expected to end inside
	// the window, so a run measures for about job.Seconds.
	for i := 1; job.Seconds > 0 && (i <= job.MinWarm || time.Since(start)+last <= window); i++ {
		t := time.Now()
		r, err := fitRep(job, i, job.Trace && i%2 == 1, rec)
		if err != nil {
			return fail(err)
		}
		last = time.Since(t)
		emit("rep", r)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	addGCLayers(done.Layers, &before, &after)

	if job.Other {
		d, err := otherDigest(job)
		if err != nil {
			return fail(err)
		}
		done.Other = d
	}
	done.Spans = rec.all()
	emit("done", done)
	return 0
}

// fitRep runs repetition i of the workload's fit path and times each call
// into a layer. The untraced path calls the public API; the traced path
// calls core.Run / core.RunStream on an engine.New(k) cluster directly (the
// public calls add only the obs sink) to read the per-phase report.
func fitRep(job fitJob, i int, traced bool, rec *recorder) (repResult, error) {
	lay := map[string]float64{}
	if !traced {
		rec = nil
	}
	parent, start := rec.begin()
	cpu0 := cpuTime()
	timed := func(name, layer string, f func(id int64) error) error {
		t := time.Now()
		err := rec.do(parent, name, f)
		lay[layer] = ms(time.Since(t))
		return err
	}
	var out fitOutput
	var err error
	switch job.Workload {
	case "fit-dense":
		out, err = denseRep(job, i, traced, lay, timed)
	case "fit-stream-sparse":
		out, err = sparseRep(job, traced, lay, timed, rec)
	default:
		err = fmt.Errorf("no fit workload %q", job.Workload)
	}
	if err != nil {
		return repResult{}, err
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	rec.end(parent, 0, fmt.Sprintf("%s rep %d", job.Workload, i), start)
	if traced && out.artifact != nil {
		// What a server does at boot: outside the fit path, so after the
		// repetition's clock stopped.
		t := time.Now()
		if _, err := serve.Decode(out.artifact); err != nil {
			return repResult{}, fmt.Errorf("decode published artifact: %w", err)
		}
		lay["serve.model.decode_ms"] = ms(time.Since(t))
	}
	return repResult{WallMs: ms(wall), CPUMs: ms(cpu), Digest: digest(out.labels, out.core), Traced: traced, Layers: lay}, nil
}

// fitOutput is what one repetition produced.
type fitOutput struct {
	labels   []int
	core     []bool
	artifact []byte // the published model, when the path publishes one
}

// timer runs f inside a span and records its duration under layer.
type timer func(name, layer string, f func(id int64) error) error

func denseOptions() rpdbscan.Options {
	return rpdbscan.Options{Eps: denseEps, MinPts: minPts, Rho: rho, Partitions: k, Workers: k, Seed: fitSeed}
}

func sparseOptions(dir string) rpdbscan.StreamOptions {
	return rpdbscan.StreamOptions{
		Options:   rpdbscan.Options{Eps: sparseEps, MinPts: minPts, Rho: rho, Partitions: k, Workers: k, Seed: fitSeed},
		ChunkSize: streamChunk,
		SpillDir:  dir,
	}
}

func coreConfig(eps float64) core.Config {
	return core.Config{Eps: eps, MinPts: minPts, Rho: rho, NumPartitions: k, Seed: fitSeed}
}

// denseRep is fit-dense's path: CSV file -> ReadCSV -> ClusterFlat -> model
// -> durable registry publish.
func denseRep(job fitJob, i int, traced bool, lay map[string]float64, timed timer) (fitOutput, error) {
	var pts *geom.Points
	if err := timed("pointio.ReadCSV", "pointio.read_ms", func(int64) error {
		f, err := os.Open(job.CSV)
		if err != nil {
			return err
		}
		defer f.Close()
		pts, err = pointio.ReadCSV(f)
		return err
	}); err != nil {
		return fitOutput{}, err
	}
	opts := denseOptions()
	var res *rpdbscan.Result
	if err := timed(clusterCall(traced, "core.Run", "rpdbscan.ClusterFlat"), "cluster_ms", func(int64) error {
		if !traced {
			var err error
			res, err = rpdbscan.ClusterFlat(pts.Coords, pts.Dim, opts)
			return err
		}
		cr, err := core.Run(pts, coreConfig(denseEps), engine.New(k))
		if err != nil {
			return err
		}
		addCoreLayers(lay, cr)
		res = &rpdbscan.Result{Labels: cr.Labels, Core: cr.CorePoint, NumClusters: cr.NumClusters}
		return nil
	}); err != nil {
		return fitOutput{}, err
	}
	var m *rpdbscan.Model
	if err := timed("rpdbscan.Result.ModelFlat", "serve.model.build_ms", func(int64) error {
		var err error
		m, err = res.ModelFlat(pts.Coords, pts.Dim, opts)
		return err
	}); err != nil {
		return fitOutput{}, err
	}
	var art bytes.Buffer
	if err := timed("rpdbscan.Model.Save", "serve.model.encode_ms", func(int64) error { return m.Save(&art) }); err != nil {
		return fitOutput{}, err
	}
	dir := job.Registry
	if dir == "" {
		// A fresh registry per repetition, so every repetition pays the
		// blob write (a republish of identical bytes would skip it).
		dir = filepath.Join(job.Dir, fmt.Sprintf("registry-%d-%d", os.Getpid(), i))
	}
	if err := publish(dir, art.Bytes(), m, len(res.Labels), lay, timed); err != nil {
		return fitOutput{}, err
	}
	return fitOutput{labels: res.Labels, core: res.Core, artifact: art.Bytes()}, nil
}

// publish opens the registry at dir and durably publishes the artifact.
func publish(dir string, art []byte, m *rpdbscan.Model, points int, lay map[string]float64, timed timer) error {
	var reg *registry.Registry
	if err := timed("registry.Open", "registry.open_ms", func(int64) error {
		var err error
		reg, err = registry.Open(dir)
		return err
	}); err != nil {
		return err
	}
	appends := obs.Histograms.ManifestAppendNs.Snapshot()
	err := timed("registry.Publish+Sync", "registry.publish_ms", func(int64) error {
		hash, err := registry.ParseHash(m.Checksum())
		if err != nil {
			return err
		}
		rec := registry.Record{Version: 1, ModelHash: hash, Points: int64(points), Clusters: int64(m.NumClusters())}
		if _, err := reg.Publish(art, rec); err != nil {
			return err
		}
		return reg.Sync()
	})
	if cerr := reg.Close(); err == nil {
		err = cerr
	}
	w := obs.Histograms.ManifestAppendNs.Snapshot().Sub(appends)
	lay["registry.manifest_append_ms"] = w.Mean() / 1e6
	return err
}

// sparseRep is fit-stream-sparse's path: CSV file -> CSVSource ->
// ClusterStream, reading time measured inside the source's Next calls.
func sparseRep(job fitJob, traced bool, lay map[string]float64, timed timer, rec *recorder) (fitOutput, error) {
	f, err := os.Open(job.CSV)
	if err != nil {
		return fitOutput{}, err
	}
	defer f.Close()
	src := &timedSource{rec: rec}
	t := time.Now()
	src.src, err = rpdbscan.CSVSource(f)
	src.busy += time.Since(t)
	if err != nil {
		return fitOutput{}, err
	}
	opts := sparseOptions(job.Dir)
	var out fitOutput
	err = timed(clusterCall(traced, "core.RunStream", "rpdbscan.ClusterStream"), "cluster_ms", func(id int64) error {
		src.parent = id
		if !traced {
			res, err := rpdbscan.ClusterStream(src, opts)
			if err != nil {
				return err
			}
			out.labels, out.core = res.Labels, res.Core
			return nil
		}
		cfg := core.StreamConfig{Config: coreConfig(sparseEps), ChunkSize: opts.ChunkSize, SpillDir: opts.SpillDir}
		cr, err := core.RunStream(src, cfg, engine.New(k))
		if err != nil {
			return err
		}
		addCoreLayers(lay, cr)
		out.labels, out.core = cr.Labels, cr.CorePoint
		return nil
	})
	lay["pointio.read_ms"] = ms(src.busy)
	return out, err
}

func clusterCall(traced bool, tracedName, name string) string {
	if traced {
		return tracedName
	}
	return name
}

// timedSource measures the time a stream source spends parsing input.
type timedSource struct {
	src    rpdbscan.StreamSource
	busy   time.Duration
	rec    *recorder
	parent int64
}

func (s *timedSource) Dim() int { return s.src.Dim() }

func (s *timedSource) Next(dst []float64) (int, error) {
	id, t := s.rec.begin()
	n, err := s.src.Next(dst)
	s.busy += time.Since(t)
	s.rec.end(id, s.parent, "pointio.CSVSource.Next", t)
	return n, err
}

// otherDigest fits the job's CSV once on the other substrate. The
// repository guarantees the in-memory and out-of-core pipelines produce
// byte-identical labels and core flags.
func otherDigest(job fitJob) (string, error) {
	f, err := os.Open(job.CSV)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var res *rpdbscan.Result
	switch job.Workload {
	case "fit-dense":
		src, err := rpdbscan.CSVSource(f)
		if err != nil {
			return "", err
		}
		res, err = rpdbscan.ClusterStream(src, rpdbscan.StreamOptions{Options: denseOptions(), SpillDir: job.Dir})
		if err != nil {
			return "", err
		}
	default:
		pts, err := pointio.ReadCSV(f)
		if err != nil {
			return "", err
		}
		res, err = rpdbscan.ClusterFlat(pts.Coords, pts.Dim, sparseOptions(job.Dir).Options)
		if err != nil {
			return "", err
		}
	}
	return digest(res.Labels, res.Core), nil
}

// addCoreLayers records a core run's per-phase report and dictionary and
// spill statistics. Wall time and simulated makespan stay separate names.
func addCoreLayers(lay map[string]float64, res *core.Result) {
	var retries int64
	for _, p := range res.Report.PhaseSummaries() {
		lay["core."+p.Phase+".wall_ms"] = ms(p.Wall)
		lay["core."+p.Phase+".alloc_mib"] = float64(p.AllocDelta) / (1 << 20)
		retries += p.Retries
	}
	lay["core.wall_ms"] = ms(res.Report.WallElapsed())
	lay["core.sim_ms"] = ms(res.Report.SimulatedElapsed())
	lay["core.retries"] = float64(retries)
	if s := res.Report.Stage("cell-graph-construction"); s != nil {
		lay["core.II.imbalance"] = s.Imbalance()
	}
	lay["dict.bytes"] = float64(res.DictBytes)
	lay["dict.cells"] = float64(res.NumCells)
	lay["dict.subcells"] = float64(res.NumSubCells)
	if res.DictSizeBits > 0 {
		lay["dict.bytes_over_lemma43"] = float64(8*res.DictBytes) / float64(res.DictSizeBits)
	}
	if st := res.Stream; st != nil {
		lay["spill.bytes"] = float64(st.SpillBytes)
		lay["spill.reloads"] = float64(st.SpillReloads)
		lay["stream.chunks"] = float64(st.Chunks)
	}
}

// addGCLayers records the Go runtime's collector work between two
// MemStats readings of the process under test.
func addGCLayers(lay map[string]float64, before, after *runtime.MemStats) {
	n := after.NumGC - before.NumGC
	lay["runtime.gc_cycles"] = float64(n)
	lay["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	var worst uint64
	for i := uint32(0); i < min(n, 256); i++ {
		worst = max(worst, after.PauseNs[(after.NumGC-1-i)%256])
	}
	lay["runtime.gc_pause_max_ms"] = float64(worst) / 1e6
	lay["runtime.gc_cpu_fraction"] = after.GCCPUFraction
}

// digest is the FNV-1a hash of the labels (int32 little-endian) and core
// flags (one byte each): the fit workloads' output fingerprint.
func digest(labels []int, corePts []bool) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 5*len(labels))
	for i, l := range labels {
		v := uint32(int32(l))
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		if corePts[i] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fitRun is a fit child's report as the bench process received it.
type fitRun struct {
	reps []repResult
	// first is the time from exec to the first repetition's report: the
	// child's set-up (a cold repetition in a fresh process).
	first time.Duration
	done  childDone
	usage *syscall.Rusage
}

// fitChild runs job in a fresh child process and collects its report.
func (r *runner) fitChild(job fitJob) (fitRun, error) {
	var out fitRun
	cmd := r.command(r.self, "child", string(mustJSON(job)))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := r.start(cmd); err != nil {
		return out, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	var perr error
	for sc.Scan() {
		kind, body, _ := strings.Cut(sc.Text(), " ")
		switch kind {
		case "rep":
			var rep repResult
			if err := json.Unmarshal([]byte(body), &rep); err != nil && perr == nil {
				perr = err
			}
			if len(out.reps) == 0 {
				out.first = time.Since(start)
			}
			out.reps = append(out.reps, rep)
		case "done":
			if err := json.Unmarshal([]byte(body), &out.done); err != nil && perr == nil {
				perr = err
			}
		}
	}
	if _, err := io.Copy(io.Discard, stdout); err != nil && perr == nil {
		perr = err
	}
	werr := r.wait(cmd)
	if ps := cmd.ProcessState; ps != nil {
		out.usage, _ = ps.SysUsage().(*syscall.Rusage)
	}
	switch {
	case out.done.Err != "":
		return out, fmt.Errorf("fit child: %s", out.done.Err)
	case werr != nil:
		return out, fmt.Errorf("fit child: %w: %s", werr, lastLines(stderr.String(), 5))
	case perr != nil:
		return out, fmt.Errorf("fit child report: %w", perr)
	case len(out.reps) == 0:
		return out, errors.New("fit child reported no repetition")
	}
	return out, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], " | ")
}
