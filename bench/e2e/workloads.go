package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rpdbscan/internal/core"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/pointio"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
)

// workload is one input set and traffic mix, with why the benchmark has it.
type workload struct {
	name, why string
	run       func(*runner) error
}

var workloads = []workload{
	{"fit-dense", "CSV to published model on dense 3-d SimCosmo: Phase II (cell graphs) does most of the work", runFit},
	{"fit-stream-sparse", "out-of-core fit of sparse 2-d SimOSM: dictionary build and spill dominate, Phase II does little", runFit},
	{"serve-steady", "open-loop predicts at 1000 req/s against a fixed model: the read path alone", runServeSteady},
	{"serve-refit", "predicts at 1000 req/s beside 10k ingested points/s and refits: what refit and swap cost reads", runServeRefit},
}

// runFit measures a fit workload: one child process does a cold
// repetition and then warm repetitions for the window; further children
// each do a cold repetition, so setup_s is a median of fresh processes.
func runFit(r *runner) error {
	var pts *geom.Points
	if r.name == "fit-dense" {
		pts = densePoints(r.p.denseN, r.seed)
	} else {
		pts = sparsePoints(r.p.sparseN, r.seed)
	}
	csv := filepath.Join(r.dir, "points.csv")
	if err := writeCSV(csv, pts); err != nil {
		return err
	}
	job := fitJob{Workload: r.name, CSV: csv, Dir: r.dir, Seconds: r.seconds, MinWarm: r.p.minWarm, Trace: r.trace}
	run, err := r.fitChild(job)
	if err != nil {
		return err
	}
	setups := []float64{run.first.Seconds()}
	digests := repDigests(run.reps)
	cold := job
	cold.Seconds = 0
	for len(setups) < r.p.setupReps {
		c, err := r.fitChild(cold)
		if err != nil {
			return err
		}
		setups = append(setups, c.first.Seconds())
		digests = append(digests, repDigests(c.reps)...)
	}
	want, ok := pinned[r.pinKey(r.name)]
	if !ok {
		other := cold
		other.Other = true
		c, err := r.fitChild(other)
		if err != nil {
			return err
		}
		want = c.done.Other
		digests = append(digests, repDigests(c.reps)...)
	}
	r.attempted += len(digests)
	for _, d := range digests {
		if d != want {
			r.failed++
		}
	}
	if r.failed > 0 {
		r.problem("%d of %d fits have labels+core digest != %s", r.failed, len(digests), want)
	}
	r.digest = want

	warm := run.reps[1:]
	var wall, cpu []float64
	for _, rep := range warm {
		wall = append(wall, rep.WallMs)
		cpu = append(cpu, rep.CPUMs)
	}
	r.addUsage(run.usage, 0)
	r.e2e["setup_s"] = median(setups)
	r.e2e["latency_p50_ms"] = median(wall)
	r.e2e["latency_p98_ms"] = maxOf(wall)
	r.e2e["cpu_ms_per_op"] = median(cpu)
	if r.trace {
		addRepLayers(r.layers, warm)
		for name, v := range run.done.Layers {
			r.layers[name] = v
		}
		r.overhead(warm)
		r.rec.addAll(run.done.Spans)
	}
	return nil
}

func repDigests(reps []repResult) []string {
	var out []string
	for _, rep := range reps {
		out = append(out, rep.Digest)
	}
	return out
}

// addRepLayers records the median over traced repetitions of every layer
// timing they carry.
func addRepLayers(lay map[string]float64, reps []repResult) {
	vals := map[string][]float64{}
	for _, rep := range reps {
		if rep.Traced {
			for name, v := range rep.Layers {
				vals[name] = append(vals[name], v)
			}
		}
	}
	for name, vs := range vals {
		lay[name] = median(vs)
	}
}

// overhead reports how much slower traced repetitions ran than untraced
// ones of the same run.
func (r *runner) overhead(reps []repResult) {
	var on, off []float64
	for _, rep := range reps {
		if rep.Traced {
			on = append(on, rep.WallMs)
		} else {
			off = append(off, rep.WallMs)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		r.layers["trace.overhead_pct"] = 100 * (median(on)/median(off) - 1)
	}
}

// runServeSteady boots rpserve from a registry whose head is the fit-dense
// model of the same seed and sends open-loop predicts for the window.
func runServeSteady(r *runner) error {
	pts := densePoints(r.p.denseN, r.seed)
	csv := filepath.Join(r.dir, "points.csv")
	if err := writeCSV(csv, pts); err != nil {
		return err
	}
	regDir := filepath.Join(r.dir, "registry")
	prep, err := r.fitChild(fitJob{Workload: "fit-dense", CSV: csv, Dir: r.dir, Trace: r.trace, Registry: regDir})
	if err != nil {
		return fmt.Errorf("fit the served model: %w", err)
	}
	if want, ok := pinned[r.pinKey("fit-dense")]; ok && prep.reps[0].Digest != want {
		r.problem("served model's labels+core digest %s != pinned %s", prep.reps[0].Digest, want)
	}
	if r.trace {
		addRepLayers(r.layers, prep.reps)
		r.rec.addAll(prep.done.Spans)
	}

	qs := queries(pts, denseEps, r.p, r.seed, int(r.p.predictRate*r.seconds))
	shots := make([]shot, len(qs))
	for i, q := range qs {
		shots[i] = shot{due: time.Duration(float64(i) / r.p.predictRate * float64(time.Second)), path: q.path, body: q.body, ref: i}
	}
	var srv *server
	var setups []float64
	for b := 0; b < r.p.setupReps; b++ {
		if srv != nil {
			if _, err := r.stopServer(srv); err != nil {
				return err
			}
		}
		t0 := time.Now()
		srv, err = r.startServer(serveArgs(regDir, filepath.Join(r.dir, fmt.Sprintf("buffer-%d", b)), r.p.watermark))
		if err != nil {
			return err
		}
		if err := r.awaitModel(srv, qs[0].body, 1); err != nil {
			r.stopServer(srv)
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	clients, err := r.connect(srv)
	if err != nil {
		r.stopServer(srv)
		return err
	}
	defer closeClients(clients)
	var enough atomic.Bool
	replies, err := r.window(srv, shots, clients, &enough, nil)
	usage, serr := r.stopServer(srv)
	if err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.predictLatency(shots, replies, r.seconds)
	r.addUsage(usage, r.answered)
	if r.trace {
		addGeneratorLayers(r.layers, shots, replies, len(clients))
	}
	if late := rank(lateness(shots, replies), 0.99); late > 2 {
		r.invalid("generator p99 lateness %.2f ms exceeds 2 ms: the generator, not the server, limited this run", late)
	}
	reg, err := r.openRegistry(regDir)
	if err != nil {
		return err
	}
	defer reg.Close()
	return r.checkPredictions(reg, qs, shots, replies)
}

// runServeRefit cold-starts rpserve with a refit watermark, ingests the
// SimCosmo stream open-loop at a fixed point rate and sends the predict mix
// beside it.
func runServeRefit(r *runner) error {
	p := r.p
	pts := densePoints(p.denseN, r.seed)
	// Ingest whole watermarks only, so the window ends on a crossing.
	crossings := int(p.ingestRate * r.seconds / float64(p.watermark))
	crossings = max(1, min(crossings, p.denseN/p.watermark-1))
	total := (crossings + 1) * p.watermark
	bodies := ingestBodies(&geom.Points{Dim: pts.Dim, Coords: pts.Coords[:total*pts.Dim]}, p.ingestBatch)
	bootBatches := p.watermark / p.ingestBatch
	window := time.Duration(float64(crossings*p.watermark) / p.ingestRate * float64(time.Second))
	last := int64(crossings + 1)

	qs := queries(pts, denseEps, p, r.seed, int(p.predictRate*(window.Seconds()+p.refitTail)))
	var shots []shot
	for j := bootBatches; j < len(bodies); j++ {
		due := time.Duration(float64((j-bootBatches)*p.ingestBatch) / p.ingestRate * float64(time.Second))
		shots = append(shots, shot{due: due, path: "/ingest", body: bodies[j], ref: j})
	}
	for i, q := range qs {
		due := time.Duration(float64(i) / p.predictRate * float64(time.Second))
		shots = append(shots, shot{due: due, path: q.path, body: q.body, ref: i, tail: due >= window})
	}
	sort.SliceStable(shots, func(a, b int) bool { return shots[a].due < shots[b].due })

	var srv *server
	var setups []float64
	var regDir string
	var bootTotals []int64
	for b := 0; b < p.setupReps; b++ {
		if srv != nil {
			if _, err := r.stopServer(srv); err != nil {
				return err
			}
		}
		regDir = filepath.Join(r.dir, fmt.Sprintf("registry-%d", b))
		t0 := time.Now()
		var err error
		srv, err = r.startServer(serveArgs(regDir, filepath.Join(r.dir, fmt.Sprintf("buffer-%d", b)), p.watermark))
		if err != nil {
			return err
		}
		if bootTotals, err = r.ingestAll(srv, bodies[:bootBatches]); err == nil {
			err = r.awaitModel(srv, qs[0].body, 1)
		}
		if err != nil {
			r.stopServer(srv)
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	clients, err := r.connect(srv)
	if err != nil {
		r.stopServer(srv)
		return err
	}
	defer closeClients(clients)
	// The predict stream runs on past the window until a reply comes from
	// the last version, so that the last refit's lag is observed too.
	var enough atomic.Bool
	observe := func(i int, rp *reply) {
		if shots[i].path == "/ingest" || rp.status != http.StatusOK {
			return
		}
		var pr struct {
			ModelVersion int64 `json:"model_version"`
		}
		if json.Unmarshal(rp.body, &pr) == nil && pr.ModelVersion >= last {
			enough.Store(true)
		}
	}
	replies, err := r.window(srv, shots, clients, &enough, observe)
	swaps, failures := srv.swapLog()
	usage, serr := r.stopServer(srv)
	if err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.predictLatency(shots, replies, window.Seconds())
	r.addUsage(usage, r.answered)
	if !enough.Load() {
		r.problem("no predict reply carried version %d within %.0f s of the last ingest", last, p.refitTail)
	}
	if failures > 0 {
		r.problem("%d refits failed", failures)
	}

	// Acked ingest batches in the order the server appended them: each
	// reply's total_points says where its batch landed.
	order := make([]int, total/p.ingestBatch)
	for j := range order {
		order[j] = -1
	}
	place := func(batch int, total int64) {
		pos := int(total)/p.ingestBatch - 1
		if total%int64(p.ingestBatch) != 0 || pos < 0 || pos >= len(order) || order[pos] != -1 {
			r.problem("ingest batch %d acknowledged at stream total %d", batch, total)
			return
		}
		order[pos] = batch
	}
	for j, t := range bootTotals {
		place(j, t)
	}
	var ingestLat []float64
	acks := map[int64]time.Duration{} // crossing version -> ack time
	versions := make([]int64, len(shots))
	for i := range shots {
		s, rp := &shots[i], &replies[i]
		versions[i] = -1
		if rp.skipped || rp.err != nil || rp.status != http.StatusOK {
			continue // predictLatency counted the failures
		}
		if s.path != "/ingest" {
			var pr predictReply
			if json.Unmarshal(rp.body, &pr) == nil {
				versions[i] = pr.ModelVersion
			}
			continue
		}
		var ack struct {
			Accepted    int   `json:"accepted"`
			TotalPoints int64 `json:"total_points"`
		}
		if err := json.Unmarshal(rp.body, &ack); err != nil || ack.Accepted != p.ingestBatch {
			r.problem("ingest batch %d: reply %s", s.ref, rp.body)
			continue
		}
		ingestLat = append(ingestLat, rp.latencyMs(s))
		place(s.ref, ack.TotalPoints)
		if ack.TotalPoints%int64(p.watermark) == 0 {
			acks[ack.TotalPoints/int64(p.watermark)] = rp.done
		}
	}
	r.layers["serve.ingest_p99_ms"] = rank(ingestLat, 0.99)

	// Refit lag: from the ack of the ingest that crossed v*W to the first
	// predict reply carrying model_version >= v.
	var lags []float64
	for v := int64(2); v <= last; v++ {
		ack, ok := acks[v]
		if !ok {
			continue
		}
		first := time.Duration(math.MaxInt64)
		for i := range shots {
			if versions[i] >= v && replies[i].done >= ack {
				first = min(first, replies[i].done)
			}
		}
		if first != time.Duration(math.MaxInt64) {
			lags = append(lags, (first - ack).Seconds())
		}
	}
	r.layers["serve.refit.lag_s"] = median(lags)
	var fitMs, swapMs []float64
	for _, e := range swaps {
		if e.Version >= 2 {
			fitMs = append(fitMs, e.FitMs)
			swapMs = append(swapMs, e.SwapUs/1e3)
		}
	}
	r.layers["serve.refit.fit_ms_p50"] = median(fitMs)
	r.layers["serve.refit.fit_ms_max"] = maxOf(fitMs)
	r.layers["serve.refit.swap_ms_p50"] = median(swapMs)
	r.layers["serve.refit.swap_ms_max"] = maxOf(swapMs)
	r.layers["serve.refit.runs"] = float64(len(fitMs))
	r.layers["serve.refit.failures"] = float64(failures)
	if r.trace {
		addGeneratorLayers(r.layers, shots, replies, len(clients))
	}

	reg, err := r.openRegistry(regDir)
	if err != nil {
		return err
	}
	defer reg.Close()
	recs := reg.Records()
	for i, rec := range recs {
		if rec.Version != int64(i+1) || rec.Watermark != rec.Version*int64(p.watermark) {
			r.problem("registry record %d is version %d at watermark %d, want version %d at %d",
				i, rec.Version, rec.Watermark, i+1, int64(i+1)*int64(p.watermark))
		}
	}
	if int64(len(recs)) != last {
		r.problem("registry holds %d versions, want %d", len(recs), last)
	}
	if err := r.checkPredictions(reg, qs, shots, replies); err != nil {
		return err
	}
	for _, j := range order {
		if j < 0 {
			r.problem("an ingest batch was never acknowledged")
			return nil
		}
	}
	return r.checkRefit(reg, pts, order, last)
}

// connect opens the generator's connection pool before the window, so
// that connection set-up is not measured.
func (r *runner) connect(srv *server) ([]*http.Client, error) {
	clients := make([]*http.Client, r.p.conns)
	for i := range clients {
		clients[i] = newClient()
		if status, _, err := send(clients[i], http.MethodGet, srv.url("/healthz"), nil); err != nil || status != http.StatusOK {
			closeClients(clients[:i+1])
			return nil, fmt.Errorf("connect: status %d: %v", status, err)
		}
	}
	return clients, nil
}

// window runs the measured window, scraping rpserve before and after it
// in a traced run.
func (r *runner) window(srv *server, shots []shot, clients []*http.Client, enough *atomic.Bool, observe func(int, *reply)) ([]reply, error) {
	var before scrape
	if r.trace {
		var err error
		if before, err = scrapeServer(srv); err != nil {
			return nil, err
		}
	}
	parent, start := r.rec.begin()
	replies := fire(srv.url(""), shots, clients, enough, observe, r.rec, parent)
	r.rec.end(parent, 0, r.name+" window", start)
	if r.trace {
		after, err := scrapeServer(srv)
		if err != nil {
			return nil, err
		}
		addServerLayers(r.layers, before, after)
	}
	return replies, nil
}

// awaitModel polls /predict until it answers 200 from model version >= v.
func (r *runner) awaitModel(srv *server, body []byte, v int64) error {
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(time.Duration(r.p.bootLimit * float64(time.Second)))
	for time.Now().Before(deadline) {
		status, out, err := send(c, http.MethodPost, srv.url("/predict"), body)
		var pr predictReply
		if err == nil && status == http.StatusOK && json.Unmarshal(out, &pr) == nil && pr.ModelVersion >= v {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("rpserve served no model version >= %d within %.0f s: %s", v, r.p.bootLimit, srv.lastLog())
}

// ingestAll sends bodies as fast as the connections allow and returns each
// batch's acknowledged stream total.
func (r *runner) ingestAll(srv *server, bodies [][]byte) ([]int64, error) {
	totals := make([]int64, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				status, out, err := send(cl, http.MethodPost, srv.url("/ingest"), bodies[i])
				var ack struct {
					TotalPoints int64 `json:"total_points"`
				}
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("ingest: status %d: %s", status, out)
				}
				if err == nil {
					err = json.Unmarshal(out, &ack)
				}
				if err != nil {
					errs[c] = err
					return
				}
				totals[i] = ack.TotalPoints
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return totals, nil
}

// predictLatency records the e2e latency of predicts due inside the
// window and counts every request that failed.
func (r *runner) predictLatency(shots []shot, replies []reply, window float64) {
	var lat []float64
	// Untraced (even) and traced (odd) single predicts; batches, every
	// batchEvery-th request, would all fall on one side.
	var parity [2][]float64
	for i := range shots {
		s, p := &shots[i], &replies[i]
		if p.skipped {
			continue
		}
		r.attempted++
		if p.err != nil || p.status != http.StatusOK {
			r.failed++
			if r.failed <= 3 {
				r.problem("%s #%d: status %d: %v %s", s.path, i, p.status, p.err, p.body)
			}
			continue
		}
		if s.path != "/ingest" {
			r.answered++
			if s.due.Seconds() < window {
				lat = append(lat, p.latencyMs(s))
				if s.path == "/predict" {
					parity[i%2] = append(parity[i%2], p.latencyMs(s))
				}
			}
		}
	}
	r.e2e["latency_p50_ms"] = rank(lat, 0.50)
	// The tail is p98, 300 requests beyond it in a 15 s window. On the
	// steady path about 1% of requests meet millisecond bursts of the host,
	// so p99 sits on that knee (its spread over ten seeds was 25-64%, p98's
	// 5%); under refit p98 lies inside the refit stalls like p99.
	r.e2e["latency_p98_ms"] = rank(lat, 0.98)
	if r.trace {
		r.layers["trace.overhead_pct"] = 100 * (rank(parity[1], 0.5)/rank(parity[0], 0.5) - 1)
	}
}

func (r *runner) openRegistry(dir string) (*registry.Registry, error) {
	t := time.Now()
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open registry: %w", err)
	}
	r.layers["registry.open_ms"] = ms(time.Since(t))
	return reg, nil
}

// checkPredictions replays every answered predict against Model.Predict on
// the registry blob of the model version the reply names. A mismatch is a
// failed request. It also times the model layer directly over the same
// queries.
func (r *runner) checkPredictions(reg *registry.Registry, qs []query, shots []shot, replies []reply) error {
	models := map[int64]*serve.Model{}
	decode := map[int64]time.Duration{}
	model := func(v int64) (*serve.Model, error) {
		if m, ok := models[v]; ok {
			return m, nil
		}
		rec, ok := reg.ByVersion(v)
		if !ok {
			return nil, fmt.Errorf("no registry record for version %d", v)
		}
		blob, err := reg.Blob(rec.ModelHash)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		m, err := serve.Decode(blob)
		decode[v] = time.Since(t)
		models[v] = m
		return m, err
	}
	wrong := 0
	var newest int64
	for i := range shots {
		s, p := &shots[i], &replies[i]
		if s.path == "/ingest" || p.skipped || p.err != nil || p.status != http.StatusOK {
			continue
		}
		var got predictReply
		if err := json.Unmarshal(p.body, &got); err != nil {
			wrong++
			continue
		}
		m, err := model(got.ModelVersion)
		if err != nil {
			return err
		}
		newest = max(newest, got.ModelVersion)
		q := qs[s.ref]
		want, err := m.PredictBatch(q.points)
		if err != nil {
			return err
		}
		if !samePredictions(&got, want, s.path == "/predict/batch") {
			wrong++
			if wrong <= 3 {
				r.problem("%s #%d from version %d: got %s", s.path, i, got.ModelVersion, p.body)
			}
		}
	}
	r.failed += wrong
	if wrong > 0 {
		r.problem("%d predict replies differ from Model.Predict on their registry version", wrong)
	}
	if m := models[newest]; m != nil {
		r.layers["serve.model.decode_ms"] = ms(decode[newest])
		r.timePredict(m, qs)
	}
	return nil
}

func samePredictions(got *predictReply, want []serve.Prediction, batch bool) bool {
	same := func(g *predictReply, w serve.Prediction) bool {
		return g.Label == w.Label && g.Noise == w.Noise && g.CoreIndex == w.CoreIndex && g.CoreDist == w.CoreDist
	}
	if !batch {
		return len(want) == 1 && same(got, want[0])
	}
	if len(got.Predictions) != len(want) {
		return false
	}
	noise := 0
	for i := range want {
		if !same(&got.Predictions[i], want[i]) {
			return false
		}
		if want[i].Noise {
			noise++
		}
	}
	return got.NoiseCount == noise
}

// timePredict times Model.Predict and Model.PredictBatch directly over the
// window's queries: the model layer without HTTP.
func (r *runner) timePredict(m *serve.Model, qs []query) {
	var single, batch time.Duration
	var singles, points int
	for _, q := range qs {
		t := time.Now()
		if q.path == "/predict" {
			m.Predict(q.points[0])
			single += time.Since(t)
			singles++
		} else {
			m.PredictBatch(q.points)
			batch += time.Since(t)
			points += len(q.points)
		}
	}
	if singles > 0 {
		r.layers["serve.model.predict_ns"] = float64(single.Nanoseconds()) / float64(singles)
	}
	if points > 0 {
		r.layers["serve.model.batch_ns_per_point"] = float64(batch.Nanoseconds()) / float64(points)
	}
}

// checkRefit refits the newest generation's exact prefix offline, the way
// the refitter does (out-of-core pipeline, same configuration), and checks
// that the registry holds a byte-identical artifact. In a traced run the
// offline fit also supplies the core and dictionary layer metrics.
func (r *runner) checkRefit(reg *registry.Registry, pts *geom.Points, order []int, version int64) error {
	rec, ok := reg.ByVersion(version)
	if !ok {
		r.problem("no registry record for version %d", version)
		return nil
	}
	n := int(rec.Watermark)
	prefix := geom.NewPoints(pts.Dim, n)
	for _, batch := range order[:n/r.p.ingestBatch] {
		for i := batch * r.p.ingestBatch; i < (batch+1)*r.p.ingestBatch; i++ {
			prefix.Append(pts.At(i))
		}
	}
	id, start := r.rec.begin()
	cfg := core.StreamConfig{Config: coreConfig(denseEps), SpillDir: r.dir}
	res, err := core.RunStream(pointio.FromPoints(prefix), cfg, engine.New(k))
	r.rec.end(id, 0, "offline refit: core.RunStream", start)
	if err != nil {
		return fmt.Errorf("offline refit: %w", err)
	}
	m, err := serve.New(prefix.Coords, prefix.Dim, res.Labels, res.CorePoint, denseEps, minPts, rho, res.NumClusters)
	if err != nil {
		return fmt.Errorf("offline refit: %w", err)
	}
	if m.Checksum() != rec.ModelHash {
		r.problem("version %d: registry artifact %s, offline refit of the same prefix %s",
			version, registry.FormatHash(rec.ModelHash), registry.FormatHash(m.Checksum()))
	}
	if r.trace {
		addCoreLayers(r.layers, res)
	}
	return nil
}

func (r *runner) writeTrace(path string, meta any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeChrome(path, r.rec.all(), r.origin, meta)
}
