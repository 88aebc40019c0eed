package serve_test

// The serve-while-refit tier: an online server ingesting points, refitting
// at exact watermarks, and hot-swapping the served model — differentially
// pinned against stop-the-world fits through the public ClusterStream API.
// Every test here runs under the race soak's rules: concurrent clients,
// the race detector, and byte-level oracles.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	rpdbscan "rpdbscan"
	"rpdbscan/internal/chaos"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
	"rpdbscan/internal/transport"
)

// refitParams are the fit parameters every refit test uses; the offline
// oracle mirrors them exactly.
const (
	refitEps        = 0.3
	refitMinPts     = 4
	refitRho        = 0.01
	refitPartitions = 4
	refitWorkers    = 4
	refitSeed       = 1
	refitChunk      = 32 // several chunks per refit
)

// ingestPoint returns global stream point i: two tight blobs with
// interleaved scatter, a pure function of i so any ingest schedule draws
// from the same stream.
func ingestPoint(i int) []float64 {
	rng := rand.New(rand.NewSource(int64(i)*2654435761 + 99))
	if i%9 == 8 {
		return []float64{rng.Float64()*8 - 4, rng.Float64()*8 - 4}
	}
	c := float64(1 - 2*(i%2))
	return []float64{rng.NormFloat64()*0.15 + c, rng.NormFloat64()*0.15 + c}
}

// testRefitConfig returns the battery's base config; tests override what
// they need.
func testRefitConfig(t *testing.T, watermark int64) serve.RefitConfig {
	t.Helper()
	return serve.RefitConfig{
		Watermark:  watermark,
		ModelDir:   t.TempDir(),
		Eps:        refitEps,
		MinPts:     refitMinPts,
		Rho:        refitRho,
		Partitions: refitPartitions,
		Workers:    refitWorkers,
		Seed:       refitSeed,
		ChunkSize:  refitChunk,
	}
}

// swapRecorder collects SwapEvents and signals each arrival.
type swapRecorder struct {
	mu     sync.Mutex
	events []serve.SwapEvent
	ch     chan serve.SwapEvent
}

func newSwapRecorder() *swapRecorder {
	return &swapRecorder{ch: make(chan serve.SwapEvent, 64)}
}

func (s *swapRecorder) record(ev serve.SwapEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	s.ch <- ev
}

func (s *swapRecorder) all() []serve.SwapEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]serve.SwapEvent(nil), s.events...)
}

// waitVersion blocks until the refitter serves version v (fatal after 30s
// — refits are sub-second at these sizes).
func waitVersion(t *testing.T, r *serve.Refitter, v int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cur := r.Current(); cur != nil && cur.Version >= v {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("version %d never served", v)
}

// offlineArtifact is the stop-the-world oracle: fit the exact prefix
// through the public streaming API (a fully independent code path from the
// refitter) and return the canonical model artifact bytes.
func offlineArtifact(t *testing.T, coords []float64, dim int) []byte {
	t.Helper()
	src, err := rpdbscan.SliceSource(append([]float64(nil), coords...), dim)
	if err != nil {
		t.Fatal(err)
	}
	opts := rpdbscan.Options{
		Eps: refitEps, MinPts: refitMinPts, Rho: refitRho,
		Partitions: refitPartitions, Workers: refitWorkers, Seed: refitSeed,
	}
	res, err := rpdbscan.ClusterStream(src, rpdbscan.StreamOptions{Options: opts, ChunkSize: refitChunk})
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ModelFlat(coords, dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertDifferential proves every swapped generation byte-identical to the
// offline oracle over the same prefix, the parent-hash chain intact, and
// every generation retrievable from the model registry by hash — the same
// bytes the server swapped in, under a manifest that passes Verify.
func assertDifferential(t *testing.T, r *serve.Refitter, events []serve.SwapEvent) {
	t.Helper()
	dim := r.Buffer().Dim()
	reg := r.Registry()
	prevChecksum := ""
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("version %d failed: %v", ev.Version, ev.Err)
		}
		if ev.ParentHash != prevChecksum {
			t.Fatalf("version %d parent hash %q, want %q", ev.Version, ev.ParentHash, prevChecksum)
		}
		prevChecksum = ev.Checksum
		want := offlineArtifact(t, r.Buffer().Prefix(ev.Watermark), dim)
		if ev.ArtifactPath == "" {
			t.Fatalf("version %d persisted no artifact", ev.Version)
		}
		got, err := os.ReadFile(ev.ArtifactPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d artifact (%d bytes) differs from stop-the-world fit (%d bytes) on the same %d-point prefix",
				ev.Version, len(got), len(want), ev.Watermark)
		}
		m, err := serve.Decode(want)
		if err != nil {
			t.Fatal(err)
		}
		if sum := m.Info().Checksum; sum != ev.Checksum {
			t.Fatalf("version %d checksum %s, offline %s", ev.Version, ev.Checksum, sum)
		}
		// Registry retrievability: the generation must come back by hash,
		// byte-identical to what was served, with a manifest record that
		// names the exact version and watermark.
		hash, err := registry.ParseHash(ev.Checksum)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := reg.Blob(hash)
		if err != nil {
			t.Fatalf("version %d not retrievable from registry: %v", ev.Version, err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("version %d registry blob differs from the served artifact", ev.Version)
		}
		rec, ok := reg.ByHash(hash)
		if !ok || rec.Version != ev.Version || rec.Watermark != ev.Watermark {
			t.Fatalf("registry record for version %d = %+v, %v", ev.Version, rec, ok)
		}
	}
	rep, err := reg.Verify()
	if err != nil {
		t.Fatalf("registry verify: %v", err)
	}
	if rep.Records < len(events) {
		t.Fatalf("registry verified %d records for %d swaps", rep.Records, len(events))
	}
}

// postJSON drives one request through the handler, returning status+body.
func postJSON(h http.Handler, method, path string, body []byte) (int, []byte) {
	var req *http.Request
	if body == nil {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, append([]byte(nil), w.Body.Bytes()...)
}

// versionedPrediction mirrors the /predict reply shape.
type versionedPrediction struct {
	serve.Prediction
	ModelVersion int64 `json:"model_version"`
}

// TestServeWhileRefitDifferential is the headline battery: concurrent
// ingest and predict clients against a live online server (under -race),
// every swapped generation byte-identical to a stop-the-world fit of the
// same prefix, every prediction explainable by the exact version its reply
// names, and version reads monotone per client.
func TestServeWhileRefitDifferential(t *testing.T) {
	const (
		watermark  = 60
		versions   = 5
		total      = watermark * versions
		ingesters  = 4
		predictors = 6
	)
	rec := newSwapRecorder()
	cfg := testRefitConfig(t, watermark)
	cfg.OnSwap = rec.record
	r, err := serve.NewRefitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.NewServer(nil, serve.ServerConfig{MaxInFlight: 64, Refitter: r}).Handler()

	// Cold start: prediction endpoints must shed with 503, healthz stays
	// live.
	if code, body := postJSON(h, "POST", "/predict", []byte(`{"point":[1,1]}`)); code != http.StatusServiceUnavailable {
		t.Fatalf("cold-start predict = %d %q, want 503", code, body)
	}
	if code, _ := postJSON(h, "GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("cold-start healthz = %d, want 200", code)
	}

	// Ingest the first watermark through HTTP (mixing single and batch
	// forms) and wait for generation 1 before starting predictors, so
	// every prediction thereafter must be a 200.
	for i := 0; i < watermark; i += 4 {
		var pts [][]float64
		for j := i; j < i+4; j++ {
			pts = append(pts, ingestPoint(j))
		}
		body, _ := json.Marshal(map[string]any{"points": pts})
		if code, reply := postJSON(h, "POST", "/ingest", body); code != http.StatusOK {
			t.Fatalf("ingest = %d %q", code, reply)
		}
	}
	waitVersion(t, r, 1)

	// Serve-while-refit: ingesters push the remaining watermarks while
	// predictors hammer /predict, /predict/batch, and /model/info.
	var wg sync.WaitGroup
	for c := 0; c < ingesters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each ingester owns a disjoint residue class of the remaining
			// stream; batches of 5.
			for base := watermark + c*5; base < total; base += ingesters * 5 {
				var pts [][]float64
				for j := base; j < base+5; j++ {
					pts = append(pts, ingestPoint(j))
				}
				body, _ := json.Marshal(map[string]any{"points": pts})
				if code, reply := postJSON(h, "POST", "/ingest", body); code != http.StatusOK {
					t.Errorf("ingest = %d %q", code, reply)
					return
				}
			}
		}(c)
	}
	type obsPred struct {
		point   []float64
		version int64
		pred    serve.Prediction
	}
	observed := make([][]obsPred, predictors)
	for c := 0; c < predictors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1000))
			lastVersion := int64(0)
			for i := 0; i < 120; i++ {
				switch i % 3 {
				case 0, 1: // single predict
					p := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
					body, _ := json.Marshal(map[string]any{"point": p})
					code, reply := postJSON(h, "POST", "/predict", body)
					if code != http.StatusOK {
						t.Errorf("predict during refit = %d %q", code, reply)
						return
					}
					var vp versionedPrediction
					if err := json.Unmarshal(reply, &vp); err != nil {
						t.Errorf("predict reply: %v", err)
						return
					}
					if vp.ModelVersion < lastVersion {
						t.Errorf("client %d version went backwards: %d after %d", c, vp.ModelVersion, lastVersion)
						return
					}
					lastVersion = vp.ModelVersion
					observed[c] = append(observed[c], obsPred{point: p, version: vp.ModelVersion, pred: vp.Prediction})
				case 2: // model info
					code, reply := postJSON(h, "GET", "/model/info", nil)
					if code != http.StatusOK {
						t.Errorf("info during refit = %d %q", code, reply)
						return
					}
					var vi serve.VersionInfo
					if err := json.Unmarshal(reply, &vi); err != nil {
						t.Errorf("info reply: %v", err)
						return
					}
					if vi.Version < lastVersion {
						t.Errorf("client %d version went backwards: %d after %d", c, vi.Version, lastVersion)
						return
					}
					if vi.Watermark != vi.Version*watermark {
						t.Errorf("version %d reports watermark %d, want %d", vi.Version, vi.Watermark, vi.Version*watermark)
						return
					}
					lastVersion = vi.Version
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := r.Close(); err != nil { // drains every crossed watermark
		t.Fatal(err)
	}

	// Every watermark swapped exactly once, in order, no gaps.
	events := rec.all()
	if len(events) != versions {
		t.Fatalf("saw %d swap events, want %d", len(events), versions)
	}
	for i, ev := range events {
		if ev.Version != int64(i+1) || ev.Watermark != int64(i+1)*watermark {
			t.Fatalf("event %d = version %d watermark %d", i, ev.Version, ev.Watermark)
		}
	}
	assertDifferential(t, r, events)

	// Every prediction is explainable by the exact generation its reply
	// named: re-fit each observed version offline and replay the point.
	oracle := map[int64]*serve.Model{}
	for _, ev := range events {
		m, err := serve.Decode(offlineArtifact(t, r.Buffer().Prefix(ev.Watermark), 2))
		if err != nil {
			t.Fatal(err)
		}
		oracle[ev.Version] = m
	}
	checked := 0
	for c := range observed {
		for _, o := range observed[c] {
			m := oracle[o.version]
			if m == nil {
				t.Fatalf("prediction names version %d, which never swapped", o.version)
			}
			want, err := m.Predict(o.point)
			if err != nil {
				t.Fatal(err)
			}
			if want != o.pred {
				t.Fatalf("version %d predicted %+v for %v, offline fit of the same version predicts %+v",
					o.version, o.pred, o.point, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no predictions observed")
	}
	t.Logf("replayed %d predictions across %d versions", checked, len(oracle))
}

// ingestDirect appends points [from, to) straight through the refitter.
func ingestDirect(t *testing.T, r *serve.Refitter, from, to int) {
	t.Helper()
	for i := from; i < to; i += 8 {
		var flat []float64
		end := i + 8
		if end > to {
			end = to
		}
		for j := i; j < end; j++ {
			flat = append(flat, ingestPoint(j)...)
		}
		if _, _, err := r.Ingest(flat, 2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefitFailureNoTornSwap scripts a chaos schedule that exhausts the
// engine's full retry budget at one Phase II site during the first refit:
// the fit must fail, no artifact may appear, the served model must stay
// what it was (nil — cold start), and the next watermark must still swap
// cleanly with the failed version number left as a gap.
func TestRefitFailureNoTornSwap(t *testing.T) {
	const watermark = 40
	rec := newSwapRecorder()
	cfg := testRefitConfig(t, watermark)
	cfg.OnSwap = rec.record
	refits := 0
	cfg.Cluster = func() (*engine.Cluster, func(), error) {
		cl := engine.New(refitWorkers)
		cl.Sink = obs.NewSink(nil)
		refits++
		if refits == 1 {
			// Fail all three attempts of one Phase II task: chaos alone
			// must never exhaust the budget (MaxFaultsPerTask <= retries),
			// so exceeding it deliberately requires this scripted override.
			cl.Injector = chaos.MustNew(chaos.Config{
				Seed:             11,
				MaxFaultsPerTask: 3,
				Schedule:         []chaos.Fault{{Stage: "cell-graph-construction", Task: 0, Attempts: 3}},
			})
		}
		return cl, func() {}, nil
	}
	r, err := serve.NewRefitter(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ingestDirect(t, r, 0, watermark)
	ev := <-rec.ch
	if ev.Version != 1 || ev.Err == nil {
		t.Fatalf("first refit = version %d err %v, want a version-1 failure", ev.Version, ev.Err)
	}
	if cur := r.Current(); cur != nil {
		t.Fatalf("failed refit swapped a model in: version %d", cur.Version)
	}
	if head, ok := r.Registry().Head(); ok {
		t.Fatalf("failed refit published a manifest record: %+v", head)
	}
	blobs, err := os.ReadDir(filepath.Join(cfg.ModelDir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range blobs {
		t.Fatalf("failed refit left artifact blob %s", e.Name())
	}

	// The next watermark proceeds as if nothing happened; version 1 stays
	// a gap.
	ingestDirect(t, r, watermark, 2*watermark)
	ev = <-rec.ch
	if ev.Version != 2 || ev.Err != nil {
		t.Fatalf("second refit = version %d err %v, want a clean version 2", ev.Version, ev.Err)
	}
	waitVersion(t, r, 2)
	if cur := r.Current(); cur.ParentHash != "" {
		t.Fatalf("version 2 parent hash %q, want \"\" (nothing served before it)", cur.ParentHash)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	want := offlineArtifact(t, r.Buffer().Prefix(2*watermark), 2)
	got, err := os.ReadFile(ev.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-failure artifact differs from stop-the-world fit")
	}
}

// TestRefitChaosLedgerReconciled runs three refits under probabilistic
// task failures and payload corruption from one shared injector, then
// reconciles the injector's tally exactly against the summed per-refit
// engine ledgers — and still demands byte-identical artifacts.
func TestRefitChaosLedgerReconciled(t *testing.T) {
	const watermark = 50
	// Corruption's only surface under RunStream is the dictionary-load
	// fetch — a handful of deterministic sites — so it needs a high
	// probability to fire; the final transfer attempt is always clean, so
	// no rate can exhaust a retry budget.
	inj := chaos.MustNew(chaos.Config{Seed: 7, FailProb: 0.3, CorruptProb: 0.9})
	rec := newSwapRecorder()
	cfg := testRefitConfig(t, watermark)
	cfg.OnSwap = rec.record
	cfg.Injector = inj
	r, err := serve.NewRefitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, r, 0, 3*watermark)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events := rec.all()
	if len(events) != 3 {
		t.Fatalf("saw %d swap events, want 3", len(events))
	}
	assertDifferential(t, r, events)

	var ledger engine.FaultStats
	for _, ev := range events {
		ledger.Add(ev.Report.TotalFaults())
	}
	stats := inj.Stats()
	if ledger.InjectedFailures != stats.Failures {
		t.Fatalf("engine ledgers total %d injected failures, injector tallied %d",
			ledger.InjectedFailures, stats.Failures)
	}
	if ledger.ChecksumRejects != stats.Corruptions {
		t.Fatalf("engine ledgers total %d checksum rejects, injector tallied %d corruptions",
			ledger.ChecksumRejects, stats.Corruptions)
	}
	if stats.Failures == 0 || stats.Corruptions == 0 {
		t.Fatalf("chaos injected nothing (failures=%d corruptions=%d) at rate 0.3",
			stats.Failures, stats.Corruptions)
	}
}

// TestRefitProcKillChaos refits on the multi-process backend with
// process-level kill chaos: every refit binds a real transport of
// in-process loopback workers (so -race still sees them), the injector
// SIGKILL-equivalently drops workers under running tasks, and the swapped
// artifacts must still match the stop-the-world oracle byte for byte, with
// the kill ledger reconciled exactly.
func TestRefitProcKillChaos(t *testing.T) {
	const watermark = 60
	inj := chaos.MustNew(chaos.Config{Seed: 3, KillProb: 0.5})
	rec := newSwapRecorder()
	cfg := testRefitConfig(t, watermark)
	cfg.OnSwap = rec.record
	cfg.Cluster = func() (*engine.Cluster, func(), error) {
		cl := engine.New(refitWorkers)
		cl.Sink = obs.NewSink(nil)
		cl.Injector = inj
		tr, err := transport.NewProc(2, transport.Options{
			Spawn:    transport.InProcess(),
			Injector: inj,
			Killer:   inj,
		})
		if err != nil {
			return nil, nil, err
		}
		tr.Bind(cl)
		return cl, func() { tr.Close() }, nil
	}
	r, err := serve.NewRefitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, r, 0, 2*watermark)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events := rec.all()
	if len(events) != 2 {
		t.Fatalf("saw %d swap events, want 2", len(events))
	}
	assertDifferential(t, r, events)

	var ledger engine.FaultStats
	for _, ev := range events {
		ledger.Add(ev.Report.TotalFaults())
	}
	stats := inj.Stats()
	if ledger.WorkerKills != stats.Kills {
		t.Fatalf("engine ledgers total %d worker kills, injector tallied %d", ledger.WorkerKills, stats.Kills)
	}
	if stats.Kills == 0 {
		t.Fatal("kill chaos killed no workers at rate 0.5")
	}
}

// TestRefitterRecoversDurableBuffer closes an online server mid-stream and
// reopens it over the same buffer and model directories: the stream and
// the served generation must come back (boot resolves through the
// registry head, as rpserve does), and refits must continue from where
// they left off.
func TestRefitterRecoversDurableBuffer(t *testing.T) {
	const watermark = 40
	bufDir := t.TempDir()
	modelDir := t.TempDir()
	mk := func(rec *swapRecorder) *serve.Refitter {
		cfg := testRefitConfig(t, watermark)
		cfg.ModelDir = modelDir
		cfg.BufferDir = bufDir
		cfg.OnSwap = rec.record
		reg, err := registry.Open(modelDir)
		if err != nil {
			t.Fatal(err)
		}
		if head, ok := reg.Head(); ok {
			blob, err := reg.Blob(head.ModelHash)
			if err != nil {
				t.Fatal(err)
			}
			boot, err := serve.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Boot, cfg.BootVersion = boot, head.Version
			if head.Parent != 0 {
				cfg.BootParentHash = registry.FormatHash(head.Parent)
			}
		}
		cfg.Registry = reg
		r, err := serve.NewRefitter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		return r
	}

	rec1 := newSwapRecorder()
	r1 := mk(rec1)
	ingestDirect(t, r1, 0, watermark+13) // one watermark plus a tail
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	// The first life's registry is caller-owned: close it so the manifest
	// record is sealed before the second life opens the same directory.
	if err := r1.Registry().Close(); err != nil {
		t.Fatal(err)
	}
	if ev := <-rec1.ch; ev.Version != 1 || ev.Err != nil {
		t.Fatalf("first life: version %d err %v", ev.Version, ev.Err)
	}

	// Second life: recovery replays the sealed stream, boots generation 1
	// from its artifact, and the next watermark refits over old + new
	// points.
	rec2 := newSwapRecorder()
	r2 := mk(rec2)
	if got := r2.Buffer().Total(); got != watermark+13 {
		t.Fatalf("recovered %d points, want %d", got, watermark+13)
	}
	if cur := r2.Current(); cur == nil || cur.Version != 1 {
		t.Fatalf("recovered serving snapshot %+v, want version 1", cur)
	}
	ingestDirect(t, r2, watermark+13, 2*watermark)
	ev := <-rec2.ch
	if ev.Version != 2 || ev.Err != nil {
		t.Fatalf("second life: version %d err %v", ev.Version, ev.Err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	// The recovered prefix must equal the original stream exactly.
	prefix := r2.Buffer().Prefix(2 * watermark)
	for i := 0; i < 2*watermark; i++ {
		want := ingestPoint(i)
		if prefix[2*i] != want[0] || prefix[2*i+1] != want[1] {
			t.Fatalf("recovered point %d = (%g,%g), want (%g,%g)",
				i, prefix[2*i], prefix[2*i+1], want[0], want[1])
		}
	}
	want := offlineArtifact(t, prefix, 2)
	got, err := os.ReadFile(ev.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-recovery artifact differs from stop-the-world fit over the recovered stream")
	}
	// And the registry head resolves the newest generation — the boot
	// path a third life would take.
	head, ok := r2.Registry().Head()
	if !ok || head.Version != 2 {
		t.Fatalf("registry head = %+v, %v; want version 2", head, ok)
	}
	blob, err := r2.Registry().Blob(head.ModelHash)
	if err != nil {
		t.Fatal(err)
	}
	m, err := serve.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("fnv1a:%016x", m.Checksum()) != ev.Checksum {
		t.Fatal("registry head resolves a different artifact than the swap event")
	}
	if head.Parent == 0 {
		t.Fatal("version 2 record lost its parent lineage")
	}
}
