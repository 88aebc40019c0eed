package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rpdbscan/internal/obs"
)

// do runs one in-process request against the server's handler.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		r.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestEndpointStatusAndBodies(t *testing.T) {
	m := testModel(t)
	srv := NewServer(m, ServerConfig{MaxBodyBytes: 256, MaxBatch: 4})
	h := srv.Handler()
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{"healthz", "GET", "/healthz", "", 200, `{"status":"ok"}`},
		{"healthz wrong method", "POST", "/healthz", "", 405, "method not allowed"},
		{"info", "GET", "/model/info", "", 200, `"core_points"`},
		{"predict", "POST", "/predict", `{"point":[-1,-1]}`, 200, `"label":`},
		{"predict wrong method", "GET", "/predict", "", 405, "method not allowed"},
		{"predict bad json", "POST", "/predict", `{"point":`, 400, "invalid request body"},
		{"predict unknown field", "POST", "/predict", `{"pt":[1,2]}`, 400, "invalid request body"},
		{"predict trailing data", "POST", "/predict", `{"point":[1,2]}{"point":[3,4]}`, 400, "trailing data"},
		{"predict dim mismatch", "POST", "/predict", `{"point":[1,2,3]}`, 400, "model dimension"},
		{"predict empty body", "POST", "/predict", "", 400, "invalid request body"},
		{"predict oversized", "POST", "/predict", `{"point":[` + strings.Repeat("1,", 400) + `1]}`, 413, "too large"},
		{"batch", "POST", "/predict/batch", `{"points":[[-1,-1],[99,99]]}`, 200, `"noise_count":1`},
		{"batch too many points", "POST", "/predict/batch", `{"points":[[1,2],[1,2],[1,2],[1,2],[1,2]]}`, 400, "exceeds limit"},
		{"batch bad point", "POST", "/predict/batch", `{"points":[[1]]}`, 400, "point 0"},
		{"not found", "GET", "/nope", "", 404, "not found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(h, tc.method, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", w.Code, tc.wantStatus, w.Body.String())
			}
			if got := w.Body.String(); !strings.Contains(got, tc.wantInBody) {
				t.Fatalf("body %q does not contain %q", got, tc.wantInBody)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			if !bytes.HasSuffix(w.Body.Bytes(), []byte("\n")) {
				t.Fatalf("body not newline-terminated: %q", w.Body.String())
			}
		})
	}
}

// TestBackpressure429 fills the admission queue directly (in-package, via
// the semaphore) and asserts the next request is shed with 429 plus a
// Retry-After header, then admitted again once a slot frees.
func TestBackpressure429(t *testing.T) {
	srv := NewServer(testModel(t), ServerConfig{MaxInFlight: 2})
	h := srv.Handler()
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	before := obs.Counters.ServeRejects.Value()
	w := do(h, "GET", "/healthz", "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := obs.Counters.ServeRejects.Value(); got != before+1 {
		t.Fatalf("ServeRejects = %d, want %d", got, before+1)
	}
	<-srv.sem
	if w := do(h, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("after freeing a slot: status = %d, want 200", w.Code)
	}
	<-srv.sem
}

// TestCountersAccumulate asserts the expvar wiring: requests, predicted
// points, errors, and latency all move.
func TestCountersAccumulate(t *testing.T) {
	h := NewServer(testModel(t), ServerConfig{}).Handler()
	c := obs.Counters
	reqs, pts, errs, lat := c.ServeRequests.Value(), c.ServePredictPoints.Value(), c.ServeErrors.Value(), c.ServeLatencyNs.Value()
	do(h, "POST", "/predict", `{"point":[-1,-1]}`)
	do(h, "POST", "/predict/batch", `{"points":[[-1,-1],[1,1],[0,0]]}`)
	do(h, "GET", "/nope", "")
	if got := c.ServeRequests.Value() - reqs; got != 3 {
		t.Fatalf("ServeRequests moved by %d, want 3", got)
	}
	if got := c.ServePredictPoints.Value() - pts; got != 4 {
		t.Fatalf("ServePredictPoints moved by %d, want 4", got)
	}
	if got := c.ServeErrors.Value() - errs; got != 1 {
		t.Fatalf("ServeErrors moved by %d, want 1", got)
	}
	if c.ServeLatencyNs.Value() == lat {
		t.Fatal("ServeLatencyNs did not move")
	}
}

// TestPredictResponseIsCanonicalJSON pins the exact response encoding the
// golden CLI tests and the soak oracle rely on.
func TestPredictResponseIsCanonicalJSON(t *testing.T) {
	h := NewServer(testModel(t), ServerConfig{}).Handler()
	w := do(h, "POST", "/predict", `{"point":[99,99]}`)
	want := `{"label":-1,"noise":true,"core_index":-1,"core_dist":0,"model_version":0}` + "\n"
	if w.Body.String() != want {
		t.Fatalf("noise reply = %q, want %q", w.Body.String(), want)
	}
	// A second identical request must be byte-identical (pure function of
	// the body).
	w2 := do(h, "POST", "/predict", `{"point":[99,99]}`)
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("identical requests produced different bytes")
	}
	var pred Prediction
	if err := json.Unmarshal(w.Body.Bytes(), &pred); err != nil {
		t.Fatalf("reply is not valid JSON: %v", err)
	}
}

// TestMetricsEndpoint pins the /metrics mount on the serving mux: the
// exposition parses strictly, includes the serve histogram, and the
// scrape itself bypasses admission and stays out of the serve counters
// and the latency histogram.
func TestMetricsEndpoint(t *testing.T) {
	srv := NewServer(testModel(t), ServerConfig{MaxInFlight: 1})
	h := srv.Handler()
	do(h, "POST", "/predict", `{"point":[-1,-1]}`) // populate the histogram

	reqs := obs.Counters.ServeRequests.Value()
	lat := obs.Histograms.ServeLatencyNs.Snapshot()
	// A full admission queue must not block scrapes.
	srv.sem <- struct{}{}
	w := do(h, "GET", "/metrics", "")
	<-srv.sem
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	fams, err := obs.ParseExposition(w.Body)
	if err != nil {
		t.Fatalf("/metrics output rejected: %v", err)
	}
	for _, want := range []string{"rpdbscan_serve_requests_total", "rpdbscan_serve_latency_ns", "rpdbscan_predict_batch_points",
		"go_sched_latencies_seconds", "go_sched_pauses_total_gc_seconds"} {
		if fams[want] == nil {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if got := obs.Counters.ServeRequests.Value(); got != reqs {
		t.Fatalf("scrape was counted as a serve request (%d -> %d)", reqs, got)
	}
	if window := obs.Histograms.ServeLatencyNs.Snapshot().Sub(lat); window.Count != 0 {
		t.Fatalf("scrape latency leaked into the serve histogram: %+v", window)
	}
}

// TestServeLatencyHistogramRecords asserts the per-request latency hook:
// each instrumented request adds exactly one observation.
func TestServeLatencyHistogramRecords(t *testing.T) {
	h := NewServer(testModel(t), ServerConfig{}).Handler()
	before := obs.Histograms.ServeLatencyNs.Snapshot()
	batch0 := obs.Histograms.PredictBatchPoints.Snapshot()
	do(h, "POST", "/predict", `{"point":[-1,-1]}`)
	do(h, "POST", "/predict/batch", `{"points":[[-1,-1],[1,1]]}`)
	window := obs.Histograms.ServeLatencyNs.Snapshot().Sub(before)
	if window.Count != 2 {
		t.Fatalf("latency observations = %d, want 2", window.Count)
	}
	bw := obs.Histograms.PredictBatchPoints.Snapshot().Sub(batch0)
	if bw.Count != 1 || bw.Sum != 2 {
		t.Fatalf("batch-size observations = %+v, want one observation of 2", bw)
	}
}
