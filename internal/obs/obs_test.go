package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rpdbscan/internal/engine"
)

func TestLogConfigLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := LogConfig{Level: "debug", Format: "json"}.NewLogger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hello", "k", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json handler produced non-JSON: %v", err)
	}
	if rec["msg"] != "hello" || rec["k"] != float64(1) {
		t.Fatalf("record = %v", rec)
	}

	buf.Reset()
	l, err = LogConfig{Level: "warn", Format: "text"}.NewLogger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filtering wrong:\n%s", out)
	}

	if _, err := (LogConfig{Level: "loud"}).NewLogger(io.Discard); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := (LogConfig{Format: "xml"}).NewLogger(io.Discard); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var c LogConfig
	c.RegisterFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if c.Level != "debug" || c.Format != "json" {
		t.Fatalf("flags not bound: %+v", c)
	}
}

func TestSinkCountsRetriesAndBroadcasts(t *testing.T) {
	s := NewSink(nil)
	r0 := Counters.TaskRetries.Value()
	b0 := Counters.BroadcastBytes.Value()
	g0 := Counters.StagesRun.Value()
	s.Emit(engine.Event{Kind: engine.EventTaskRetry})
	s.Emit(engine.Event{Kind: engine.EventTaskRetry})
	s.Emit(engine.Event{Kind: engine.EventBroadcast, Bytes: 512})
	s.Emit(engine.Event{Kind: engine.EventStageEnd})
	if got := Counters.TaskRetries.Value() - r0; got != 2 {
		t.Fatalf("TaskRetries delta = %d, want 2", got)
	}
	if got := Counters.BroadcastBytes.Value() - b0; got != 512 {
		t.Fatalf("BroadcastBytes delta = %d, want 512", got)
	}
	if got := Counters.StagesRun.Value() - g0; got != 1 {
		t.Fatalf("StagesRun delta = %d, want 1", got)
	}
}

// The FaultInjector retry path must reach the expvar retry counter when an
// obs sink is installed on the cluster.
func TestFaultInjectorRetryReachesCounter(t *testing.T) {
	c := engine.New(2)
	c.Sink = NewSink(nil)
	c.Injector = engine.InjectorFunc(func(stage string, task, attempt int) bool { return attempt == 0 })
	r0 := Counters.TaskRetries.Value()
	c.RunStage("II", "flaky", 5, func(i int) {})
	if got := Counters.TaskRetries.Value() - r0; got != 5 {
		t.Fatalf("TaskRetries delta = %d, want 5", got)
	}
}

func TestSinkLogsRetriesAtWarn(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	c := engine.New(1)
	c.Sink = NewSink(l)
	c.Injector = engine.InjectorFunc(func(stage string, task, attempt int) bool { return attempt == 0 })
	c.RunStage("II", "flaky", 1, func(i int) {})
	out := buf.String()
	if !strings.Contains(out, "task retry") || !strings.Contains(out, "flaky") {
		t.Fatalf("retry not logged at info-visible level:\n%s", out)
	}
	// Per-task spans stay below debug and must not appear.
	if strings.Contains(out, "task start") {
		t.Fatalf("task spans leaked at info level:\n%s", out)
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	s.Emit(engine.Event{Kind: engine.EventTaskRetry}) // must not panic
}

func TestDebugServerServesVarsAndPprof(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		srv.Handler.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	w := req("/debug/vars")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", w.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["rpdbscan.task_retries"]; !ok {
		t.Fatal("rpdbscan counters not published at /debug/vars")
	}
	if w := req("/debug/pprof/"); w.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", w.Code)
	}
	if w := req("/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", w.Code, w.Body.String())
	}
	w = req("/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	fams, err := ParseExposition(w.Body)
	if err != nil {
		t.Fatalf("/metrics output rejected: %v", err)
	}
	for _, want := range []string{"go_sched_latencies_seconds", "go_sched_pauses_total_gc_seconds"} {
		if fams[want] == nil || fams[want].Type != "histogram" {
			t.Errorf("/metrics missing runtime histogram %s", want)
		}
	}
	if srv.Addr() == "" {
		t.Fatal("bound address not reported")
	}
}

// Guard against accidental blocking in StartDebugServer: it must return
// promptly with the goroutine serving in the background.
func TestDebugServerReturnsImmediately(t *testing.T) {
	done := make(chan struct{})
	go func() {
		srv, err := StartDebugServer("127.0.0.1:0", slog.New(slog.NewTextHandler(io.Discard, nil)))
		if err == nil {
			srv.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("StartDebugServer blocked")
	}
}
