package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rpdbscan/internal/obs"
)

// server is one rpserve process under test, driven over loopback HTTP.
type server struct {
	cmd             *exec.Cmd
	addr, debugAddr string

	mu       sync.Mutex
	swaps    []swapEvent
	failures int
	tail     []string // last stderr lines, for error reports

	ready   chan struct{} // closed once both addresses are logged
	logDone chan struct{} // closed at stderr EOF
}

// swapEvent is one "model swap" record of rpserve's log.
type swapEvent struct {
	Version int64   `json:"version"`
	FitMs   float64 `json:"fit_ms"`
	SwapUs  float64 `json:"swap_us"`
}

// serveArgs are rpserve's online-mode flags; the refit parameters are the
// fit workloads' own.
func serveArgs(registryDir, bufferDir string, watermark int) []string {
	return []string{
		"-ingest", "-model-dir", registryDir, "-buffer-dir", bufferDir,
		"-eps", fmt.Sprint(denseEps), "-minpts", fmt.Sprint(minPts), "-rho", fmt.Sprint(rho),
		"-partitions", fmt.Sprint(k), "-workers", fmt.Sprint(k), "-seed", fmt.Sprint(fitSeed),
		"-refit-watermark", fmt.Sprint(watermark),
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-log-format", "json", "-drain", "5s",
	}
}

// startServer execs rpserve and waits until it has bound both listeners,
// which it does after opening the registry and decoding the head model.
func (r *runner) startServer(args []string) (*server, error) {
	s := &server{cmd: r.command(r.rpserve, args...), ready: make(chan struct{}), logDone: make(chan struct{})}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := r.start(s.cmd); err != nil {
		return nil, err
	}
	go s.readLog(stderr)
	select {
	case <-s.ready:
		return s, nil
	case <-s.logDone:
		err = errors.New("rpserve exited before serving")
	case <-time.After(time.Duration(r.p.bootLimit * float64(time.Second))):
		err = errors.New("rpserve did not start serving in time")
	}
	s.cmd.Process.Kill()
	<-s.logDone
	r.wait(s.cmd)
	return nil, fmt.Errorf("%w: %s", err, s.lastLog())
}

// readLog follows rpserve's JSON log: the bound addresses, every model
// swap and every failed refit.
func (s *server) readLog(stderr io.Reader) {
	defer close(s.logDone)
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
			swapEvent
		}
		s.mu.Lock()
		s.tail = append(s.tail, string(line))
		if len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
		if json.Unmarshal(line, &rec) == nil {
			switch rec.Msg {
			case "debug server listening":
				s.debugAddr = rec.Addr
			case "serving":
				s.addr = rec.Addr
				close(s.ready)
			case "model swap":
				s.swaps = append(s.swaps, rec.swapEvent)
			case "refit failed":
				s.failures++
			}
		}
		s.mu.Unlock()
	}
}

func (s *server) lastLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail[max(0, len(s.tail)-3):], " | ")
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// stop drains rpserve with SIGTERM (SIGKILL after 20 s) and returns its
// resource usage.
func (r *runner) stopServer(s *server) (*syscall.Rusage, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(20*time.Second, func() { s.cmd.Process.Kill() })
	<-s.logDone
	err := r.wait(s.cmd)
	kill.Stop()
	var usage *syscall.Rusage
	if ps := s.cmd.ProcessState; ps != nil {
		usage, _ = ps.SysUsage().(*syscall.Rusage)
	}
	if err != nil {
		return usage, fmt.Errorf("rpserve: %w: %s", err, s.lastLog())
	}
	return usage, nil
}

func (s *server) swapLog() ([]swapEvent, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]swapEvent(nil), s.swaps...), s.failures
}

// newClient returns a client that holds exactly one keep-alive connection:
// the generator's pool is one client per connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

func send(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// shot is one scheduled request of the open-loop generator.
type shot struct {
	due  time.Duration // since the window start
	path string
	body []byte
	ref  int // index of the query, or of the ingest batch
	// tail marks requests after the measured window, sent only until the
	// caller has seen what it waits for.
	tail bool
}

// reply is what the generator observed for one shot.
type reply struct {
	sent, done time.Duration // since the window start
	// queued marks a shot that waited for the generator to catch up or for
	// a free connection; for the others sent - due is the generator's own
	// lateness.
	queued  bool
	skipped bool
	status  int
	body    []byte
	err     error
}

func (p *reply) latencyMs(s *shot) float64 { return ms(p.done - s.due) }

// handoff passes one due shot from the dispatcher to a connection.
type handoff struct {
	i      int
	queued bool
}

// fire runs the open-loop generator. One dispatcher sleeps until each
// shot's due time and hands it to a free connection; when none is free the
// shot waits, so a stall delays the requests queued behind it, and latency
// is timed from the due time. Bodies are encoded before the window.
// observe, if set, sees every reply as it completes and must be safe for
// concurrent use. Tail shots are skipped once enough is set.
func fire(base string, shots []shot, clients []*http.Client, enough *atomic.Bool,
	observe func(i int, p *reply), rec *recorder, parent int64) []reply {
	replies := make([]reply, len(shots))
	work := make(chan handoff)
	var wg sync.WaitGroup
	start := time.Now()
	for lane, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range work {
				s, p := &shots[h.i], &replies[h.i]
				p.queued = h.queued
				p.sent = time.Since(start)
				p.status, p.body, p.err = send(c, http.MethodPost, base+s.path, s.body)
				p.done = time.Since(start)
				if observe != nil {
					observe(h.i, p)
				}
				// In a traced run every odd request is traced, so the
				// even ones give the untraced latency to compare.
				if rec != nil && h.i%2 == 1 {
					id, _ := rec.begin()
					rec.add(span{ID: id, Parent: parent, Name: s.path, Start: start.Add(s.due).UnixNano(), End: start.Add(p.done).UnixNano(), Req: int64(h.i + 1), Lane: lane + 1})
					sid, _ := rec.begin()
					rec.add(span{ID: sid, Parent: id, Name: "send", Start: start.Add(p.sent).UnixNano(), End: start.Add(p.done).UnixNano(), Req: int64(h.i + 1), Lane: lane + 1})
				}
			}
		}()
	}
	for i := range shots {
		if shots[i].tail && enough.Load() {
			replies[i].skipped = true
			continue
		}
		due := start.Add(shots[i].due)
		h := handoff{i: i, queued: !time.Now().Before(due)}
		sleepUntil(due)
		select {
		case work <- h:
		default:
			h.queued = true
			work <- h
		}
	}
	close(work)
	wg.Wait()
	return replies
}

// sleepUntil blocks until t in the kernel's nanosleep rather than on a Go
// timer: an otherwise idle Go process wakes from timers with millisecond
// granularity, which would make a 1000 req/s generator up to a millisecond
// late on most requests.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// scrape is one reading of rpserve's debug endpoints.
type scrape struct {
	metrics  map[string]*obs.MetricFamily
	memstats runtime.MemStats
}

func scrapeServer(s *server) (scrape, error) {
	var out scrape
	c := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{Proxy: nil}}
	defer c.CloseIdleConnections()
	status, body, err := send(c, http.MethodGet, "http://"+s.debugAddr+"/metrics", nil)
	if err != nil || status != http.StatusOK {
		return out, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
	}
	if out.metrics, err = obs.ParseExposition(bytes.NewReader(body)); err != nil {
		return out, fmt.Errorf("scrape /metrics: %w", err)
	}
	status, body, err = send(c, http.MethodGet, "http://"+s.debugAddr+"/debug/vars", nil)
	if err != nil || status != http.StatusOK {
		return out, fmt.Errorf("scrape /debug/vars: status %d: %v", status, err)
	}
	var vars struct {
		Memstats runtime.MemStats `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return out, fmt.Errorf("scrape /debug/vars: %w", err)
	}
	out.memstats = vars.Memstats
	return out, nil
}

// addServerLayers records what rpserve's own telemetry says happened
// between two scrapes.
func addServerLayers(lay map[string]float64, a, b scrape) {
	lat := windowOf(a.metrics, b.metrics, "rpdbscan_serve_latency_ns")
	lay["serve.server.latency_p50_us"] = lat.quantile(0.50) / 1e3
	lay["serve.server.latency_p99_us"] = lat.quantile(0.99) / 1e3
	lay["serve.server.rejects"] = counterDelta(a.metrics, b.metrics, "rpdbscan_serve_rejects_total")
	lay["serve.server.errors"] = counterDelta(a.metrics, b.metrics, "rpdbscan_serve_errors_total")
	if w := windowOf(a.metrics, b.metrics, "rpdbscan_manifest_append_ns"); w.total > 0 {
		lay["registry.manifest_append_ms"] = w.mean() / 1e6
	}
	addGCLayers(lay, &a.memstats, &b.memstats)
}

// addGeneratorLayers records the generator's own behaviour.
func addGeneratorLayers(lay map[string]float64, shots []shot, replies []reply, conns int) {
	sent, queued := 0, 0
	for i := range replies {
		if p := &replies[i]; !p.skipped {
			sent++
			if p.queued {
				queued++
			}
		}
	}
	late := lateness(shots, replies)
	lay["loadgen.late_p50_ms"] = rank(late, 0.50)
	lay["loadgen.late_p99_ms"] = rank(late, 0.99)
	lay["loadgen.sent"] = float64(sent)
	lay["loadgen.queued"] = float64(queued)
	lay["loadgen.conns"] = float64(conns)
}

// lateness returns send - due for every shot sent on schedule: the
// generator's own timing error, apart from any queueing.
func lateness(shots []shot, replies []reply) []float64 {
	var late []float64
	for i := range replies {
		if p := &replies[i]; !p.skipped && !p.queued {
			late = append(late, ms(p.sent-shots[i].due))
		}
	}
	return late
}

// addUsage records the resource usage of the process under test.
func (r *runner) addUsage(u *syscall.Rusage, ops int) {
	if u == nil {
		return
	}
	user, sys := float64(u.Utime.Nano())/1e9, float64(u.Stime.Nano())/1e9
	r.layers["proc.cpu_user_s"] = user
	r.layers["proc.cpu_sys_s"] = sys
	r.e2e["peak_rss_mib"] = float64(u.Maxrss) / 1024 // Linux reports KiB
	if ops > 0 {
		r.e2e["cpu_ms_per_op"] = (user + sys) * 1e3 / float64(ops)
	}
}

// predictReply is rpserve's /predict and /predict/batch answer.
type predictReply struct {
	Label        int            `json:"label"`
	Noise        bool           `json:"noise"`
	CoreIndex    int            `json:"core_index"`
	CoreDist     float64        `json:"core_dist"`
	Predictions  []predictReply `json:"predictions"`
	NoiseCount   int            `json:"noise_count"`
	ModelVersion int64          `json:"model_version"`
}
