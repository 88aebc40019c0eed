// Snapshot is the unified per-run telemetry record: one struct, sourced
// from the engine Report plus the counter registry, that backs every
// human- and machine-facing stats surface — the `rpdbscan -stats` table,
// the -stats-json output, the run-complete slog line, and the gauge
// families of the Prometheus exposition. Publishing a snapshot makes it
// visible to /metrics scrapes for the life of the process.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rpdbscan/internal/engine"
)

// RunInfo carries the algorithm-level facts of one run that the engine
// Report cannot know: what was clustered and what came out.
type RunInfo struct {
	// Algorithm names the algorithm that ran ("rp", "exact", ...).
	Algorithm string `json:"algorithm"`
	// Points is the number of input points clustered.
	Points int64 `json:"points"`
	// Clusters is the number of clusters found.
	Clusters int `json:"clusters"`
	// Cells and SubCells are the two-level cell dictionary's level sizes
	// (zero for algorithms without a dictionary).
	Cells    int `json:"cells"`
	SubCells int `json:"sub_cells"`
	// DictBytes is the encoded dictionary size in bytes.
	DictBytes int `json:"dict_bytes"`
	// Streamed reports whether the out-of-core pipeline ran; the stream
	// fields below are meaningful only when it did.
	Streamed bool `json:"streamed"`
	// Chunks is the number of input chunks ingested.
	Chunks int `json:"chunks,omitempty"`
	// SpillBytes is the payload written to partition spill files.
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// SpillReloads counts spill-file scans after the initial write.
	SpillReloads int64 `json:"spill_reloads,omitempty"`
}

// FaultSnapshot is the JSON-stable mirror of engine.FaultStats.
type FaultSnapshot struct {
	Injected         int64 `json:"injected"`
	ChecksumRejects  int64 `json:"checksum_rejects"`
	SpecLaunches     int64 `json:"spec_launches"`
	SpecWins         int64 `json:"spec_wins"`
	BackoffVirtualNs int64 `json:"backoff_virtual_ns"`
	StragglerDelayNs int64 `json:"straggler_delay_ns"`
}

// IsZero reports whether no fault activity was recorded.
func (f FaultSnapshot) IsZero() bool { return f == FaultSnapshot{} }

func faultSnapshot(f engine.FaultStats) FaultSnapshot {
	return FaultSnapshot{
		Injected:         f.InjectedFailures,
		ChecksumRejects:  f.ChecksumRejects,
		SpecLaunches:     f.SpeculativeLaunches,
		SpecWins:         f.SpeculativeWins,
		BackoffVirtualNs: int64(f.BackoffVirtual),
		StragglerDelayNs: int64(f.StragglerDelay),
	}
}

// StageSnapshot is one engine stage, flattened for serialization.
type StageSnapshot struct {
	Name            string        `json:"name"`
	Phase           string        `json:"phase"`
	Tasks           int           `json:"tasks"`
	TotalNs         int64         `json:"total_ns"`
	WallNs          int64         `json:"wall_ns"`
	MakespanNs      int64         `json:"makespan_ns"`
	Imbalance       float64       `json:"imbalance"`
	Bytes           int64         `json:"bytes"`
	Retries         int64         `json:"retries"`
	AllocDeltaBytes int64         `json:"alloc_delta_bytes"`
	MallocDelta     int64         `json:"malloc_delta"`
	Faults          FaultSnapshot `json:"faults"`
}

// PhaseSnapshot rolls the stages of one algorithm phase into a single
// row: the per-phase cost breakdown of the paper's experiments, live.
type PhaseSnapshot struct {
	Phase           string        `json:"phase"`
	Stages          int           `json:"stages"`
	Tasks           int           `json:"tasks"`
	WallNs          int64         `json:"wall_ns"`
	SimulatedNs     int64         `json:"simulated_ns"`
	Bytes           int64         `json:"bytes"`
	Retries         int64         `json:"retries"`
	AllocDeltaBytes int64         `json:"alloc_delta_bytes"`
	Faults          FaultSnapshot `json:"faults"`
}

// Snapshot is the complete telemetry record of one run.
type Snapshot struct {
	// Workers is the virtual worker count the run simulated.
	Workers int `json:"workers"`
	// SimulatedNs is the total simulated elapsed time; WallNs the summed
	// real stage wall time.
	SimulatedNs int64 `json:"simulated_ns"`
	WallNs      int64 `json:"wall_ns"`
	// Run carries the algorithm-level facts.
	Run RunInfo `json:"run"`
	// Phases and Stages break the run down, coarse and fine.
	Phases []PhaseSnapshot `json:"phases"`
	Stages []StageSnapshot `json:"stages"`
	// Counters is the rpdbscan.* counter registry at snapshot time
	// (cumulative process-wide values, not per-run deltas).
	Counters map[string]int64 `json:"counters"`
}

// TakeSnapshot builds a Snapshot from an engine report and the run facts,
// capturing the counter registry as of now.
func TakeSnapshot(rep *engine.Report, run RunInfo) *Snapshot {
	s := &Snapshot{
		Workers:     rep.Workers,
		SimulatedNs: int64(rep.SimulatedElapsed()),
		WallNs:      int64(rep.WallElapsed()),
		Run:         run,
		Counters:    CounterValues(),
	}
	for _, p := range rep.PhaseSummaries() {
		s.Phases = append(s.Phases, PhaseSnapshot{
			Phase:           p.Phase,
			Stages:          p.Stages,
			Tasks:           p.Tasks,
			WallNs:          int64(p.Wall),
			SimulatedNs:     int64(p.Simulated),
			Bytes:           p.Bytes,
			Retries:         p.Retries,
			AllocDeltaBytes: p.AllocDelta,
			Faults:          faultSnapshot(p.Faults),
		})
	}
	for _, st := range rep.Stages {
		s.Stages = append(s.Stages, StageSnapshot{
			Name:            st.Name,
			Phase:           st.Phase,
			Tasks:           len(st.Costs),
			TotalNs:         int64(st.Total()),
			WallNs:          int64(st.Wall),
			MakespanNs:      int64(st.Makespan(rep.Workers)),
			Imbalance:       st.Imbalance(),
			Bytes:           st.Bytes,
			Retries:         st.Retries,
			AllocDeltaBytes: st.AllocDelta,
			MallocDelta:     st.MallocDelta,
			Faults:          faultSnapshot(st.Faults),
		})
	}
	return s
}

// CounterValues returns the current value of every rpdbscan.* expvar
// counter, keyed by expvar name.
func CounterValues() map[string]int64 {
	m := make(map[string]int64)
	expvar.Do(func(kv expvar.KeyValue) {
		if !strings.HasPrefix(kv.Key, counterPrefix) {
			return
		}
		if v, ok := kv.Value.(*expvar.Int); ok {
			m[kv.Key] = v.Value()
		}
	})
	return m
}

// published holds the last snapshot handed to Publish, for /metrics.
var published atomic.Pointer[Snapshot]

// Publish makes the snapshot the one /metrics renders as gauge families.
// The pipeline publishes automatically at the end of every Cluster /
// ClusterStream run; a nil method receiver is ignored.
func (s *Snapshot) Publish() {
	if s != nil {
		published.Store(s)
	}
}

// PublishedSnapshot returns the last published snapshot, or nil before
// the first run completes.
func PublishedSnapshot() *Snapshot {
	return published.Load()
}

// String renders the snapshot as the human stats table: run summary,
// per-stage breakdown, and the per-phase rollup. This is what
// `rpdbscan -stats` prints.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run (algo=%s, workers=%d): %d points, %d clusters; simulated=%v wall=%v\n",
		s.Run.Algorithm, s.Workers, s.Run.Points, s.Run.Clusters,
		time.Duration(s.SimulatedNs), time.Duration(s.WallNs))
	if s.Run.Cells > 0 {
		fmt.Fprintf(&b, "dictionary: %d cells / %d sub-cells, %d bytes\n",
			s.Run.Cells, s.Run.SubCells, s.Run.DictBytes)
	}
	if s.Run.Streamed {
		fmt.Fprintf(&b, "stream: %d chunks, %d spill bytes, %d reloads\n",
			s.Run.Chunks, s.Run.SpillBytes, s.Run.SpillReloads)
	}
	b.WriteString("stages:\n")
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "  [%-5s] %-28s tasks=%-4d total=%-12v makespan=%-12v imbalance=%.2f",
			st.Phase, st.Name, st.Tasks, time.Duration(st.TotalNs),
			time.Duration(st.MakespanNs), st.Imbalance)
		if st.Bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", st.Bytes)
		}
		if st.Retries > 0 {
			fmt.Fprintf(&b, " retries=%d", st.Retries)
		}
		if f := st.Faults; !f.IsZero() {
			fmt.Fprintf(&b, " faults[inj=%d cksum=%d spec=%d/%d backoff=%v straggle=%v]",
				f.Injected, f.ChecksumRejects, f.SpecLaunches, f.SpecWins,
				time.Duration(f.BackoffVirtualNs).Round(time.Microsecond),
				time.Duration(f.StragglerDelayNs).Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	b.WriteString("phases:\n")
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "  [%-5s] stages=%-2d tasks=%-4d wall=%-12v simulated=%-12v",
			p.Phase, p.Stages, p.Tasks, time.Duration(p.WallNs), time.Duration(p.SimulatedNs))
		if p.Bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", p.Bytes)
		}
		if p.Retries > 0 {
			fmt.Fprintf(&b, " retries=%d", p.Retries)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteJSON writes the snapshot as indented JSON (the -stats-json
// output). Counter keys serialize sorted by virtue of encoding/json's
// map ordering.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// LogArgs returns the snapshot's headline facts as slog key-value pairs
// for the run-complete log line — the same data String renders as a
// table.
func (s *Snapshot) LogArgs() []any {
	args := []any{
		"algo", s.Run.Algorithm,
		"points", s.Run.Points,
		"clusters", s.Run.Clusters,
		"workers", s.Workers,
		"simulated", time.Duration(s.SimulatedNs),
		"wall", time.Duration(s.WallNs),
	}
	if s.Run.Cells > 0 {
		args = append(args,
			"cells", s.Run.Cells,
			"sub_cells", s.Run.SubCells,
			"dict_bytes", s.Run.DictBytes)
	}
	if s.Run.Streamed {
		args = append(args,
			"chunks", s.Run.Chunks,
			"spill_bytes", s.Run.SpillBytes,
			"spill_reloads", s.Run.SpillReloads)
	}
	return args
}

// SortedCounterNames returns the snapshot's counter keys in sorted order
// (stable iteration for renderers and tests).
func (s *Snapshot) SortedCounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CountRun applies one run's counter side-effects to the registry: the
// shared wiring that Cluster, ClusterStream, and the rpdbscan CLI all
// funnel through instead of repeating it per call site. Shuffle bytes
// come from the Phase I-1 partitioning stage, merge ops from the
// Phase III-1 stages, and the stream counters only from streamed runs.
func CountRun(rep *engine.Report, run RunInfo) {
	Counters.PointsRead.Add(run.Points)
	Counters.CellsBuilt.Add(int64(run.Cells))
	if s := rep.Stage("cell-partitioning"); s != nil {
		Counters.ShuffleBytes.Add(s.Bytes)
	}
	for _, s := range rep.Stages {
		if s.Phase == "III-1" {
			Counters.MergeOps.Add(int64(len(s.Costs)))
		}
	}
	if run.Streamed {
		Counters.StreamChunks.Add(int64(run.Chunks))
		Counters.StreamSpillBytes.Add(run.SpillBytes)
		Counters.StreamSpillReloads.Add(run.SpillReloads)
	}
}
