// Prometheus text exposition (stdlib only): WriteMetrics renders every
// rpdbscan.* expvar counter, every registered histogram, the Go runtime's
// scheduler-latency and GC-pause histograms, and the gauges of the last
// published run Snapshot in the version 0.0.4 text format, with
// # HELP / # TYPE lines per family. MetricsHandler mounts it at /metrics
// on both the debug server and the prediction server's mux.
//
// ParseExposition is the matching strict parser: CI scrapes a live
// /metrics and rejects the build if the output has malformed HELP/TYPE
// lines, broken label escaping, or inconsistent histogram series. Keeping
// writer and parser in one package means the round-trip test pins them
// against each other.
package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promName maps an expvar-style dotted name ("rpdbscan.points_read") to a
// valid Prometheus metric name ("rpdbscan_points_read"): every character
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_'
// prefix.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if valid {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a # HELP text per the exposition format: backslash
// and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// counterPrefix selects which expvar vars the exposition exports.
const counterPrefix = "rpdbscan."

// WriteMetrics renders the full exposition: one counter family per
// rpdbscan.* expvar.Int (sorted by name, with the conventional _total
// suffix), one histogram family per registered histogram, the runtime
// histograms of runtimeHistograms, and the phase / run gauge families of
// the last published Snapshot (omitted until a run publishes one). Output
// is deterministic up to the monotone counter and histogram values.
func WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)

	type counter struct {
		name  string
		value int64
	}
	var counters []counter
	expvar.Do(func(kv expvar.KeyValue) {
		if !strings.HasPrefix(kv.Key, counterPrefix) {
			return
		}
		if v, ok := kv.Value.(*expvar.Int); ok {
			counters = append(counters, counter{kv.Key, v.Value()})
		}
	})
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, c := range counters {
		name := promName(c.name) + "_total"
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(CounterHelp(c.name)))
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, c.value)
	}

	for _, h := range registeredHistograms() {
		s := h.Snapshot()
		name := promName(h.Name())
		// The rendered count is the bucket total, not the count field: a
		// scrape racing live recording may observe a bucket increment whose
		// count increment it missed (or vice versa), and the exposition's
		// invariant — +Inf bucket == _count >= every finite bucket — must
		// hold on every scrape.
		var total uint64
		for _, c := range s.Buckets {
			total += c
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(h.Help()))
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		finite := total - s.Buckets[NumHistogramBuckets]
		var cum uint64
		for i, c := range s.Buckets[:NumHistogramBuckets] {
			cum += c
			// Empty-prefix suppression keeps the family readable: leading
			// zero buckets collapse into the first populated bound, and
			// the series stops once every finite observation is counted.
			if cum == 0 && i+1 < NumHistogramBuckets && s.Buckets[i+1] == 0 {
				continue
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", name, BucketBound(i), cum)
			if cum == finite {
				break
			}
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
		fmt.Fprintf(bw, "%s_sum %d\n", name, s.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", name, total)
	}
	writeRuntimeHistograms(bw)

	if snap := PublishedSnapshot(); snap != nil {
		writeSnapshotGauges(bw, snap)
	}
	return bw.Flush()
}

// gaugeFamily renders one labelled gauge family.
func gaugeFamily(w io.Writer, name, help, label string, rows []gaugeRow) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	for _, r := range rows {
		if label == "" {
			fmt.Fprintf(w, "%s %d\n", name, r.value)
		} else {
			fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", name, label, escapeLabel(r.key), r.value)
		}
	}
}

type gaugeRow struct {
	key   string
	value int64
}

// writeSnapshotGauges renders the published Snapshot as gauge families:
// per-phase wall / simulated / bytes / alloc / retries / fault gauges plus
// run-level totals. The snapshot is the single source — the same struct
// that backs `rpdbscan -stats` and -stats-json.
func writeSnapshotGauges(w io.Writer, s *Snapshot) {
	perPhase := func(f func(p PhaseSnapshot) int64) []gaugeRow {
		rows := make([]gaugeRow, 0, len(s.Phases))
		for _, p := range s.Phases {
			rows = append(rows, gaugeRow{p.Phase, f(p)})
		}
		return rows
	}
	gaugeFamily(w, "rpdbscan_phase_wall_ns", "Per-phase wall-clock time of the last run, in nanoseconds.", "phase",
		perPhase(func(p PhaseSnapshot) int64 { return p.WallNs }))
	gaugeFamily(w, "rpdbscan_phase_simulated_ns", "Per-phase simulated makespan of the last run on the virtual cluster, in nanoseconds.", "phase",
		perPhase(func(p PhaseSnapshot) int64 { return p.SimulatedNs }))
	gaugeFamily(w, "rpdbscan_phase_bytes", "Per-phase accounted payload bytes (broadcast + shuffle) of the last run.", "phase",
		perPhase(func(p PhaseSnapshot) int64 { return p.Bytes }))
	gaugeFamily(w, "rpdbscan_phase_alloc_delta_bytes", "Per-phase heap allocation growth of the last run, in bytes.", "phase",
		perPhase(func(p PhaseSnapshot) int64 { return p.AllocDeltaBytes }))
	gaugeFamily(w, "rpdbscan_phase_retries", "Per-phase re-executed task attempts of the last run.", "phase",
		perPhase(func(p PhaseSnapshot) int64 { return p.Retries }))
	gaugeFamily(w, "rpdbscan_phase_faults_injected", "Per-phase injected task failures of the last run.", "phase",
		perPhase(func(p PhaseSnapshot) int64 { return p.Faults.Injected }))
	gaugeFamily(w, "rpdbscan_phase_speculative_launches", "Per-phase speculative task launches of the last run.", "phase",
		perPhase(func(p PhaseSnapshot) int64 { return p.Faults.SpecLaunches }))

	run := []struct {
		name, help string
		value      int64
	}{
		{"rpdbscan_run_workers", "Virtual worker count of the last run.", int64(s.Workers)},
		{"rpdbscan_run_points", "Points clustered by the last run.", s.Run.Points},
		{"rpdbscan_run_clusters", "Clusters found by the last run.", int64(s.Run.Clusters)},
		{"rpdbscan_run_cells", "Grid cells materialized by the last run.", int64(s.Run.Cells)},
		{"rpdbscan_run_dict_bytes", "Encoded two-level cell dictionary size of the last run, in bytes.", int64(s.Run.DictBytes)},
		{"rpdbscan_run_simulated_ns", "Total simulated elapsed time of the last run, in nanoseconds.", s.SimulatedNs},
		{"rpdbscan_run_wall_ns", "Total wall-clock stage time of the last run, in nanoseconds.", s.WallNs},
	}
	for _, g := range run {
		gaugeFamily(w, g.name, g.help, "", []gaugeRow{{"", g.value}})
	}
}

// MetricsHandler serves WriteMetrics with the exposition content type.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w)
	})
}

// MetricFamily is one parsed exposition family: its # TYPE, optional
// # HELP, and samples in input order.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Sample is one parsed sample line.
type Sample struct {
	// Name is the full sample name (family name plus _bucket/_sum/_count
	// for histogram series).
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseExposition parses and validates Prometheus text-format input the
// way the CI smoke gate needs: strictly. It rejects
//
//   - malformed or duplicated # HELP / # TYPE lines, and HELP/TYPE that
//     appear after the family's first sample,
//   - invalid metric and label names, unterminated or badly-escaped label
//     values, and malformed sample values,
//   - samples whose family has no preceding # TYPE,
//   - histogram families with missing +Inf buckets, non-cumulative bucket
//     series, or _count disagreeing with the +Inf bucket.
//
// It returns the families keyed by name.
func ParseExposition(r io.Reader) (map[string]*MetricFamily, error) {
	families := make(map[string]*MetricFamily)
	sampled := make(map[string]bool) // families that have emitted a sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, families, sampled); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(s.Name, families)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, s.Name)
		}
		fam.Samples = append(fam.Samples, s)
		sampled[fam.Name] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range families {
		if fam.Type == "histogram" {
			if err := validateHistogram(fam); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", fam.Name, err)
			}
		}
	}
	return families, nil
}

// parseComment handles # HELP / # TYPE lines (other comments are ignored
// per the format).
func parseComment(line string, families map[string]*MetricFamily, sampled map[string]bool) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " ")
	keyword, rest, _ := strings.Cut(rest, " ")
	switch keyword {
	case "HELP":
		name, help, ok := strings.Cut(rest, " ")
		if !ok && name == "" {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !validMetricName(name) {
			return fmt.Errorf("HELP for invalid metric name %q", name)
		}
		if sampled[name] {
			return fmt.Errorf("HELP for %s after its samples", name)
		}
		unescaped, err := unescapeHelp(help)
		if err != nil {
			return fmt.Errorf("HELP for %s: %w", name, err)
		}
		fam := families[name]
		if fam == nil {
			fam = &MetricFamily{Name: name}
			families[name] = fam
		}
		if fam.Help != "" {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		fam.Help = unescaped
	case "TYPE":
		name, typ, ok := strings.Cut(rest, " ")
		if !ok {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		if sampled[name] {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %s", typ, name)
		}
		fam := families[name]
		if fam == nil {
			fam = &MetricFamily{Name: name}
			families[name] = fam
		}
		if fam.Type != "" {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		fam.Type = typ
	}
	return nil
}

// familyOf resolves a sample name to its declared family: exact match, or
// the histogram/summary series suffixes.
func familyOf(name string, families map[string]*MetricFamily) *MetricFamily {
	if f := families[name]; f != nil && f.Type != "" {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if f := families[base]; f != nil && (f.Type == "histogram" || f.Type == "summary") {
			return f
		}
	}
	return nil
}

// parseSample parses `name{label="value",...} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && isNameChar(line[i], i) {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimLeft(rest, " \t")
	valueStr, tsStr, _ := strings.Cut(rest, " ")
	if valueStr == "" {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	s.Value = v
	if tsStr = strings.TrimSpace(tsStr); tsStr != "" {
		if _, err := strconv.ParseInt(tsStr, 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp: %w", line, err)
		}
	}
	return s, nil
}

// parseLabels parses a `{name="value",...}` block, validating label names
// and escape sequences, and returns the remainder of the line.
func parseLabels(in string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ' ' || in[i] == ',') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		start := i
		for i < len(in) && isNameChar(in[i], i-start) {
			i++
		}
		name := in[start:i]
		if name == "" || !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name in %q", in)
		}
		if i >= len(in) || in[i] != '=' {
			return nil, "", fmt.Errorf("label %s missing '=' in %q", name, in)
		}
		i++
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("label %s value not quoted in %q", name, in)
		}
		i++
		var b strings.Builder
		closed := false
		for i < len(in) {
			c := in[i]
			if c == '"' {
				closed = true
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return nil, "", fmt.Errorf("label %s: dangling backslash", name)
				}
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: invalid escape \\%c", name, in[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return nil, "", fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = b.String()
	}
}

// unescapeHelp validates and unescapes a HELP text.
func unescapeHelp(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i+1 >= len(s) {
			return "", fmt.Errorf("dangling backslash in help text")
		}
		switch s[i+1] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("invalid escape \\%c in help text", s[i+1])
		}
		i++
	}
	return b.String(), nil
}

func isNameChar(c byte, pos int) bool {
	if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
		return true
	}
	return c >= '0' && c <= '9' && pos > 0
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i) {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	// Same charset as metric names minus ':'.
	if s == "" || strings.Contains(s, ":") {
		return false
	}
	return validMetricName(s)
}

// validateHistogram checks the internal consistency of one histogram
// family: a +Inf bucket exists, the bucket series is cumulative in le, and
// _count equals the +Inf bucket.
func validateHistogram(fam *MetricFamily) error {
	type bkt struct {
		le  float64
		val float64
	}
	var buckets []bkt
	var count float64
	var haveCount, haveSum, haveInf bool
	var inf float64
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			if leStr == "+Inf" {
				haveInf = true
				inf = s.Value
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				return fmt.Errorf("bad le %q: %w", leStr, err)
			}
			buckets = append(buckets, bkt{le, s.Value})
		case fam.Name + "_count":
			haveCount = true
			count = s.Value
		case fam.Name + "_sum":
			haveSum = true
		}
	}
	if !haveInf {
		return fmt.Errorf("missing +Inf bucket")
	}
	if !haveCount || !haveSum {
		return fmt.Errorf("missing _count or _sum series")
	}
	if count != inf {
		return fmt.Errorf("_count %v != +Inf bucket %v", count, inf)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	prev := 0.0
	for _, b := range buckets {
		if b.val < prev {
			return fmt.Errorf("bucket series not cumulative at le=%v", b.le)
		}
		prev = b.val
	}
	if prev > inf {
		return fmt.Errorf("finite bucket %v exceeds +Inf bucket %v", prev, inf)
	}
	return nil
}
