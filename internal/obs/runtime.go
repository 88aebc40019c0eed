package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"strconv"
)

// runtimeHistograms are the Go runtime histograms the exposition exports,
// under their conventional Prometheus names. Together they attribute a
// request-latency tail: scheduler latency is how long runnable goroutines
// waited for a P (a handler whose socket turned readable while every P ran
// CPU-bound work shows up here), and the GC pause histogram is how long
// the world was stopped.
var runtimeHistograms = []struct{ metric, name, help string }{
	{"/sched/latencies:seconds", "go_sched_latencies_seconds",
		"Time goroutines spent runnable before running, from runtime/metrics."},
	{"/sched/pauses/total/gc:seconds", "go_sched_pauses_total_gc_seconds",
		"Stop-the-world pause durations of the GC, from runtime/metrics."},
}

// writeRuntimeHistograms renders runtimeHistograms as histogram families.
func writeRuntimeHistograms(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeHistograms))
	for i, h := range runtimeHistograms {
		samples[i].Name = h.metric
	}
	metrics.Read(samples)
	for i, h := range runtimeHistograms {
		writeFloat64Histogram(w, h.name, h.help, samples[i].Value.Float64Histogram())
	}
}

// writeFloat64Histogram renders one runtime/metrics histogram as a
// histogram family. Bucket upper bounds are the runtime's own; the runtime
// keeps no sum, so _sum is estimated from bucket midpoints. Empty leading
// buckets and the empty tail are suppressed, as for the registered
// histograms.
func writeFloat64Histogram(w io.Writer, name, help string, hist *metrics.Float64Histogram) {
	var total uint64
	var sum float64
	for j, c := range hist.Counts {
		total += c
		if c > 0 {
			sum += float64(c) * bucketMid(hist.Buckets[j], hist.Buckets[j+1])
		}
	}
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for j, c := range hist.Counts {
		upper := hist.Buckets[j+1]
		if math.IsInf(upper, 1) {
			break // the +Inf line below counts it
		}
		cum += c
		// Keep the last empty bucket before the first populated one, and
		// stop once every observation is counted.
		if cum == 0 && j+1 < len(hist.Counts) && hist.Counts[j+1] == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(upper), cum)
		if cum == total {
			break
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}

// bucketMid is the representative value of the bucket [lo, hi): its
// midpoint, or its finite edge when the other is infinite.
func bucketMid(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
