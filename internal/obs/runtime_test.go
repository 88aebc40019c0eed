package obs

import (
	"bytes"
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
)

// TestFloat64HistogramExposition pins the rendering of a runtime/metrics
// histogram: cumulative buckets at the runtime's upper bounds, the empty
// prefix collapsed to one zero bucket, the tail cut once every observation
// is counted, the overflow bucket left to +Inf, and a midpoint _sum.
func TestFloat64HistogramExposition(t *testing.T) {
	bounds := []float64{math.Inf(-1), 0, 1, 2, 4, 8, math.Inf(1)}
	for _, tc := range []struct {
		counts []uint64
		want   string
	}{
		{[]uint64{0, 0, 3, 0, 1, 0}, `go_test_seconds_bucket{le="1"} 0
go_test_seconds_bucket{le="2"} 3
go_test_seconds_bucket{le="4"} 3
go_test_seconds_bucket{le="8"} 4
go_test_seconds_bucket{le="+Inf"} 4
go_test_seconds_sum 10.5
go_test_seconds_count 4
`},
		{[]uint64{0, 0, 3, 0, 0, 1}, `go_test_seconds_bucket{le="1"} 0
go_test_seconds_bucket{le="2"} 3
go_test_seconds_bucket{le="4"} 3
go_test_seconds_bucket{le="8"} 3
go_test_seconds_bucket{le="+Inf"} 4
go_test_seconds_sum 12.5
go_test_seconds_count 4
`},
		{[]uint64{0, 0, 0, 0, 0, 0}, `go_test_seconds_bucket{le="+Inf"} 0
go_test_seconds_sum 0
go_test_seconds_count 0
`},
	} {
		var buf bytes.Buffer
		writeFloat64Histogram(&buf, "go_test_seconds", "test only",
			&metrics.Float64Histogram{Buckets: bounds, Counts: tc.counts})
		want := "# HELP go_test_seconds test only\n# TYPE go_test_seconds histogram\n" + tc.want
		if buf.String() != want {
			t.Errorf("counts %v:\n%s\nwant:\n%s", tc.counts, buf.String(), want)
		}
		if _, err := ParseExposition(&buf); err != nil {
			t.Errorf("counts %v: %v", tc.counts, err)
		}
	}
}

// TestRuntimeHistogramsExported checks the live families: both runtime
// histograms are present, parse strictly, and scheduler latency has
// observations once goroutines have been scheduled.
func TestRuntimeHistogramsExported(t *testing.T) {
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() { done <- struct{}{} }()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range runtimeHistograms {
		name := h.name
		fam := fams[name]
		if fam == nil || fam.Type != "histogram" || fam.Help == "" {
			t.Fatalf("runtime histogram %s missing or malformed", name)
		}
		var count float64
		for _, s := range fam.Samples {
			if s.Name == name+"_count" {
				count = s.Value
			}
		}
		if count == 0 {
			t.Errorf("%s has no observations", name)
		}
	}
}
