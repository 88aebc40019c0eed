package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	"rpdbscan/internal/obs"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank q-quantile of xs: the smallest sample with
// at least q of the samples at or below it. It is an observed value, so a
// tail percentile never interpolates beyond what was measured.
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the definition the
// benchmark's spread bounds are checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// histWindow is the difference of one exposition histogram between two
// scrapes: the observations recorded in between, by bucket.
type histWindow struct {
	counts []float64 // per finite bucket i of obs.BucketBound(i), then +Inf
	sum    float64
	total  float64
}

// windowOf returns the histogram named name in end minus its state in start.
func windowOf(start, end map[string]*obs.MetricFamily, name string) histWindow {
	a, b := cumulative(start[name]), cumulative(end[name])
	w := histWindow{counts: make([]float64, obs.NumHistogramBuckets+1)}
	prev := 0.0
	for i := 0; i < obs.NumHistogramBuckets; i++ {
		le := float64(obs.BucketBound(i))
		cum := b.at(le) - a.at(le)
		w.counts[i] = cum - prev
		prev = cum
	}
	w.total = b.count - a.count
	w.counts[obs.NumHistogramBuckets] = w.total - prev
	w.sum = b.sum - a.sum
	return w
}

// cumSeries is one scraped histogram: cumulative counts at the bucket
// bounds the exposition printed (it omits leading empty buckets and stops
// once every finite observation is counted).
type cumSeries struct {
	les, cums  []float64
	sum, count float64
}

func cumulative(fam *obs.MetricFamily) cumSeries {
	var c cumSeries
	if fam == nil {
		return c
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			if s.Labels["le"] == "+Inf" {
				continue
			}
			if le, err := strconv.ParseFloat(s.Labels["le"], 64); err == nil {
				c.les = append(c.les, le)
				c.cums = append(c.cums, s.Value)
			}
		case fam.Name + "_sum":
			c.sum = s.Value
		case fam.Name + "_count":
			c.count = s.Value
		}
	}
	return c
}

// at returns the cumulative count at bound le: that of the largest printed
// bound <= le (0 below the first printed bound).
func (c cumSeries) at(le float64) float64 {
	v := 0.0
	for i, b := range c.les {
		if b > le {
			break
		}
		v = c.cums[i]
	}
	return v
}

// quantile estimates the q-quantile of the window by linear interpolation
// inside the bucket that holds it, as Prometheus' histogram_quantile does.
// Bucket bounds grow by sqrt(2), so the estimate is within one bucket.
func (w histWindow) quantile(q float64) float64 {
	if w.total <= 0 {
		return 0
	}
	target := q * w.total
	cum := 0.0
	for i := 0; i < obs.NumHistogramBuckets; i++ {
		if w.counts[i] > 0 && cum+w.counts[i] >= target {
			lo := 0.0
			if i > 0 {
				lo = float64(obs.BucketBound(i - 1))
			}
			hi := float64(obs.BucketBound(i))
			return lo + (hi-lo)*(target-cum)/w.counts[i]
		}
		cum += w.counts[i]
	}
	return float64(obs.BucketBound(obs.NumHistogramBuckets - 1))
}

func (w histWindow) mean() float64 {
	if w.total <= 0 {
		return 0
	}
	return w.sum / w.total
}

// counterDelta returns the growth of counter family name between scrapes.
func counterDelta(start, end map[string]*obs.MetricFamily, name string) float64 {
	val := func(m map[string]*obs.MetricFamily) float64 {
		if f := m[name]; f != nil && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
		return 0
	}
	return val(end) - val(start)
}
