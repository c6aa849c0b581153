package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (the rule statistics.quantiles(method="inclusive")
// and numpy's default use). It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quantiles returns the p-quantiles of xs (unsorted).
func quantiles(xs []float64, ps ...float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = quantile(s, p)
	}
	return out
}

// summary is one metric's value with the spread and size of the sample it
// came from.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reports the median and quartiles of xs.
func summarize(xs []float64) summary {
	q := quantiles(xs, 0.5, 0.25, 0.75)
	return summary{Value: q[0], Q1: q[1], Q3: q[2], N: len(xs)}
}

// sample is one timed request: when it was due, and how long it took from
// then until its last response byte.
type sample struct {
	due time.Duration // offset from the phase start
	lat time.Duration
}

// latencyRecorder collects one sample per request. For kv-batch a
// request is a whole batch, so its sample is the batch's wall time;
// nothing in this file ever divides a duration by an op count.
type latencyRecorder struct {
	samples []sample
}

func (r *latencyRecorder) add(due, lat time.Duration) {
	r.samples = append(r.samples, sample{due: due, lat: lat})
}

func (r *latencyRecorder) merge(o *latencyRecorder) { r.samples = append(r.samples, o.samples...) }

// latencyStats is the open-loop latency digest: per-window percentiles
// (their median is the reported value, which keeps one stalled second from
// moving the result) plus the pooled percentile over every sample.
type latencyStats struct {
	P50, P99             summary // over windows, in microseconds; N counts their samples
	PooledP50, PooledP99 float64 // over all samples, in microseconds
	Samples              int
	Beyond99             int // samples above the pooled p99
}

// stats splits the samples into windows of length win by due time and
// digests them. The window percentiles count only the windows keep
// selects (nil keeps all; see quietWindows); windows with fewer than 100
// samples carry no usable p99 and are skipped.
func (r *latencyRecorder) stats(win time.Duration, keep []bool) latencyStats {
	byWin := map[int][]float64{}
	all := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		us := float64(s.lat) / float64(time.Microsecond)
		byWin[int(s.due/win)] = append(byWin[int(s.due/win)], us)
		all = append(all, us)
	}
	var p50s, p99s []float64
	kept := 0
	for w, xs := range byWin {
		if len(xs) < 100 || (w < len(keep) && !keep[w]) {
			continue
		}
		kept += len(xs)
		sort.Float64s(xs)
		p50s = append(p50s, quantile(xs, 0.50))
		p99s = append(p99s, quantile(xs, 0.99))
	}
	sort.Float64s(all)
	st := latencyStats{
		P50: summarize(p50s), P99: summarize(p99s),
		PooledP50: quantile(all, 0.50), PooledP99: quantile(all, 0.99),
		Samples: len(all),
	}
	st.P50.N, st.P99.N = kept, kept
	for _, x := range all {
		if x > st.PooledP99 {
			st.Beyond99++
		}
	}
	return st
}

// rateWindows turns per-window completion counts into per-second rates
// and summarizes the windows keep selects (nil keeps all); the median
// window rate is the reported throughput.
func rateWindows(counts []int, win time.Duration, keep []bool) summary {
	var rates []float64
	for i, c := range counts {
		if i >= len(keep) || keep[i] {
			rates = append(rates, float64(c)/win.Seconds())
		}
	}
	return summarize(rates)
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
