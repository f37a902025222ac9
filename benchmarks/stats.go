package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0–100) of an ascending slice,
// interpolating linearly between closest ranks. Empty input gives 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// reportable lists the tail percentiles the harness may report, lowest
// first, in per mille (integers keep the rule exact).
var reportable = []int{900, 950, 990, 999}

// topPercentile applies the reporting rule: beside the median, a timing
// is reported at the highest percentile that still has at least ten
// samples beyond it. It returns 50 when no tail percentile qualifies.
func topPercentile(n int) float64 {
	top := 50.0
	for _, pm := range reportable {
		if n*(1000-pm) >= 10*1000 {
			top = float64(pm) / 10
		}
	}
	return top
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the "exclusive" method) — the rule the acceptance spread is defined
// with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// sample is one timed observation: when it was due and its value.
type sample struct {
	at time.Time
	v  float64
}

// windowStat cuts [start, end) into windows of the given width, applies
// f to the ascending values of each window holding at least minN
// samples, and returns the median of the per-window results with the
// number of windows used. One stalled second (a GC cycle, a noisy
// neighbour) then moves one window, not the reported figure. With no
// qualifying window it falls back to f over all samples.
func windowStat(samples []sample, start, end time.Time, width time.Duration, minN int, f func(sorted []float64) float64) (float64, int) {
	nWin := int(end.Sub(start) / width)
	var per []float64
	if nWin > 0 {
		buckets := make([][]float64, nWin)
		for _, s := range samples {
			if s.at.Before(start) {
				continue
			}
			if i := int(s.at.Sub(start) / width); i < nWin {
				buckets[i] = append(buckets[i], s.v)
			}
		}
		for _, b := range buckets {
			if len(b) >= minN {
				sort.Float64s(b)
				per = append(per, f(b))
			}
		}
	}
	if len(per) == 0 {
		all := make([]float64, 0, len(samples))
		for _, s := range samples {
			all = append(all, s.v)
		}
		sort.Float64s(all)
		return f(all), 0
	}
	return median(per), len(per)
}

// budgetGap checks the latency budget's identity on per-op stamps
// (unix nanoseconds): for every op, wait (due → block cut) plus process
// (block cut → notification) must equal the latency measured on the
// monotonic clock within tol, or the wall clock stepped during the run
// and the split cannot be trusted. It returns the worst disagreement.
func budgetGap(dueNs, cutNs, doneNs []int64, latency []time.Duration) (worst time.Duration) {
	for i := range dueNs {
		wait := cutNs[i] - dueNs[i]
		process := doneNs[i] - cutNs[i]
		gap := time.Duration(wait+process) - latency[i]
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// sumsTo reports whether the parts add up to the whole within tol (a
// share of the whole).
func sumsTo(whole float64, tol float64, parts ...float64) bool {
	var sum float64
	for _, p := range parts {
		sum += p
	}
	if whole == 0 {
		return sum == 0
	}
	return math.Abs(sum-whole)/math.Abs(whole) <= tol
}
