package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a q share of samples at or below it.
// It returns 0 for no samples.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

// median of unsorted float samples (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailLadder is the percentile ladder a tail is reported on.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supportedTail returns the highest ladder quantile with at least ten
// samples beyond it among n samples, and false when even the median
// lacks that support.
func supportedTail(n int) (float64, bool) {
	best, okTail := 0.0, false
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			best, okTail = q, true
		}
	}
	return best, okTail
}

// tally accounts for every request attempted in a window: each ends in
// exactly one outcome, and only ok ones carry a latency sample, stamped
// with the time the request was due.
type tally struct {
	counts  [numOutcomes]int64
	latency []int64 // ns, ok outcomes only
	at      []int64 // ns due time of each latency sample
	inSLO   int64   // ok outcomes within the workload's latency limit
}

func (t *tally) add(o outcome, at, latNs, sloNs int64) {
	t.counts[o]++
	if o == ok {
		t.latency = append(t.latency, latNs)
		t.at = append(t.at, at)
		if latNs <= sloNs {
			t.inSLO++
		}
	}
}

func (t *tally) merge(o *tally) {
	for i := range t.counts {
		t.counts[i] += o.counts[i]
	}
	t.latency = append(t.latency, o.latency...)
	t.at = append(t.at, o.at...)
	t.inSLO += o.inSLO
}

func (t *tally) attempted() int64 {
	var n int64
	for _, c := range t.counts {
		n += c
	}
	return n
}

func (t *tally) failed() int64 { return t.attempted() - t.counts[ok] }

// errorFrac is failed over attempted; 0 when nothing was attempted.
func (t *tally) errorFrac() float64 {
	if a := t.attempted(); a > 0 {
		return float64(t.failed()) / float64(a)
	}
	return 0
}

// sloFrac is the share of attempted requests answered correctly within
// the latency limit: a failure counts as missing it.
func (t *tally) sloFrac() float64 {
	if a := t.attempted(); a > 0 {
		return float64(t.inSLO) / float64(a)
	}
	return 0
}

// sorted returns the latency samples in ascending order.
func (t *tally) sorted() []int64 {
	s := slices.Clone(t.latency)
	slices.Sort(s)
	return s
}

// bin is the correct responses to the requests due in one slice of a
// measured window.
type bin struct {
	ok      int64
	latency []int64 // sorted, ns
}

// bins slices the window [start, start+n*width) into n bins by due time.
func (t *tally) bins(start, width int64, n int) []bin {
	out := make([]bin, n)
	for i, at := range t.at {
		if k := (at - start) / width; at >= start && k < int64(n) {
			out[k].ok++
			out[k].latency = append(out[k].latency, t.latency[i])
		}
	}
	for i := range out {
		slices.Sort(out[i].latency)
	}
	return out
}
