package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail is reported at, highest first.
var tailCandidates = []float64{99.9, 99, 98, 95, 90, 75, 50}

// beyond is how many of n sorted samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples; the
// tolerance keeps 99.9% of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile is the highest candidate percentile with at least ten of n
// samples beyond it (0 when even the median lacks ten).
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := rank(len(xs), p) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// dist is a latency sample in milliseconds.
type dist []float64

func (d *dist) add(v time.Duration) { *d = append(*d, ms(v)) }

func (d dist) p50() float64 { return percentile(d, 50) }

// tail returns the requested percentile when the sample holds at least ten
// values beyond it, otherwise the highest percentile that does, and which
// percentile that was.
func (d dist) tail(want float64) (float64, float64) {
	p := want
	if beyond(len(d), want) < 10 {
		p = tailPercentile(len(d))
	}
	if p == 0 {
		p = 50
	}
	return percentile(d, p), p
}

// val drops the percentile tail reports alongside its value.
func val(v, _ float64) float64 { return v }

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time span [start, end).
type interval struct{ start, end time.Duration }

// unionLength is the total time covered by at least one interval: the child
// coverage that self time subtracts.
func unionLength(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a parent span's duration minus the union of its children's
// intervals; concurrent children are counted once.
func selfTime(parent time.Duration, children []interval) time.Duration {
	return parent - unionLength(children)
}

// repeatShare is the share of window's requests whose item appeared earlier,
// in history or in window: the most a result cache of unbounded size could
// hit.
func repeatShare(history, window []int) float64 {
	if len(window) == 0 {
		return 0
	}
	seen := make(map[int]bool, len(history)+len(window))
	for _, q := range history {
		seen[q] = true
	}
	repeats := 0
	for _, q := range window {
		if seen[q] {
			repeats++
		}
		seen[q] = true
	}
	return float64(repeats) / float64(len(window))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
