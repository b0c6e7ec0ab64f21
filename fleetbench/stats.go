package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"domainnet/internal/rank"
)

// percentile returns the q-th percentile (0 < q <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least q% of the samples at
// or below it. xs need not be sorted; it is not modified. NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(q, len(s))-1]
}

// nearestRank is the 1-based rank of the q-th percentile of n samples. The
// epsilon absorbs binary rounding (99.9 * 10000 / 100 must be 9990, not
// 9991).
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that has at least
// ten samples beyond it out of n, so a reported tail is never one or two
// outliers. It returns 0 when even the median has fewer than ten samples
// above it (n < 20).
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if n > 0 && n-nearestRank(q, n) >= 10 {
			return q
		}
	}
	return 0
}

// poissonSchedule returns the send offsets of an open-loop Poisson arrival
// process at rate per second over d: exponential gaps drawn from a generator
// seeded with seed, so the same seed yields the same schedule.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// jitteredSchedule returns open-loop send offsets over d whose gaps are
// drawn uniformly from [3/4, 5/4] of mean by a generator seeded with seed,
// so the same seed yields the same schedule and no two sends come closer
// than three quarters of the mean.
func jitteredSchedule(seed int64, mean, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := time.Duration(0); ; {
		t += mean*3/4 + time.Duration(rng.Int63n(int64(mean/2)))
		if t >= d {
			return out
		}
		out = append(out, t)
	}
}

// interval is a closed-open time range [start, end).
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// selfTime is parent's duration minus the part of it covered by at least one
// child. Children may overlap each other and may stick out of the parent;
// only their union inside the parent is subtracted, so overlapping children
// are never double counted.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// withinTol is the detector's contract for exact betweenness: delta-path
// scores equal a from-scratch recompute as real numbers, differing only by
// summation grouping.
func withinTol(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}

// sameRanking checks got against want under withinTol: the scores at every
// rank agree, and a value may stand where want has another only when their
// scores tie.
func sameRanking(got, want []rank.Scored) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	wantOf := make(map[string]float64, len(want))
	for _, w := range want {
		wantOf[w.Value] = w.Score
	}
	for i, w := range want {
		g := got[i]
		if !withinTol(g.Score, w.Score) {
			return fmt.Errorf("rank %d: %s %v, want %s %v", i+1, g.Value, g.Score, w.Value, w.Score)
		}
		if ws, ok := wantOf[g.Value]; g.Value != w.Value && ok && !withinTol(ws, w.Score) {
			return fmt.Errorf("rank %d: %s (score %v) displaced %s (score %v)", i+1, g.Value, ws, w.Value, w.Score)
		}
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
