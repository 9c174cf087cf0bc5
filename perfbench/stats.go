package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sampling rule every reported percentile obeys: at least
// this many samples must lie strictly beyond the percentile's position, so a
// p50 needs 20 samples and a p95 needs 200. Percentiles computed from fewer
// samples are still printed but flagged as under-sampled.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// whether the sample obeys the minBeyond rule. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// median is the midpoint median (mean of the two middle values for an even
// count); used for repeated set-up timings, not for latency percentiles.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a closed-open time span [Start, End).
type interval struct{ Start, End time.Duration }

// selfTime is a parent span's duration minus the part of it covered by at
// least one child. Children may overlap each other (concurrent calls under
// one op) and may stick out of the parent; overlapping coverage is counted
// once and coverage outside the parent is ignored.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// planStarts is the open-loop schedule the load generator follows: op i is
// due at dues[i] (non-decreasing) and runs for durs[i] on one of conns
// connections. Ops are taken in due order by whichever connection frees up
// first, so when every connection is busy an op starts late, at the moment
// one frees, and its latency — measured from its due time — includes that
// wait. The live generator realises exactly this plan; the lag between the
// plan and the real start is the generator's own lateness.
func planStarts(dues, durs []time.Duration, conns int) []time.Duration {
	free := make([]time.Duration, conns)
	starts := make([]time.Duration, len(dues))
	for i, due := range dues {
		w := 0
		for j := range free {
			if free[j] < free[w] {
				w = j
			}
		}
		start := due
		if free[w] > start {
			start = free[w]
		}
		starts[i] = start
		free[w] = start + durs[i]
	}
	return starts
}

// opOutcome is what goodput needs to know about one op.
type opOutcome struct {
	OK      bool
	Latency time.Duration
}

// goodput is the rate of ops that both succeeded and finished within limit,
// over the wall time of the measured phase. A failed op is a miss however
// fast it failed.
func goodput(ops []opOutcome, limit, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	good := 0
	for _, o := range ops {
		if o.OK && o.Latency <= limit {
			good++
		}
	}
	return float64(good) / wall.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
