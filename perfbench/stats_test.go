package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true},   // 10 samples above rank 10
		{19, 0.50, 10, false},  // only 9 above
		{200, 0.95, 190, true}, // 10 above rank 190
		{199, 0.95, 190, false},
		{100, 0.95, 95, false}, // a p95 of 100 samples has 5 beyond
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported as well-sampled")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	children := []interval{
		{10 * ms, 40 * ms},
		{30 * ms, 50 * ms},  // overlaps the first: union 10..50
		{45 * ms, 48 * ms},  // nested in the union
		{90 * ms, 130 * ms}, // sticks out of the parent: 90..100 counts
		{-20 * ms, 5 * ms},  // starts before the parent: 0..5 counts
		{60 * ms, 60 * ms},  // empty
	}
	// covered = 5 + 40 + 10 = 55
	if got := selfTime(parent, children); got != 45*ms {
		t.Errorf("selfTime = %v, want 45ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Errorf("selfTime without children = %v", got)
	}
	full := []interval{{0, 60 * ms}, {50 * ms, 100 * ms}}
	if got := selfTime(parent, full); got != 0 {
		t.Errorf("fully covered selfTime = %v", got)
	}
}

func TestPlanStartsBothConnectionsBusy(t *testing.T) {
	ms := time.Millisecond
	// Ops due every 10ms, each taking 25ms, on two connections.
	dues := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	durs := []time.Duration{25 * ms, 25 * ms, 25 * ms, 25 * ms, 25 * ms}
	got := planStarts(dues, durs, 2)
	// op0 conn A 0..25, op1 conn B 10..35, op2 waits for A: 25..50,
	// op3 waits for B: 35..60, op4 waits for A: 50..75.
	want := []time.Duration{0, 10 * ms, 25 * ms, 35 * ms, 50 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("starts = %v, want %v", got, want)
		}
	}
	// Lateness (start - due) grows while both connections stay busy.
	lates := []time.Duration{0, 0, 5 * ms, 5 * ms, 10 * ms}
	for i := range lates {
		if got[i]-dues[i] != lates[i] {
			t.Errorf("op %d late by %v, want %v", i, got[i]-dues[i], lates[i])
		}
	}
	// With a free connection nothing is late.
	idle := planStarts([]time.Duration{0, 100 * ms}, []time.Duration{ms, ms}, 2)
	if idle[0] != 0 || idle[1] != 100*ms {
		t.Errorf("idle starts = %v", idle)
	}
}

// An op's latency keeps the wait for a busy connection but not the
// generator's own lateness.
func TestLatencyLessGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	// One connection; op1 is due at 10ms while op0 holds the connection
	// until 25ms, and the generator's timer starts op1 at 27ms.
	dues := []time.Duration{0, 10 * ms}
	planned := planStarts(dues, []time.Duration{25 * ms, 5 * ms}, 1)
	o := &op{due: dues[1], rec: opRecord{start: 27 * ms, end: 32 * ms}}
	o.rec.lag = o.rec.start - planned[1]
	if o.rec.lag != 2*ms {
		t.Fatalf("lag = %v, want 2ms", o.rec.lag)
	}
	// 15ms waiting for op0, 5ms of its own: 20ms, not the raw 22ms.
	if got := o.latency(); got != 20*ms {
		t.Errorf("latency = %v, want 20ms", got)
	}
}

func TestGoodputCountsFailuresAsMisses(t *testing.T) {
	ms := time.Millisecond
	ops := []opOutcome{
		{OK: true, Latency: 5 * ms},
		{OK: true, Latency: 10 * ms},  // exactly at the limit: good
		{OK: true, Latency: 11 * ms},  // too slow
		{OK: false, Latency: 1 * ms},  // fast failure: still a miss
		{OK: false, Latency: 50 * ms}, // slow failure
	}
	if got := goodput(ops, 10*ms, 2*time.Second); got != 1.0 {
		t.Errorf("goodput = %v, want 1 op/s", got)
	}
	if got := goodput(ops, 10*ms, 0); got != 0 {
		t.Errorf("goodput over zero wall = %v", got)
	}
}
