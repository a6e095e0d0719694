package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input: 1000 down to 1
	}
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it but was reported")
	}
	if _, ok := percentile(xs[:20], 0.5); !ok {
		t.Fatal("p50 of 20 samples has 10 beyond it but was refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestTailPercentilePicksHighestReportable(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{10000, "p99.9"}, {1000, "p99"}, {200, "p95"}, {100, "p90"}, {25, "p50"}, {15, ""}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, label, ok := tailPercentile(xs)
		if label != c.label || ok != (c.label != "") {
			t.Errorf("n=%d: tail %q (ok %v), want %q", c.n, label, ok, c.label)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	const rate, window = 50.0, 200 * time.Second
	a := poissonArrivals(rand.New(rand.NewSource(7)), rate, window)
	b := poissonArrivals(rand.New(rand.NewSource(7)), rate, window)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
		if a[i] >= window || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v: outside the window or out of order", i, a[i])
		}
	}
	// 10000 expected arrivals: the count's standard deviation is 100.
	if want := rate * window.Seconds(); math.Abs(float64(len(a))-want) > 400 {
		t.Fatalf("%d arrivals in %v at %v/s, want about %v", len(a), window, rate, want)
	}
}

func TestBacklogged(t *testing.T) {
	const limit = 250.0
	dues := make([]time.Duration, 100)
	flat := make([]float64, 100)
	growing := make([]float64, 100)
	for i := range dues {
		dues[i] = time.Duration(i) * 50 * time.Millisecond // a 5 s phase
		flat[i] = 40 + float64(i%7)                        // noisy but level
		growing[i] = 40 + 40*float64(i)/99*5               // +200 ms over the phase
	}
	if backlogged(dues, flat, 0, limit) {
		t.Error("level latencies flagged as a backlog")
	}
	if !backlogged(dues, growing, 0, limit) {
		t.Error("latency growing by 200 ms (more than half the 250 ms limit) not flagged")
	}
	if !backlogged(dues, flat, 1, limit) {
		t.Error("a request outstanding past the limit not flagged")
	}
	if backlogged(dues[:1], flat[:1], 0, limit) {
		t.Error("a single sample flagged")
	}
}

func TestBurstRate(t *testing.T) {
	t0 := time.Unix(0, 0)
	// Bursts of 16 every 150 ms: 16/0.15 s = 106.67/s, whatever the window.
	var ts []time.Time
	for b := 0; b < 20; b++ {
		for i := 0; i < 16; i++ {
			ts = append(ts, t0.Add(time.Duration(b)*150*time.Millisecond+time.Duration(i)*10*time.Microsecond))
		}
	}
	if got, want := burstRate(ts, time.Millisecond), 16/0.15; math.Abs(got-want) > 0.5 {
		t.Errorf("bursts of 16 every 150 ms: rate %v, want about %v", got, want)
	}
	// Single completions every 20 ms: 50/s.
	ts = ts[:0]
	for i := 0; i < 10; i++ {
		ts = append(ts, t0.Add(time.Duration(i)*20*time.Millisecond))
	}
	if got := burstRate(ts, time.Millisecond); math.Abs(got-50) > 1e-9 {
		t.Errorf("one completion every 20 ms: rate %v, want 50", got)
	}
	if got := burstRate(ts[:1], time.Millisecond); got != 0 {
		t.Errorf("a single burst: rate %v, want 0", got)
	}
}
