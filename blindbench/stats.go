package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
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

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of xs and whether it is
// reportable: at least minBeyond samples must lie strictly above its rank,
// so a tail percentile is never read off a handful of samples.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s[rank], n-1-rank >= minBeyond
}

// tailPercentile returns the highest of the standard tail percentiles
// (p99.9, p99, p95, p90, p50) that has at least minBeyond samples beyond
// it, with its label; ok is false when even the median has fewer.
func tailPercentile(xs []float64) (v float64, label string, ok bool) {
	for _, p := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.50, "p50"}} {
		if v, ok := percentile(xs, p.q); ok {
			return v, p.label, true
		}
	}
	return 0, "", false
}

// poissonArrivals returns the due offsets of a Poisson arrival process at
// rate per second over window, drawn from rng: exponential gaps with mean
// 1/rate, every offset strictly inside the window.
func poissonArrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// backlogged reports whether an open-loop phase fell behind its arrivals:
// latency (ms, indexed like the due offsets) grows across the phase by more
// than half the latency limit, measured as the least-squares slope of
// latency against due time extended over the phase, or requests were still
// outstanding when more than the limit had passed after the last arrival.
func backlogged(dues []time.Duration, latMS []float64, outstanding int, limitMS float64) bool {
	if outstanding > 0 {
		return true
	}
	n := len(dues)
	if n < 2 || len(latMS) != n {
		return false
	}
	var sx, sy float64
	for i := range dues {
		sx += dues[i].Seconds()
		sy += latMS[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx float64
	for i := range dues {
		dx := dues[i].Seconds() - mx
		sxy += dx * (latMS[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return false
	}
	span := (dues[n-1] - dues[0]).Seconds()
	return sxy/sxx*span > limitMS/2
}

// burstRate estimates a steady completion rate from completion times that
// arrive in bursts, as a batching server answers a whole batch at once.
// Times closer than gap belong to one burst. The rate is the completions
// after the first burst over the span from the first burst to the last, so
// it is not quantized to whole bursts per window. With fewer than two
// bursts it returns 0.
func burstRate(times []time.Time, gap time.Duration) float64 {
	if len(times) == 0 {
		return 0
	}
	ts := append([]time.Time(nil), times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	first, firstSize, last := ts[0], 0, ts[0]
	for i, t := range ts {
		if i > 0 && t.Sub(ts[i-1]) > gap {
			last = t
		}
		if last.Equal(first) {
			firstSize++
		}
	}
	if last.Equal(first) {
		return 0
	}
	return float64(len(ts)-firstSize) / last.Sub(first).Seconds()
}
