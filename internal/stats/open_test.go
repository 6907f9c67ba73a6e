package stats

import (
	"math"
	"runtime"
	"sort"
	"testing"
)

// TestOpenGateSketchAccuracy is the sketch-vs-exact half of make open-gate:
// on a 100k-observation reference stream the digest's p50/p95/p99 must sit
// within the documented ε (DefaultSketchAlpha) of the exact sorted
// quantiles. The stream mimics open-run response times — exponential bulk
// with a heavy Pareto tail — drawn from a fixed deterministic generator.
func TestOpenGateSketchAccuracy(t *testing.T) {
	const n = 100000
	d := NewDigest(0)
	xs := make([]float64, n)
	state := uint64(12345)
	next := func() float64 {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return float64(state*2685821657736338717>>11) / float64(uint64(1)<<53)
	}
	for i := range xs {
		u := next()
		x := -200000 * math.Log(1-0.999999*u) // exponential bulk
		if i%16 == 0 {
			x += 50000 * math.Pow(1-0.999999*next(), -1/1.5) // Pareto tail
		}
		xs[i] = x
		d.Add(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := d.Quantile(q)
		want := sorted[int(q*float64(n-1))]
		if rel := math.Abs(got-want) / want; rel > DefaultSketchAlpha {
			t.Errorf("q%.2f: digest %v vs exact %v, relative error %.5f > ε=%v",
				q, got, want, rel, DefaultSketchAlpha)
		}
	}
}

// TestReplicateMemoryBound: a replicated study streams each replication
// into its own Digest and merges them, so the retained heap must not scale
// with the observation count: 8 replications × 2M observations is 16M
// samples (128MB as float64 slices) but must retain well under 16MB.
func TestReplicateMemoryBound(t *testing.T) {
	measure := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := measure()
	reps := make([]*Digest, 8)
	for seed := range reps {
		reps[seed] = NewDigest(0)
		state := uint64(seed)*2654435761 + 0x9E3779B97F4A7C15
		for i := 0; i < 2000000; i++ {
			state ^= state >> 12
			state ^= state << 25
			state ^= state >> 27
			reps[seed].Add(1 + float64(state%1000000))
		}
	}
	d := NewDigest(0)
	for _, r := range reps {
		if err := d.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	after := measure()
	if d.N() != 16000000 {
		t.Fatalf("digest folded %d observations, want 16000000", d.N())
	}
	if d.Quantile(0.99) <= d.Quantile(0.5) {
		t.Fatalf("digest quantiles inverted: p99 %v <= p50 %v", d.Quantile(0.99), d.Quantile(0.5))
	}
	const bound = 16 << 20
	if after > before+bound {
		t.Errorf("replication retained %d bytes (heap %d → %d), bound %d",
			after-before, before, after, bound)
	}
}
