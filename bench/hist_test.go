package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func exactQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// TestHistQuantiles checks the histogram against exact nearest-rank
// quantiles of the same samples: latencies spread log-normally over five
// orders of magnitude must come back within 1 %.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 200000)
	var h hist
	for i := range samples {
		samples[i] = int64(math.Exp(rng.NormFloat64()*2+12)) + 1 // median ~160 µs in ns
		h.add(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want, got := exactQuantile(samples, q), h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%v: histogram %v, exact %v, relative error %.4f > 1%%", q, got, want, rel)
		}
	}
}

func TestHistSmallValuesExact(t *testing.T) {
	var h hist
	for v := int64(0); v < 2*histSub; v++ {
		h.add(v)
	}
	for v := int64(0); v < 2*histSub; v++ {
		if got := h.quantile(float64(v+1) / (2 * histSub)); got != float64(v) {
			t.Fatalf("value %d came back as %v", v, got)
		}
	}
}

func TestHistBucketsTile(t *testing.T) {
	// Consecutive buckets must tile the value range without gap or overlap,
	// and every value must land in the bucket whose bounds contain it.
	prevHi := uint64(0)
	for b := 0; b < 40*histSub; b++ {
		lo, hi := histBounds(b)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%d,%d) does not continue from %d", b, lo, hi, prevHi)
		}
		for _, v := range []uint64{lo, hi - 1} {
			if got := histBucket(int64(v)); got != b {
				t.Fatalf("value %d falls in bucket %d, want %d", v, got, b)
			}
		}
		if rel := float64(hi-lo-1) / 2 / float64(lo+1); rel > 0.01 {
			t.Fatalf("bucket %d = [%d,%d): midpoint error %.4f > 1%%", b, lo, hi, rel)
		}
		prevHi = hi
	}
}

func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole hist
	parts := make([]hist, 4)
	for i := 0; i < 50000; i++ {
		v := rng.Int63n(1 << uint(10+rng.Intn(20)))
		whole.add(v)
		parts[i%len(parts)].add(v)
	}
	var merged hist
	for i := range parts {
		merged.merge(&parts[i])
	}
	if merged.n != whole.n {
		t.Fatalf("merged %d samples, want %d", merged.n, whole.n)
	}
	for _, q := range []float64{0.5, 0.99, 0.9999} {
		if a, b := merged.quantile(q), whole.quantile(q); a != b {
			t.Errorf("q=%v: merged %v != whole %v", q, a, b)
		}
	}
}
