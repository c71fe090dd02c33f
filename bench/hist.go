package main

import "math/bits"

// hist is a log-bucket histogram of non-negative int64 samples (latencies in
// nanoseconds). Values below 2*histSub land in exact unit buckets; above
// that every power of two is split into histSub equal sub-buckets, so a
// bucket spans at most 1/histSub of its lower bound and the midpoint
// returned by quantile is within 1/(2*histSub) < 1 % of any sample in it.
// Histograms merge by adding counts, so per-consumer histograms combine
// without losing resolution.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits // sub-buckets per octave: 1/128 midpoint error
)

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // u in [2^exp, 2^(exp+1))
	sub := (u >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits)*histSub + histSub + int(sub)
}

// histBounds returns the inclusive lower and exclusive upper bound of a bucket.
func histBounds(b int) (lo, hi uint64) {
	if b < 2*histSub {
		return uint64(b), uint64(b) + 1
	}
	exp := (b-histSub)/histSub + histSubBits
	sub := uint64((b - histSub) % histSub)
	width := uint64(1) << (uint(exp) - histSubBits)
	lo = (uint64(1) << uint(exp)) + sub*width
	return lo, lo + width
}

func (h *hist) add(v int64) {
	b := histBucket(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+histSub)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile returns the value at rank ceil(q*n) (the nearest-rank quantile),
// as the midpoint of the bucket holding that rank; 0 on an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := histBounds(b)
			return float64(lo) + float64(hi-lo-1)/2
		}
	}
	return 0
}
