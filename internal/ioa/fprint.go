package ioa

import "fmt"

// Fp is a 128-bit state fingerprint: the canonical digest of an automaton's
// state. Two equal states produce equal Fps regardless of map iteration
// order; distinct states collide with probability ~n²/2¹²⁹ (see DESIGN.md
// §6), which the collision-audit exploration mode checks empirically.
type Fp struct {
	Hi, Lo uint64
}

// Less orders fingerprints lexicographically by (Hi, Lo); exploration admits
// each BFS level's discoveries in this order so state counts are identical
// at every worker count.
func (fp Fp) Less(o Fp) bool {
	if fp.Hi != o.Hi {
		return fp.Hi < o.Hi
	}
	return fp.Lo < o.Lo
}

// String renders the fingerprint as 32 hex digits.
func (fp Fp) String() string {
	return fmt.Sprintf("%016x%016x", fp.Hi, fp.Lo)
}

// FNV-1a 128-bit parameters. The prime is 2^88 + 2^8 + 0x3b, so its high
// 64-bit word is 1<<24 and its low word is 0x13b. The hash is deliberately
// seed-free: fingerprints must be stable across processes so that seeded
// schedules derived from StateSeed reproduce exactly when a failing seed is
// re-run (which rules out hash/maphash and its per-process seed).
const (
	fnv128OffsetHi = 0x6c62272e07bb0142
	fnv128OffsetLo = 0x62b821756295c58d
	fnv128PrimeLo  = 0x13b
)

// mix128 is a nonlinear 128-bit finalizer: murmur3's fmix64 applied to each
// word, cross-coupled so both outputs depend on both inputs. Map entries
// are summed after it: FNV is multiplicative, so two related entries (one
// digit apart) have raw hashes a small multiple of a prime power apart, and
// a sum of raw hashes would let such differences cancel between states.
func mix128(hi, lo uint64) (uint64, uint64) {
	lo ^= hi
	lo ^= lo >> 33
	lo *= 0xff51afd7ed558ccd
	lo ^= lo >> 33
	lo *= 0xc4ceb9fe1a85ec53
	lo ^= lo >> 33
	hi ^= lo
	hi ^= hi >> 33
	hi *= 0xff51afd7ed558ccd
	hi ^= hi >> 33
	hi *= 0xc4ceb9fe1a85ec53
	hi ^= hi >> 33
	return hi, lo
}
