package ioa

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Fp is a 128-bit state fingerprint: the order-canonical digest of an
// automaton's state components. Two states with equal component multisets
// produce equal Fps regardless of map iteration order; distinct states
// collide with probability ~n²/2¹²⁹ (see DESIGN.md §6), which the
// collision-audit exploration mode checks empirically.
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

// Fingerprinter accumulates canonical state fingerprints. State components
// are written as lines — Begin(key), value writes, End() — and each finished
// line is hashed with FNV-1a-128 and folded into a commutative 128-bit sum,
// so the digest is independent of the order in which components are written
// (map iteration order cannot leak in). Components with default values
// should simply be omitted by the caller, so that logically equal states
// fingerprint identically regardless of which map keys happen to be
// materialized.
//
// The hash-only mode is allocation-free. Recording mode (SetRecording)
// additionally collects the readable lines so String can render the
// sorted-and-joined text form — used for error messages and tests, never
// on the exploration hot path.
//
// The zero value is ready to use; Reset allows reuse across states without
// reallocating internal buffers.
type Fingerprinter struct {
	hi, lo   uint64 // commutative 128-bit sum over finished line hashes
	n        uint64 // number of finished lines
	lhi, llo uint64 // FNV-1a-128 state of the open line
	prefix   string // prepended to every line's key (see SetPrefix)

	record bool
	line   []byte   // open line text (recording mode only)
	lines  []string // finished line texts (recording mode only)
}

// Reset clears accumulated state, retaining buffers and the recording mode.
func (f *Fingerprinter) Reset() {
	f.hi, f.lo, f.n = 0, 0, 0
	f.lhi, f.llo = 0, 0
	f.prefix = ""
	f.line = f.line[:0]
	f.lines = f.lines[:0]
}

// SetRecording toggles collection of readable lines for String. Recording is
// the debug/verify mode: it allocates, so hot paths leave it off.
func (f *Fingerprinter) SetRecording(on bool) { f.record = on }

// SetPrefix sets a namespace written before every subsequent line's key.
// Composite automata use it to keep component keys disjoint without
// concatenating strings per line.
func (f *Fingerprinter) SetPrefix(p string) { f.prefix = p }

// feed folds one byte into the open line's FNV-1a-128 state.
func (f *Fingerprinter) feed(c byte) {
	f.llo ^= uint64(c)
	hi, lo := bits.Mul64(f.llo, fnv128PrimeLo)
	f.lhi = f.lhi*fnv128PrimeLo + f.llo<<24 + hi
	f.llo = lo
}

// Begin opens a new line for one state component and writes prefix+key.
func (f *Fingerprinter) Begin(key string) {
	f.lhi, f.llo = fnv128OffsetHi, fnv128OffsetLo
	if f.record {
		f.line = f.line[:0]
	}
	f.Str(f.prefix)
	f.Str(key)
}

// End finishes the open line, folding its hash into the digest. The raw
// FNV state is passed through mix128 first: FNV is multiplicative, so two
// related lines (same key, value differing in one digit) have raw hashes
// differing by a small multiple of a prime power, and summing raw hashes
// would let such differences cancel between states. The finalizer destroys
// that algebraic structure, making the folded line hashes behave as
// independent uniform values.
func (f *Fingerprinter) End() {
	mhi, mlo := mix128(f.lhi, f.llo)
	var c uint64
	f.lo, c = bits.Add64(f.lo, mlo, 0)
	f.hi = f.hi + mhi + c
	f.n++
	if f.record {
		f.lines = append(f.lines, string(f.line))
	}
}

// mix128 is a nonlinear 128-bit finalizer: murmur3's fmix64 applied to each
// word, cross-coupled so both outputs depend on both inputs.
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

// Str writes a string into the open line.
func (f *Fingerprinter) Str(s string) {
	for i := 0; i < len(s); i++ {
		f.feed(s[i])
	}
	if f.record {
		f.line = append(f.line, s...)
	}
}

// Byte writes one byte into the open line.
func (f *Fingerprinter) Byte(c byte) {
	f.feed(c)
	if f.record {
		f.line = append(f.line, c)
	}
}

// Int writes the decimal rendering of v into the open line.
func (f *Fingerprinter) Int(v int) {
	var buf [20]byte
	b := strconv.AppendInt(buf[:0], int64(v), 10)
	for _, c := range b {
		f.feed(c)
	}
	if f.record {
		f.line = append(f.line, b...)
	}
}

// Uint writes the decimal rendering of v into the open line.
func (f *Fingerprinter) Uint(v uint64) {
	var buf [20]byte
	b := strconv.AppendUint(buf[:0], v, 10)
	for _, c := range b {
		f.feed(c)
	}
	if f.record {
		f.line = append(f.line, b...)
	}
}

// Add records one state component as a whole key=value line.
func (f *Fingerprinter) Add(key, value string) {
	f.Begin(key)
	f.Byte('=')
	f.Str(value)
	f.End()
}

// AddInt records one integer-valued state component.
func (f *Fingerprinter) AddInt(key string, v int) {
	f.Begin(key)
	f.Byte('=')
	f.Int(v)
	f.End()
}

// Sum returns the 128-bit fingerprint of the lines written so far. The line
// count is mixed in so that the empty fingerprint is distinct from zero and
// multisets of different sizes separate even on (astronomically unlikely)
// equal sums.
func (f *Fingerprinter) Sum() Fp {
	var fp Fp
	var c uint64
	fp.Lo, c = bits.Add64(f.lo, (f.n+1)*0x9e3779b97f4a7c15, 0)
	fp.Hi = f.hi + c + (f.n+1)*0xbf58476d1ce4e5b9
	return fp
}

// String returns the canonical readable fingerprint: the recorded lines
// sorted and joined with newlines. It requires recording mode; without it
// there is no text to render and String returns a placeholder.
func (f *Fingerprinter) String() string {
	if !f.record {
		return "<fingerprint text unavailable: recording disabled>"
	}
	sort.Strings(f.lines)
	return strings.Join(f.lines, "\n")
}

// FpOf computes an automaton's 128-bit state fingerprint. This is the hot
// path: no intermediate strings are built.
func FpOf(a Automaton) Fp {
	var f Fingerprinter
	a.Fingerprint(&f)
	return f.Sum()
}

// FingerprintString computes the readable text fingerprint (sorted key=value
// lines). It allocates; use it for diagnostics, not on hot paths.
func FingerprintString(a Automaton) string {
	var f Fingerprinter
	f.SetRecording(true)
	a.Fingerprint(&f)
	return f.String()
}
