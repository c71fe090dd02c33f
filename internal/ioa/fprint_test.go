package ioa

import (
	"bytes"
	"strings"
	"testing"
)

// TestFingerprinterRecordingMatchesHashOnly: recording mode must not change
// the digest — the hash is over exactly the bytes the text renders.
func TestFingerprinterRecordingMatchesHashOnly(t *testing.T) {
	write := func(f *Fingerprinter) {
		f.Add("cur", "<0.0,{0,1}>")
		f.AddInt("n", 42)
		f.SetPrefix("vs.")
		f.Begin("queue.")
		f.Int(3)
		f.Byte('=')
		f.Str("a|b")
		f.End()
		f.SetPrefix("")
	}
	var plain, rec Fingerprinter
	rec.SetRecording(true)
	write(&plain)
	write(&rec)
	if plain.Sum() != rec.Sum() {
		t.Errorf("recording changed the digest: %v vs %v", plain.Sum(), rec.Sum())
	}
	want := "cur=<0.0,{0,1}>\nn=42\nvs.queue.3=a|b"
	if got := rec.String(); got != want {
		t.Errorf("recorded text:\n%q\nwant:\n%q", got, want)
	}
}

// TestFingerprinterEmptyNotZero: an empty digest must not be the zero Fp
// (the striped seen-set uses zero as its empty-slot marker and stores a real
// zero fingerprint out of band, but the common empty state should not land
// there), and it must differ from a one-empty-line digest.
func TestFingerprinterEmptyNotZero(t *testing.T) {
	var f Fingerprinter
	if (f.Sum() == Fp{}) {
		t.Error("empty digest is the zero Fp")
	}
	var g Fingerprinter
	g.Begin("")
	g.End()
	if f.Sum() == g.Sum() {
		t.Error("empty digest equals one-empty-line digest")
	}
}

// TestFingerprinterRelatedLinesSeparate reproduces the structured near-miss
// the collision audit caught during development: states whose line multisets
// differ by small digit changes in two lines. With raw FNV line hashes the
// additive fold let such differences cancel; the mix128 finalizer in End
// must keep them apart.
func TestFingerprinterRelatedLinesSeparate(t *testing.T) {
	sum := func(lines ...string) Fp {
		var f Fingerprinter
		for _, l := range lines {
			k, v, _ := strings.Cut(l, "=")
			f.Add(k, v)
		}
		return f.Sum()
	}
	a := sum("cur.0=3.0", "cur.1=3.0")
	b := sum("cur.0=0.0", "cur.1=4.0")
	if a == b {
		t.Errorf("related states collide: %v", a)
	}
	// Sweep single-digit value pairs; all 100 digests must be distinct.
	seen := make(map[Fp]string, 100)
	for x := '0'; x <= '9'; x++ {
		for y := '0'; y <= '9'; y++ {
			fp := sum("cur.0="+string(x), "cur.1="+string(y))
			key := string(x) + string(y)
			if prev, dup := seen[fp]; dup {
				t.Fatalf("digit pair %s collides with %s", key, prev)
			}
			seen[fp] = key
		}
	}
}

// FuzzFpCanonical feeds arbitrary line multisets to the Fingerprinter and
// checks the two properties the exploration engine relies on: the digest is
// invariant under the order lines are written (map iteration order cannot
// leak in), and it matches the digest of the recording mode whose sorted
// text form error messages print.
func FuzzFpCanonical(f *testing.F) {
	f.Add([]byte("cur=3.0\xffnext=1"), uint8(1))
	f.Add([]byte("a=\xffb=\xffc="), uint8(2))
	f.Add([]byte(""), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		lines := bytes.Split(data, []byte{0xff})
		write := func(f *Fingerprinter, order []int) {
			for _, i := range order {
				k, v, _ := bytes.Cut(lines[i], []byte{'='})
				f.Add(string(k), string(v))
			}
		}
		fwd := make([]int, len(lines))
		for i := range fwd {
			fwd[i] = i
		}
		rotated := make([]int, 0, len(lines))
		if n := len(lines); n > 0 {
			r := int(rot) % n
			rotated = append(rotated, fwd[r:]...)
			rotated = append(rotated, fwd[:r]...)
		}

		var a, b, rec Fingerprinter
		rec.SetRecording(true)
		write(&a, fwd)
		write(&b, rotated)
		write(&rec, fwd)
		if a.Sum() != b.Sum() {
			t.Errorf("digest depends on write order: %v vs %v", a.Sum(), b.Sum())
		}
		if a.Sum() != rec.Sum() {
			t.Errorf("recording mode changed the digest: %v vs %v", a.Sum(), rec.Sum())
		}
	})
}
