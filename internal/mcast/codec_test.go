package mcast

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocol/mcastcore"
	"repro/internal/types"
)

func TestCodecDataRoundTrip(t *testing.T) {
	cases := []mcastcore.EvData{
		{ID: "p1-1", Origin: 1, Dests: []types.GroupID{0}, Payload: "hello"},
		{Group: 3, ID: "p0-42", Origin: 0, Dests: []types.GroupID{0, 2, 5}, Payload: ""},
		// Payloads containing punctuation, the magic itself, and binary junk
		// must survive the framing untouched.
		{ID: "x", Origin: 7, Dests: []types.GroupID{1, 3}, Payload: "7:colon,comma"},
		{ID: "y", Origin: 2, Dests: []types.GroupID{4}, Payload: magic + "D5:inner"},
		{ID: "z", Origin: 3, Dests: []types.GroupID{0, 1}, Payload: "\x00\xff\n:"},
	}
	for _, want := range cases {
		enc := encodeData(want.ID, want.Origin, want.Dests, want.Payload)
		if !isControl(enc) {
			t.Fatalf("encoded data frame %q not recognized as control", enc)
		}
		got, ok := decode(want.Group, enc)
		if !ok {
			t.Fatalf("decode(%q) failed", enc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestCodecPropRoundTrip(t *testing.T) {
	cases := []mcastcore.EvProposal{
		{PGroup: 0, ID: "p0-1", TS: 1},
		{Group: 1, PGroup: 9, ID: "p3-17", TS: 0},
		{PGroup: 2, ID: "weird:id,with\x00junk", TS: 1<<64 - 1},
	}
	for _, want := range cases {
		enc := encodeProp(want.PGroup, want.ID, want.TS)
		if !isControl(enc) {
			t.Fatalf("encoded proposal %q not recognized as control", enc)
		}
		got, ok := decode(want.Group, enc)
		if !ok {
			t.Fatalf("decode(%q) failed", enc)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestCodecRejectsMalformed feeds the decoder truncations, corruptions and
// junk: everything must come back !ok rather than panic or mis-parse —
// these are network-facing payloads on the TCP runtime.
func TestCodecRejectsMalformed(t *testing.T) {
	good := encodeData("id", 1, []types.GroupID{0, 1}, "payload")
	prop := encodeProp(1, "id", 7)
	overflow := strings.Repeat("\xff", 10) + "\x7f" // a varint past 64 bits
	bad := []string{
		"",
		"plain application payload",
		magic,                         // magic with no kind
		magic + "X",                   // unknown kind
		magic + "D",                   // no fields
		magic + "P\x02\xff",           // pgroup, then a length varint that never ends
		magic + "D\x05id",             // length overruns the buffer
		good[:len(good)-3],            // truncated tail
		good + "extra",                // trailing garbage
		magic + "D" + overflow,        // id length overflows
		prop[:len(prop)-1] + overflow, // timestamp overflows
		strings.Replace(good, "\x02\x00\x02", "\x7f\x00\x02", 1), // more dests than bytes
	}
	for _, s := range bad {
		if f, ok := decode(0, s); ok {
			t.Fatalf("decode(%q) accepted malformed input as %+v", s, f)
		}
	}
}

// TestCodecNonControlPassThrough pins the reservation boundary: ordinary
// payloads — including ones that merely start with a NUL — are only treated
// as control when they carry the full magic.
func TestCodecNonControlPassThrough(t *testing.T) {
	for _, s := range []string{"", "m", "mc", "\x00", "\x00m", "\x00Mc", "hello"} {
		if isControl(s) {
			t.Fatalf("isControl(%q) = true for a non-control payload", s)
		}
	}
	if !isControl(magic) || !isControl(magic+"Danything") {
		t.Fatal("magic-prefixed payloads must be reserved")
	}
}
