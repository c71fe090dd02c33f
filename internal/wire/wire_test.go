package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/types"
)

// The message union, events and chunks are round-tripped where they are used
// (internal/conform, internal/net); these tests pin the reader's own contract.

func TestReaderPrimitivesRoundTrip(t *testing.T) {
	v := types.NewView(types.ViewID{Seq: math.MaxUint64, Origin: -3}, 0, 7, types.MaxProcs-1)
	l := types.Label{ID: v.ID, Seqno: math.MinInt64, Origin: math.MaxInt32}
	gs := []types.GroupID{0, -1, 9}
	b := AppendGroups(AppendBool(AppendString(AppendLabel(AppendView(AppendInt(nil, -42), v), l), "a\x00b"), true), gs)
	b = AppendMcProp(AppendMcData(b, "id", 4, gs, "payload"), 2, "id2", 1<<63)
	r := Reader{B: b}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.View(); got != v {
		t.Errorf("View = %v, want %v", got, v)
	}
	if got := r.Label(); got != l {
		t.Errorf("Label = %v, want %v", got, l)
	}
	if got := r.Str(); got != "a\x00b" {
		t.Errorf("Str = %q", got)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	isGroups := func(got []types.GroupID) bool { return len(got) == 3 && got[0] == 0 && got[1] == -1 && got[2] == 9 }
	if got := r.Groups(); !isGroups(got) {
		t.Errorf("Groups = %v", got)
	}
	if id, origin, dests, p := r.Str(), r.Proc(), r.Groups(), r.Str(); id != "id" || origin != 4 || !isGroups(dests) || p != "payload" {
		t.Errorf("data fields %q %d %v %q", id, origin, dests, p)
	}
	if pg, id, ts := r.Group(), r.Str(), r.Uvarint(); pg != 2 || id != "id2" || ts != 1<<63 {
		t.Errorf("proposal %d %q %d", pg, id, ts)
	}
	if err := r.Finish("primitives"); err != nil {
		t.Error(err)
	}
}

// TestReaderViewRefusesOutOfRangeIDs: a member id a process set cannot hold
// fails the read, whatever its size, and nothing of the view survives.
func TestReaderViewRefusesOutOfRangeIDs(t *testing.T) {
	for _, id := range []int{types.MaxProcs, -1, 1 << 40, math.MinInt64} {
		b := AppendInt(AppendInt(AppendCount(AppendViewID(nil, types.ViewID{Seq: 2}), 2), 0), id)
		r := Reader{B: b}
		if v := r.View(); r.Err == nil || v != (types.View{}) {
			t.Errorf("member %d: view %v, err %v", id, v, r.Err)
		} else if !strings.Contains(r.Err.Error(), "outside 0–63") {
			t.Errorf("member %d: the error does not name the bound: %v", id, r.Err)
		}
	}
}

// TestReaderFailureSticks: after the first failure every read is zero, every
// count is 0 and the first error is the one reported.
func TestReaderFailureSticks(t *testing.T) {
	r := Reader{B: []byte{0x80}} // a varint that never ends
	if r.Uvarint() != 0 || r.Err == nil {
		t.Fatal("truncated uvarint accepted")
	}
	first := r.Err
	r.Fail("a later failure")
	if r.Int() != 0 || r.Byte() != 0 || r.Count(1) != 0 || r.Str() != "" || r.Msg(0) != nil || r.View().Members.Len() != 0 {
		t.Error("reads after a failure are not zero")
	}
	if r.Err != first {
		t.Errorf("error changed from %v to %v", first, r.Err)
	}
	if err := r.Finish("thing"); err == nil {
		t.Error("Finish after a failure returned nil")
	}
	if err := (&Reader{B: []byte{1}}).Finish("thing"); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestReaderCountsBoundedByInput: a count or length is believed only as far
// as the bytes that remain could hold it, whatever the element size.
func TestReaderCountsBoundedByInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for name, read := range map[string]func(*Reader){
		"string":  func(r *Reader) { r.Str() },
		"groups":  func(r *Reader) { r.Groups() },
		"summary": func(r *Reader) { r.Summary() },
		"take":    func(r *Reader) { r.Take() },
		"members": func(r *Reader) { r.B = append([]byte{0, 0}, r.B...); r.View() },
		"batch":   func(r *Reader) { r.B = append([]byte{TagBatch}, r.B...); r.Msg(0) },
	} {
		r := Reader{B: append(append([]byte(nil), huge...), 1, 2, 3)}
		if allocs := testing.AllocsPerRun(1, func() { read(&r) }); allocs > 4 {
			t.Errorf("%s: %v allocations on a count of 2^62 in 3 bytes", name, allocs)
		}
		if r.Err == nil {
			t.Errorf("%s: a count of 2^62 in 3 bytes was accepted", name)
		}
	}
	r := Reader{B: []byte{3, 1, 2, 3}}
	if got := r.Count(2); got != 0 || r.Err == nil {
		t.Errorf("3 elements of 2 bytes in 3 bytes: Count = %d, err %v", got, r.Err)
	}
	if r := (Reader{B: binary.AppendUvarint(nil, math.MaxInt64)}); r.Index() != 0 || r.Err == nil {
		t.Error("an offset of 2^63-1 was accepted")
	}
}
