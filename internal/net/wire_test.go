package net_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/dvsg"
	"repro/internal/member"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
	"repro/internal/vsg"
	"repro/internal/wire"
)

func init() {
	for _, v := range []any{
		member.Heartbeat{}, member.Propose{}, member.Accept{}, member.Install{},
		vsg.Data{}, vsg.Ordered{}, vsg.Ack{}, vsg.SafePoint{},
		dvsg.WireBatch{}, netfab.GroupFrame{},
	} {
		netfab.RegisterWireType(v)
	}
}

// equalPayload is structural equality over everything the stack puts on the
// wire, with nil and empty collections alike (the codec stores a count).
func equalPayload(a, b any) bool {
	switch a := a.(type) {
	case types.Msg:
		bm, ok := b.(types.Msg)
		return ok && a.EqualMsg(bm)
	case member.Heartbeat:
		_, ok := b.(member.Heartbeat)
		return ok
	case member.Propose:
		b, ok := b.(member.Propose)
		return ok && a.View == b.View
	case member.Accept:
		return a == b
	case member.Install:
		b, ok := b.(member.Install)
		return ok && a.View == b.View
	case vsg.Data:
		b, ok := b.(vsg.Data)
		return ok && a.ViewID == b.ViewID && a.SenderSeq == b.SenderSeq && a.AckSeq == b.AckSeq && equalPayload(a.Payload, b.Payload)
	case vsg.Ordered:
		b, ok := b.(vsg.Ordered)
		return ok && a.ViewID == b.ViewID && a.Seq == b.Seq && a.Sender == b.Sender && a.SenderSeq == b.SenderSeq &&
			a.Safe == b.Safe && equalPayload(a.Payload, b.Payload)
	case vsg.Ack:
		return a == b
	case vsg.SafePoint:
		return a == b
	case dvsg.WireBatch:
		b, ok := b.(dvsg.WireBatch)
		if !ok || len(a.Msgs) != len(b.Msgs) {
			return false
		}
		for i := range a.Msgs {
			if !a.Msgs[i].EqualMsg(b.Msgs[i]) {
				return false
			}
		}
		return true
	case netfab.GroupFrame:
		b, ok := b.(netfab.GroupFrame)
		return ok && a.G == b.G && equalPayload(a.P, b.P)
	}
	// The in-package tests' own payload types share this test binary's
	// registry, so the fuzzer finds them too.
	return reflect.DeepEqual(a, b)
}

// wireSamples covers all sixteen stack wire types, nil and empty
// collections both, a ProcSet-carrying View, and the deepest nesting
// the stack produces.
func wireSamples() []any {
	g := types.ViewID{Seq: 1 << 40, Origin: 3}
	v := types.NewView(g, 0, 1, 5, types.MaxProcs-1)
	l := func(n int) types.Label { return types.Label{ID: g, Seqno: n, Origin: 2} }
	label := tocore.LabelMsg{L: l(7), A: "payload \x00\xff with junk"}
	batch := types.Batch{Msgs: []types.Msg{label, tocore.LabelMsg{L: l(8)}, types.ClientMsg("")}}
	summary := tocore.SummaryMsg{X: types.Summary{
		Con: types.Content{l(1): "a", l(2): ""}, Base: 1 << 20, Digest: 1<<63 + 5, Ord: []types.Label{l(2), l(1)}, Next: 3, High: g,
	}}
	return []any{
		member.Heartbeat{},
		member.Propose{View: v}, member.Propose{}, member.Propose{View: types.View{Members: types.NewProcSet()}},
		member.Accept{ViewID: g}, member.Accept{},
		member.Install{View: v},
		vsg.Data{ViewID: g, SenderSeq: 9, AckSeq: -1, Payload: label},
		vsg.Ordered{ViewID: g, Seq: 1 << 33, Sender: 4, SenderSeq: 2, Safe: 1, Payload: batch},
		vsg.Ack{ViewID: g, Seq: 12}, vsg.SafePoint{ViewID: g, Seq: 11},
		dvscore.InfoMsg{Act: v}, dvscore.InfoMsg{Act: v, Amb: []types.View{}}, dvscore.InfoMsg{Act: v, Amb: []types.View{v, {}}},
		dvscore.RegisteredMsg{},
		label, summary, tocore.SummaryMsg{}, tocore.SummaryMsg{X: types.Summary{Con: types.Content{}, Ord: []types.Label{}}},
		types.ClientMsg("hello"), types.ClientMsg(""),
		batch, types.Batch{}, types.Batch{Msgs: []types.Msg{}}, types.Batch{Msgs: []types.Msg{types.Batch{Msgs: []types.Msg{batch}}}},
		dvsg.WireBatch{Msgs: []types.Msg{batch, summary, dvscore.RegisteredMsg{}}},
		dvsg.WireBatch{}, dvsg.WireBatch{Msgs: []types.Msg{}},
		netfab.GroupFrame{G: 3, P: member.Heartbeat{}},
		netfab.GroupFrame{G: 1, P: vsg.Data{ViewID: g, Payload: dvsg.WireBatch{Msgs: []types.Msg{batch, label}}}},
	}
}

func encode(t testing.TB, v any) []byte {
	t.Helper()
	b, err := netfab.AppendPayload(nil, v, 0)
	if err != nil {
		t.Fatalf("encode %#v: %v", v, err)
	}
	return b
}

// TestWireFrameRoundTrip: decode(encode(x)) equals x, and equal values
// encode to equal bytes, so re-encoding the decoded value reproduces them.
func TestWireFrameRoundTrip(t *testing.T) {
	for _, x := range wireSamples() {
		b := encode(t, x)
		got, err := netfab.DecodeFrame(b)
		if err != nil {
			t.Errorf("%#v: decode: %v", x, err)
			continue
		}
		if !equalPayload(x, got) {
			t.Errorf("round trip changed the payload:\n sent %#v\n got  %#v", x, got)
		}
		if again := encode(t, got); !bytes.Equal(again, b) {
			t.Errorf("%#v: re-encoding the decoded payload gave different bytes", x)
		}
	}
}

func TestWireFrameDepthLimited(t *testing.T) {
	var p any = member.Heartbeat{}
	for i := 0; i < 3; i++ {
		p = netfab.GroupFrame{P: p}
	}
	if _, err := netfab.AppendPayload(nil, p, 0); err != nil {
		t.Errorf("four payload levels: %v", err)
	}
	if _, err := netfab.AppendPayload(nil, netfab.GroupFrame{P: p}, 0); err == nil {
		t.Error("five payload levels encoded")
	}
	if _, err := netfab.DecodeFrame(deepNest(t, 10000)); err == nil {
		t.Error("10000 nested group frames decoded")
	}
}

// hugeBase is a summary whose base is what a negative int reads as: no
// encoder writes it, and a decoder that took it would hand the core an index.
var hugeBase = append([]byte{0x55, 0}, binary.AppendUvarint(nil, 1<<63)...)

func TestWireFrameSummaryBaseRefused(t *testing.T) {
	if v, err := netfab.DecodeFrame(append(hugeBase, 0, 0, 2, 0, 0)); err == nil {
		t.Errorf("a summary with base 2^63 decoded: %#v", v)
	}
}

// deepNest is n GroupFrame headers around a heartbeat: bytes no encoder
// produces past the depth bound.
func deepNest(t testing.TB, n int) []byte {
	inner := encode(t, member.Heartbeat{})
	hdr := encode(t, netfab.GroupFrame{P: member.Heartbeat{}})
	return append(bytes.Repeat(hdr[:len(hdr)-len(inner)], n), inner...)
}

// size counts what a decoded payload holds: collection elements and string
// bytes, the things a hostile count or length could inflate.
func size(v any) int {
	view := func(v types.View) int { return 1 + v.Members.Len() }
	switch v := v.(type) {
	case types.ClientMsg:
		return 1 + len(v)
	case types.Batch:
		n := 1
		for _, m := range v.Msgs {
			n += size(m)
		}
		return n
	case dvscore.InfoMsg:
		n := view(v.Act)
		for _, a := range v.Amb {
			n += view(a)
		}
		return n
	case tocore.LabelMsg:
		return 1 + len(v.A)
	case tocore.SummaryMsg:
		n := 1 + len(v.X.Ord)
		for _, a := range v.X.Con {
			n += 1 + len(a)
		}
		return n
	case member.Propose:
		return view(v.View)
	case member.Install:
		return view(v.View)
	case vsg.Data:
		return 1 + size(v.Payload)
	case vsg.Ordered:
		return 1 + size(v.Payload)
	case dvsg.WireBatch:
		n := 1
		for _, m := range v.Msgs {
			n += size(m)
		}
		return n
	case netfab.GroupFrame:
		return 1 + size(v.P)
	}
	return 1
}

// badMember is a Propose frame whose view's one member is id, written past
// the encoder, which cannot hold an id outside a process set.
func badMember(t testing.TB, id int) []byte {
	b := encode(t, member.Propose{View: types.NewView(types.ViewID{Seq: 1}, 5)})
	return wire.AppendInt(b[:len(b)-1], id) // the member is the frame's last byte
}

// TestDecodeFrameRefusesOutOfRangeMember: a peer's view naming an id a
// process set cannot hold is a malformed frame, not a panic or a wrapped id.
func TestDecodeFrameRefusesOutOfRangeMember(t *testing.T) {
	if v, err := netfab.DecodeFrame(badMember(t, 5)); err != nil || v.(member.Propose).View != types.NewView(types.ViewID{Seq: 1}, 5) {
		t.Fatalf("the in-range frame: %v, %v", v, err)
	}
	for _, id := range []int{types.MaxProcs, -1, 1000000} {
		if v, err := netfab.DecodeFrame(badMember(t, id)); err == nil {
			t.Errorf("member %d decoded: %v", id, v)
		}
	}
}

// FuzzDecodeFrame: the one decoder for every byte a peer can send gives an
// error or a payload — never a panic, never more elements than the bytes
// could encode — and whatever decodes is something the encoder writes.
func FuzzDecodeFrame(f *testing.F) {
	frames := [][]byte{ // what the deleted exchange snapshot encoded to: its tag, 0x99, is free
		append(binary.AppendUvarint([]byte{0x99}, 1<<40), 6, 8, 's', 'n', 'a', 'p', 's', 'h', 'o', 't'),
		{0x99, 0, 0, 0},
	}
	for _, x := range wireSamples() {
		frames = append(frames, encode(f, x))
	}
	for _, b := range frames {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0))
	}
	huge := binary.AppendUvarint(nil, 1<<63)
	f.Add(append([]byte{0x98}, huge...))                                         // WireBatch of 2^63 members
	f.Add(append([]byte{0x51}, huge...))                                         // Batch likewise
	f.Add(append(append([]byte{0x80, 0, 0x90, 0, 0, 0, 0, 0x50}, huge...), 'x')) // a string of 2^63 bytes, three levels down
	f.Add(deepNest(f, 5))
	f.Add(deepNest(f, 1000))
	f.Add(bytes.Repeat([]byte{0x51, 1}, 1000)) // over-deep Batch nest
	f.Add([]byte{})
	f.Add(append(hugeBase, 0, 0, 2, 0, 0))
	for _, id := range []int{types.MaxProcs, -1} {
		f.Add(badMember(f, id))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := netfab.DecodeFrame(data)
		if err != nil {
			return
		}
		if n := size(v); n > len(data) {
			t.Fatalf("%d elements decoded from %d bytes: %#v", n, len(data), v)
		}
		b, err := netfab.AppendPayload(nil, v, 0)
		if err != nil {
			t.Fatalf("decoded payload does not encode: %v (%#v)", err, v)
		}
		again, err := netfab.DecodeFrame(b)
		if err != nil || !equalPayload(v, again) {
			t.Fatalf("re-encoding changed the payload (err %v):\n first  %#v\n second %#v", err, v, again)
		}
	})
}
