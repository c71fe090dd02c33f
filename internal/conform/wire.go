package conform

import (
	"encoding/binary"
	"fmt"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
	"repro/internal/wire"
)

// The trace codec: the macro-step records of all three layers and the
// header, chunk and footer segments, written with internal/wire's primitives
// and message union — the only representation a recorded step ever has. It
// is stateless — every record is decodable from its own bytes — which is
// what lets StreamNode encode outside the recorder's mutex. Conventions and
// tag ranges are package wire's; layout in DESIGN.md §6.8.

// One tag range per union: DVS events, DVS effects, TO events, TO effects,
// multicast events, multicast effects. A DVS or TO record's tag is its
// range's first plus its kind less one: the cores number their kinds in
// tag order.
const (
	tagDVSEvent, tagDVSEffect, tagTOEvent, tagTOEffect byte = 0x10, 0x20, 0x30, 0x40
	tagEvMcSubmit, tagEvMcData, tagEvMcProposal        byte = 0x60, 0x61, 0x62
	tagFxMcSendData, tagFxMcSendProp, tagFxMcDeliver   byte = 0x70, 0x71, 0x72
)

func appendMsgFrom(b []byte, m types.Msg, from types.ProcID) ([]byte, error) {
	b, err := wire.AppendMsg(b, m, 0)
	return wire.AppendInt(b, int(from)), err
}

func appendDVSEvent(b []byte, ev dvscore.Event) ([]byte, error) {
	switch tag := tagDVSEvent + byte(ev.Kind) - 1; ev.Kind {
	case dvscore.EvVSNewView:
		return wire.AppendView(append(b, tag), ev.View), nil
	case dvscore.EvVSRecv, dvscore.EvVSSafe:
		return appendMsgFrom(append(b, tag), ev.M, ev.From)
	case dvscore.EvClientSend:
		return wire.AppendMsg(append(b, tag), ev.M, 0)
	case dvscore.EvClientRegister:
		return append(b, tag), nil
	}
	return b, fmt.Errorf("conform: dvs event %v has no wire tag", ev.Kind)
}

func appendDVSEffect(b []byte, fx dvscore.Effect) ([]byte, error) {
	switch tag := tagDVSEffect + byte(fx.Kind) - 1; fx.Kind {
	case dvscore.FxSendVS:
		return wire.AppendMsg(append(b, tag), fx.M, 0)
	case dvscore.FxDeliver, dvscore.FxSafeInd:
		return appendMsgFrom(append(b, tag), fx.M, fx.From)
	case dvscore.FxNewPrimary, dvscore.FxGC:
		return wire.AppendView(append(b, tag), fx.View), nil
	}
	return b, fmt.Errorf("conform: dvs effect %v has no wire tag", fx.Kind)
}

func appendTOEvent(b []byte, ev tocore.Event) ([]byte, error) {
	switch tag := tagTOEvent + byte(ev.Kind) - 1; ev.Kind {
	case tocore.EvBroadcast:
		return wire.AppendString(append(b, tag), ev.A), nil
	case tocore.EvNewView:
		return wire.AppendView(append(b, tag), ev.View), nil
	case tocore.EvRecv, tocore.EvSafe:
		return appendMsgFrom(append(b, tag), ev.M, ev.From)
	case tocore.EvUniverse: // a view's member list is the one set encoding there is
		return wire.AppendView(append(b, tag), types.View{Members: ev.Set}), nil
	}
	return b, fmt.Errorf("conform: to event %v has no wire tag", ev.Kind)
}

func appendTOEffect(b []byte, fx tocore.Effect) ([]byte, error) {
	switch tag := tagTOEffect + byte(fx.Kind) - 1; fx.Kind {
	case tocore.FxLabel:
		return wire.AppendString(append(b, tag), fx.A), nil
	case tocore.FxSend:
		return wire.AppendMsg(append(b, tag), fx.M, 0)
	case tocore.FxConfirm:
		return append(b, tag), nil
	case tocore.FxDeliver:
		return wire.AppendInt(wire.AppendString(append(b, tag), fx.A), int(fx.Origin)), nil
	case tocore.FxRegister:
		return wire.AppendView(append(b, tag), fx.View), nil
	}
	return b, fmt.Errorf("conform: to effect %v has no wire tag", fx.Kind)
}

// mcTag writes the tag and the group an EvData, EvProposal, FxSendData or
// FxSendProp names first, before the fields wire.AppendMcData or AppendMcProp add.
func mcTag(b []byte, tag byte, g types.GroupID) []byte { return wire.AppendInt(append(b, tag), int(g)) }

func appendMcastEvent(b []byte, ev mcastcore.Event) ([]byte, error) {
	switch e := ev.(type) {
	case mcastcore.EvSubmit:
		return wire.AppendString(wire.AppendGroups(append(b, tagEvMcSubmit), e.Dests), e.Payload), nil
	case mcastcore.EvData:
		return wire.AppendMcData(mcTag(b, tagEvMcData, e.Group), e.ID, e.Origin, e.Dests, e.Payload), nil
	case mcastcore.EvProposal:
		return wire.AppendMcProp(mcTag(b, tagEvMcProposal, e.Group), e.PGroup, e.ID, e.TS), nil
	default:
		return b, fmt.Errorf("conform: mcast event type %T has no wire tag", ev)
	}
}

func appendMcastEffect(b []byte, fx mcastcore.Effect) ([]byte, error) {
	switch f := fx.(type) {
	case mcastcore.FxSendData:
		return wire.AppendMcData(mcTag(b, tagFxMcSendData, f.To), f.ID, f.Origin, f.Dests, f.Payload), nil
	case mcastcore.FxSendProp:
		return wire.AppendMcProp(mcTag(b, tagFxMcSendProp, f.To), f.PGroup, f.ID, f.TS), nil
	case mcastcore.FxDeliver:
		b = wire.AppendInt(wire.AppendString(wire.AppendInt(append(b, tagFxMcDeliver), int(f.Group)), f.ID), int(f.Origin))
		return binary.AppendUvarint(wire.AppendString(b, f.Payload), f.TS), nil
	default:
		return b, fmt.Errorf("conform: mcast effect type %T has no wire tag", fx)
	}
}

// layerCodec ties together the four halves of one layer's record codec.
type layerCodec[E, F any] struct {
	appendEv func([]byte, E) ([]byte, error)
	appendFx func([]byte, F) ([]byte, error)
	readEv   func(*wire.Reader) E
	readFx   func(*wire.Reader) F
}

var (
	dvsCodec   = layerCodec[dvscore.Event, dvscore.Effect]{appendDVSEvent, appendDVSEffect, readDVSEvent, readDVSEffect}
	toCodec    = layerCodec[tocore.Event, tocore.Effect]{appendTOEvent, appendTOEffect, readTOEvent, readTOEffect}
	mcastCodec = layerCodec[mcastcore.Event, mcastcore.Effect]{appendMcastEvent, appendMcastEffect, readMcastEvent, readMcastEffect}
)

// append encodes one macro-step: the event, the effect count, the effects.
func (c layerCodec[E, F]) append(b []byte, ev E, fx []F) ([]byte, error) {
	b, err := c.appendEv(b, ev)
	if err != nil {
		return b, err
	}
	return appendEffects(b, fx, c.appendFx)
}

// appendEffects encodes an effect sequence: the count, the effects. The
// replay engine compares effect sequences by these bytes.
func appendEffects[F any](b []byte, fx []F, appendFx func([]byte, F) ([]byte, error)) ([]byte, error) {
	b = wire.AppendCount(b, len(fx))
	var err error
	for i := 0; i < len(fx) && err == nil; i++ {
		b, err = appendFx(b, fx[i])
	}
	return b, err
}

// appendHeader encodes the header segment: the format version first, so a
// reader can refuse a foreign version before parsing anything else, then one
// NodeMeta per node. A flag keeps "not a coordinator" (nil McastGroups) apart
// from a coordinator over no groups.
func appendHeader(b []byte, nodes []NodeMeta) []byte {
	b = wire.AppendCount(wire.AppendCount(b, streamVersion), len(nodes))
	for _, m := range nodes {
		b = wire.AppendView(wire.AppendInt(wire.AppendInt(b, int(m.P)), int(m.Group)), m.Initial)
		b = wire.AppendBool(wire.AppendBool(wire.AppendBool(wire.AppendBool(b, m.InP0), m.Register), m.GC), m.Static)
		b = wire.AppendGroups(wire.AppendBool(b, m.McastGroups != nil), m.McastGroups)
	}
	return b
}

// appendFooter encodes the footer segment: the chunk count and every node's
// per-layer step totals.
func appendFooter(b []byte, ft streamFooter) []byte {
	b = wire.AppendCount(wire.AppendCount(b, ft.Chunks), len(ft.Totals))
	for _, tot := range ft.Totals {
		b = wire.AppendInt(b, int(tot.P))
		for _, n := range tot.Steps {
			b = wire.AppendCount(b, n)
		}
	}
	return b
}

// The readers invert the appenders. A tag outside its range wraps to a kind
// no switch knows.

func readDVSEvent(r *wire.Reader) (ev dvscore.Event) {
	tag := r.Byte()
	switch ev.Kind = dvscore.EventKind(tag - tagDVSEvent + 1); ev.Kind {
	case dvscore.EvVSNewView:
		ev.View = r.View()
	case dvscore.EvVSRecv, dvscore.EvVSSafe:
		ev.M, ev.From = r.Msg(0), r.Proc()
	case dvscore.EvClientSend:
		ev.M = r.Msg(0)
	case dvscore.EvClientRegister:
	default:
		r.Fail("unknown dvs event tag %#x", tag)
	}
	return ev
}

func readDVSEffect(r *wire.Reader) (fx dvscore.Effect) {
	tag := r.Byte()
	switch fx.Kind = dvscore.EffectKind(tag - tagDVSEffect + 1); fx.Kind {
	case dvscore.FxSendVS:
		fx.M = r.Msg(0)
	case dvscore.FxDeliver, dvscore.FxSafeInd:
		fx.M, fx.From = r.Msg(0), r.Proc()
	case dvscore.FxNewPrimary, dvscore.FxGC:
		fx.View = r.View()
	default:
		r.Fail("unknown dvs effect tag %#x", tag)
	}
	return fx
}

func readTOEvent(r *wire.Reader) (ev tocore.Event) {
	tag := r.Byte()
	switch ev.Kind = tocore.EventKind(tag - tagTOEvent + 1); ev.Kind {
	case tocore.EvBroadcast:
		ev.A = r.Str()
	case tocore.EvNewView:
		ev.View = r.View()
	case tocore.EvRecv, tocore.EvSafe:
		ev.M, ev.From = r.Msg(0), r.Proc()
	case tocore.EvUniverse:
		ev.Set = r.View().Members
	default:
		r.Fail("unknown to event tag %#x", tag)
	}
	return ev
}

func readTOEffect(r *wire.Reader) (fx tocore.Effect) {
	tag := r.Byte()
	switch fx.Kind = tocore.EffectKind(tag - tagTOEffect + 1); fx.Kind {
	case tocore.FxLabel:
		fx.A = r.Str()
	case tocore.FxSend:
		fx.M = r.Msg(0)
	case tocore.FxConfirm:
	case tocore.FxDeliver:
		fx.A, fx.Origin = r.Str(), r.Proc()
	case tocore.FxRegister:
		fx.View = r.View()
	default:
		r.Fail("unknown to effect tag %#x", tag)
	}
	return fx
}

func readMcastEvent(r *wire.Reader) mcastcore.Event {
	switch tag := r.Byte(); tag {
	case tagEvMcSubmit:
		return mcastcore.EvSubmit{Dests: r.Groups(), Payload: r.Str()}
	case tagEvMcData:
		return mcastcore.EvData{Group: r.Group(), ID: r.Str(), Origin: r.Proc(), Dests: r.Groups(), Payload: r.Str()}
	case tagEvMcProposal:
		return mcastcore.EvProposal{Group: r.Group(), PGroup: r.Group(), ID: r.Str(), TS: r.Uvarint()}
	default:
		r.Fail("unknown mcast event tag %#x", tag)
		return nil
	}
}

func readMcastEffect(r *wire.Reader) mcastcore.Effect {
	switch tag := r.Byte(); tag {
	case tagFxMcSendData:
		return mcastcore.FxSendData{To: r.Group(), ID: r.Str(), Origin: r.Proc(), Dests: r.Groups(), Payload: r.Str()}
	case tagFxMcSendProp:
		return mcastcore.FxSendProp{To: r.Group(), PGroup: r.Group(), ID: r.Str(), TS: r.Uvarint()}
	case tagFxMcDeliver:
		return mcastcore.FxDeliver{Group: r.Group(), ID: r.Str(), Origin: r.Proc(), Payload: r.Str(), TS: r.Uvarint()}
	default:
		r.Fail("unknown mcast effect tag %#x", tag)
		return nil
	}
}

// read decodes one macro-step; no effects decode as a nil slice.
func (c layerCodec[E, F]) read(r *wire.Reader) Record[E, F] {
	rec := Record[E, F]{Ev: c.readEv(r)}
	if n := r.Count(1); n > 0 {
		rec.Fx = make([]F, n)
		for i := range rec.Fx {
			rec.Fx[i] = c.readFx(r)
		}
	}
	return rec
}

// readLayer reads one layer's (start, count, byteLen, bytes): count records
// decoded by one from exactly byteLen bytes. A record is at least two bytes
// (event tag + effect count), which bounds count before anything is
// allocated.
func readLayer[R any](r *wire.Reader, one func(*wire.Reader) R) (start int, recs []R) {
	start = r.Index()
	n := r.Uvarint()
	sub := wire.Reader{B: r.Take()}
	if n > uint64(len(sub.B)/2) {
		r.Fail("%d records cannot fit in %d bytes", n, len(sub.B))
		return start, nil
	}
	recs = make([]R, 0, n)
	for len(recs) < int(n) && sub.Err == nil {
		recs = append(recs, one(&sub))
	}
	if sub.Err != nil {
		r.Fail("%v", sub.Err)
	} else if len(sub.B) != 0 {
		r.Fail("%d trailing bytes after the last record", len(sub.B))
	}
	return start, recs
}

// decodeChunk parses a chunk payload. Malformed input of any shape is an
// error, never a panic.
func decodeChunk(payload []byte) (streamChunk, error) {
	r := wire.Reader{B: payload}
	ch := streamChunk{Seq: r.Index(), Quiescent: r.Bool()}
	nparts := r.Count(1 + 3*numLayers) // p + per layer (start, count, byteLen)
	for i := 0; i < nparts && r.Err == nil; i++ {
		part := chunkPart{P: r.Proc()}
		part.Start[layerDVS], part.DVS = readLayer(&r, dvsCodec.read)
		part.Start[layerTO], part.TO = readLayer(&r, toCodec.read)
		part.Start[layerMcast], part.Mcast = readLayer(&r, mcastCodec.read)
		ch.Parts = append(ch.Parts, part)
	}
	if err := r.Finish("chunk"); err != nil {
		return streamChunk{}, err
	}
	return ch, nil
}

// decodeHeader parses a header payload. The version is checked before the
// rest is read: a v1 or v2 header is gob, whose first bytes read here as
// some other number, and a v3 trace has summaries without bases; both must
// be refused rather than misparsed.
func decodeHeader(payload []byte) ([]NodeMeta, error) {
	r := wire.Reader{B: payload}
	if version := r.Index(); r.Err == nil && version != streamVersion {
		return nil, fmt.Errorf("stream version %d, this replayer reads only version %d: re-record the trace", version, streamVersion)
	}
	var nodes []NodeMeta
	n := r.Count(11) // p, group, view (3), five flags, group count
	for i := 0; i < n && r.Err == nil; i++ {
		m := NodeMeta{P: r.Proc(), Group: r.Group(), Initial: r.View()}
		m.InP0, m.Register, m.GC, m.Static = r.Bool(), r.Bool(), r.Bool(), r.Bool()
		if mcast, gs := r.Bool(), r.Groups(); mcast {
			m.McastGroups = append([]types.GroupID{}, gs...)
		}
		nodes = append(nodes, m)
	}
	return nodes, r.Finish("header")
}

// decodeFooter parses a footer payload.
func decodeFooter(payload []byte) (streamFooter, error) {
	r := wire.Reader{B: payload}
	ft := streamFooter{Chunks: r.Index()}
	n := r.Count(1 + numLayers)
	for i := 0; i < n && r.Err == nil; i++ {
		tot := nodeTotal{P: r.Proc()}
		for l := range tot.Steps {
			tot.Steps[l] = r.Index()
		}
		ft.Totals = append(ft.Totals, tot)
	}
	return ft, r.Finish("footer")
}
