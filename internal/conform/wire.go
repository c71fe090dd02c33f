package conform

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// The trace codec: a hand-written tag-byte + varint encoding of the
// macro-step records of all three layers and of the header, chunk and footer
// segments — the only representation a recorded step ever has. It is
// stateless — every record is decodable from its own bytes — which is what
// lets StreamNode encode outside the recorder's mutex: a stateful stream
// (gob ships a type descriptor the first time a type appears) encoded
// outside the lock could land in the chunk after a cut while its descriptor
// stayed in the chunk before it. Layout in DESIGN.md §6.8.
//
// Conventions: counts, lengths, record offsets and ViewID.Seq are uvarints;
// every other integer (process ids, label sequence numbers, Summary.Next)
// is a zigzag varint; a string is a uvarint length plus its bytes; sets and
// maps are written in sorted order so equal records encode to equal bytes.
// Each union has its own tag range, so a byte from the wrong union is a
// decode error rather than a misparse.

const (
	tagEvVSNewView byte = 0x10 + iota
	tagEvVSRecv
	tagEvVSSafe
	tagEvClientSend
	tagEvClientRegister
)

const (
	tagFxSendVS byte = 0x20 + iota
	tagFxDVSDeliver
	tagFxSafeInd
	tagFxNewPrimary
	tagFxGC
)

const (
	tagEvBroadcast byte = 0x30 + iota
	tagEvNewView
	tagEvRecv
	tagEvSafe
)

const (
	tagFxLabel byte = 0x40 + iota
	tagFxSend
	tagFxConfirm
	tagFxTODeliver
	tagFxRegister
)

const (
	tagClientMsg byte = 0x50 + iota
	tagBatch
	tagInfoMsg
	tagRegisteredMsg
	tagLabelMsg
	tagSummaryMsg
)

const (
	tagEvMcSubmit byte = 0x60 + iota
	tagEvMcData
	tagEvMcProposal
)

const (
	tagFxMcSendData byte = 0x70 + iota
	tagFxMcSendProp
	tagFxMcDeliver
)

// maxBatchDepth bounds Batch nesting on both sides of the codec: the tob
// shell nests one level, and the decoder must not recurse as deep as a
// hostile file asks it to.
const maxBatchDepth = 4

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendCount(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

func appendString(b []byte, s string) []byte {
	return append(appendCount(b, len(s)), s...)
}

func appendViewID(b []byte, g types.ViewID) []byte {
	return appendInt(binary.AppendUvarint(b, g.Seq), int(g.Origin))
}

func appendView(b []byte, v types.View) []byte {
	b = appendCount(appendViewID(b, v.ID), len(v.Members))
	for _, p := range v.Members.Sorted() {
		b = appendInt(b, int(p))
	}
	return b
}

func appendLabel(b []byte, l types.Label) []byte {
	return appendInt(appendInt(appendViewID(b, l.ID), l.Seqno), int(l.Origin))
}

func appendSummary(b []byte, x types.Summary) []byte {
	b = appendCount(b, len(x.Con))
	for _, l := range x.Con.Labels() {
		b = appendString(appendLabel(b, l), x.Con[l])
	}
	b = appendCount(b, len(x.Ord))
	for _, l := range x.Ord {
		b = appendLabel(b, l)
	}
	return appendViewID(appendInt(b, x.Next), x.High)
}

// appendMsg encodes one message. A type with no wire tag is an error, not a
// panic: the recorder turns it into its sticky Err, so the trace ends
// unsealed instead of silently missing a record.
func appendMsg(b []byte, m types.Msg, depth int) ([]byte, error) {
	switch m := m.(type) {
	case types.ClientMsg:
		return appendString(append(b, tagClientMsg), string(m)), nil
	case types.Batch:
		if depth >= maxBatchDepth {
			return b, fmt.Errorf("conform: batch nested deeper than %d", maxBatchDepth)
		}
		b = appendCount(append(b, tagBatch), len(m.Msgs))
		for _, inner := range m.Msgs {
			var err error
			if b, err = appendMsg(b, inner, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	case dvscore.InfoMsg:
		b = appendCount(appendView(append(b, tagInfoMsg), m.Act), len(m.Amb))
		for _, v := range m.Amb {
			b = appendView(b, v)
		}
		return b, nil
	case dvscore.RegisteredMsg:
		return append(b, tagRegisteredMsg), nil
	case tocore.LabelMsg:
		return appendString(appendLabel(append(b, tagLabelMsg), m.L), m.A), nil
	case tocore.SummaryMsg:
		return appendSummary(append(b, tagSummaryMsg), m.X), nil
	default:
		return b, fmt.Errorf("conform: message type %T has no wire tag", m)
	}
}

func appendMsgFrom(b []byte, m types.Msg, from types.ProcID) ([]byte, error) {
	b, err := appendMsg(b, m, 0)
	return appendInt(b, int(from)), err
}

func appendDVSEvent(b []byte, ev dvscore.Event) ([]byte, error) {
	switch e := ev.(type) {
	case dvscore.EvVSNewView:
		return appendView(append(b, tagEvVSNewView), e.View), nil
	case dvscore.EvVSRecv:
		return appendMsgFrom(append(b, tagEvVSRecv), e.M, e.From)
	case dvscore.EvVSSafe:
		return appendMsgFrom(append(b, tagEvVSSafe), e.M, e.From)
	case dvscore.EvClientSend:
		return appendMsg(append(b, tagEvClientSend), e.M, 0)
	case dvscore.EvClientRegister:
		return append(b, tagEvClientRegister), nil
	default:
		return b, fmt.Errorf("conform: dvs event type %T has no wire tag", ev)
	}
}

func appendDVSEffect(b []byte, fx dvscore.Effect) ([]byte, error) {
	switch f := fx.(type) {
	case dvscore.FxSendVS:
		return appendMsg(append(b, tagFxSendVS), f.M, 0)
	case dvscore.FxDeliver:
		return appendMsgFrom(append(b, tagFxDVSDeliver), f.M, f.From)
	case dvscore.FxSafeInd:
		return appendMsgFrom(append(b, tagFxSafeInd), f.M, f.From)
	case dvscore.FxNewPrimary:
		return appendView(append(b, tagFxNewPrimary), f.View), nil
	case dvscore.FxGC:
		return appendView(append(b, tagFxGC), f.View), nil
	default:
		return b, fmt.Errorf("conform: dvs effect type %T has no wire tag", fx)
	}
}

func appendTOEvent(b []byte, ev tocore.Event) ([]byte, error) {
	switch e := ev.(type) {
	case tocore.EvBroadcast:
		return appendString(append(b, tagEvBroadcast), e.A), nil
	case tocore.EvNewView:
		return appendView(append(b, tagEvNewView), e.View), nil
	case tocore.EvRecv:
		return appendMsgFrom(append(b, tagEvRecv), e.M, e.From)
	case tocore.EvSafe:
		return appendMsgFrom(append(b, tagEvSafe), e.M, e.From)
	default:
		return b, fmt.Errorf("conform: to event type %T has no wire tag", ev)
	}
}

func appendTOEffect(b []byte, fx tocore.Effect) ([]byte, error) {
	switch f := fx.(type) {
	case tocore.FxLabel:
		return appendString(append(b, tagFxLabel), f.A), nil
	case tocore.FxSend:
		return appendMsg(append(b, tagFxSend), f.M, 0)
	case tocore.FxConfirm:
		return append(b, tagFxConfirm), nil
	case tocore.FxDeliver:
		return appendInt(appendString(append(b, tagFxTODeliver), f.A), int(f.Origin)), nil
	case tocore.FxRegister:
		return appendView(append(b, tagFxRegister), f.View), nil
	default:
		return b, fmt.Errorf("conform: to effect type %T has no wire tag", fx)
	}
}

func appendGroups(b []byte, gs []types.GroupID) []byte {
	b = appendCount(b, len(gs))
	for _, g := range gs {
		b = appendInt(b, int(g))
	}
	return b
}

// appendMcData encodes the fields EvData and FxSendData share, after the
// group each names first.
func appendMcData(b []byte, g types.GroupID, id string, origin types.ProcID, dests []types.GroupID, payload string) []byte {
	b = appendInt(appendString(appendInt(b, int(g)), id), int(origin))
	return appendString(appendGroups(b, dests), payload)
}

// appendMcProp likewise for EvProposal and FxSendProp.
func appendMcProp(b []byte, g, pg types.GroupID, id string, ts uint64) []byte {
	return binary.AppendUvarint(appendString(appendInt(appendInt(b, int(g)), int(pg)), id), ts)
}

func appendMcastEvent(b []byte, ev mcastcore.Event) ([]byte, error) {
	switch e := ev.(type) {
	case mcastcore.EvSubmit:
		return appendString(appendGroups(append(b, tagEvMcSubmit), e.Dests), e.Payload), nil
	case mcastcore.EvData:
		return appendMcData(append(b, tagEvMcData), e.Group, e.ID, e.Origin, e.Dests, e.Payload), nil
	case mcastcore.EvProposal:
		return appendMcProp(append(b, tagEvMcProposal), e.Group, e.PGroup, e.ID, e.TS), nil
	default:
		return b, fmt.Errorf("conform: mcast event type %T has no wire tag", ev)
	}
}

func appendMcastEffect(b []byte, fx mcastcore.Effect) ([]byte, error) {
	switch f := fx.(type) {
	case mcastcore.FxSendData:
		return appendMcData(append(b, tagFxMcSendData), f.To, f.ID, f.Origin, f.Dests, f.Payload), nil
	case mcastcore.FxSendProp:
		return appendMcProp(append(b, tagFxMcSendProp), f.To, f.PGroup, f.ID, f.TS), nil
	case mcastcore.FxDeliver:
		b = appendInt(appendString(appendInt(append(b, tagFxMcDeliver), int(f.Group)), f.ID), int(f.Origin))
		return binary.AppendUvarint(appendString(b, f.Payload), f.TS), nil
	default:
		return b, fmt.Errorf("conform: mcast effect type %T has no wire tag", fx)
	}
}

// layerCodec ties together the four halves of one layer's record codec.
type layerCodec[E, F any] struct {
	appendEv func([]byte, E) ([]byte, error)
	appendFx func([]byte, F) ([]byte, error)
	readEv   func(*wireReader) E
	readFx   func(*wireReader) F
}

var (
	dvsCodec   = layerCodec[dvscore.Event, dvscore.Effect]{appendDVSEvent, appendDVSEffect, (*wireReader).dvsEvent, (*wireReader).dvsEffect}
	toCodec    = layerCodec[tocore.Event, tocore.Effect]{appendTOEvent, appendTOEffect, (*wireReader).toEvent, (*wireReader).toEffect}
	mcastCodec = layerCodec[mcastcore.Event, mcastcore.Effect]{appendMcastEvent, appendMcastEffect, (*wireReader).mcastEvent, (*wireReader).mcastEffect}
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
	b = appendCount(b, len(fx))
	var err error
	for i := 0; i < len(fx) && err == nil; i++ {
		b, err = appendFx(b, fx[i])
	}
	return b, err
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendChunk assembles a chunk payload: seq, the quiescence mark, then per
// part the process id and each layer's (start, count, byteLen, bytes).
func appendChunk(b []byte, job *chunkJob) []byte {
	b = appendCount(appendBool(appendCount(b, job.seq), job.quiescent), len(job.parts))
	for i := range job.parts {
		part := &job.parts[i]
		b = appendInt(b, int(part.p))
		for _, lb := range part.layers {
			b = append(appendCount(appendCount(appendCount(b, lb.start), lb.count), len(lb.b)), lb.b...)
		}
	}
	return b
}

// appendHeader encodes the header segment: the format version first, so a
// reader can refuse a foreign version before parsing anything else, then one
// NodeMeta per node. A flag keeps "not a coordinator" (nil McastGroups) apart
// from a coordinator over no groups.
func appendHeader(b []byte, nodes []NodeMeta) []byte {
	b = appendCount(appendCount(b, streamVersion), len(nodes))
	for _, m := range nodes {
		b = appendView(appendInt(appendInt(b, int(m.P)), int(m.Group)), m.Initial)
		b = appendBool(appendBool(appendBool(appendBool(b, m.InP0), m.Register), m.GC), m.Static)
		b = appendGroups(appendBool(b, m.McastGroups != nil), m.McastGroups)
	}
	return b
}

// appendFooter encodes the footer segment: the chunk count and every node's
// per-layer step totals.
func appendFooter(b []byte, ft streamFooter) []byte {
	b = appendCount(appendCount(b, ft.Chunks), len(ft.Totals))
	for _, tot := range ft.Totals {
		b = appendInt(b, int(tot.P))
		for _, n := range tot.Steps {
			b = appendCount(b, n)
		}
	}
	return b
}

// wireReader decodes the codec from a byte slice. The first failure sticks:
// every later read returns zero and every count reads as 0, so a decoder
// built from these methods terminates on any input and checks err once.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *wireReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("unexpected end of data")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// index reads a non-negative offset or sequence number.
func (r *wireReader) index() int {
	v := r.uvarint()
	if v > math.MaxInt/2 { // room for start+i without overflow
		r.fail("offset %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads an element count and checks it against the bytes remaining:
// n elements of at least min bytes each must fit, so no allocation sized by
// a count can exceed what the input could actually hold.
func (r *wireReader) count(min int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/min) {
		r.fail("count %d exceeds the %d bytes remaining", v, len(r.b))
		return 0
	}
	return int(v)
}

func (r *wireReader) take(n int) []byte {
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) string() string { return string(r.take(r.count(1))) }

func (r *wireReader) viewID() types.ViewID {
	return types.ViewID{Seq: r.uvarint(), Origin: r.proc()}
}

func (r *wireReader) view() types.View {
	v := types.View{ID: r.viewID()}
	n := r.count(1)
	v.Members = make(types.ProcSet, n)
	for i := 0; i < n; i++ {
		v.Members.Add(r.proc())
	}
	return v
}

func (r *wireReader) label() types.Label {
	return types.Label{ID: r.viewID(), Seqno: r.int(), Origin: r.proc()}
}

func (r *wireReader) summary() types.Summary {
	n := r.count(4) // label (3) + empty string (1)
	x := types.Summary{Con: make(types.Content, n)}
	for i := 0; i < n; i++ {
		l := r.label()
		x.Con[l] = r.string()
	}
	if n = r.count(3); n > 0 {
		x.Ord = make([]types.Label, n)
		for i := range x.Ord {
			x.Ord[i] = r.label()
		}
	}
	x.Next = r.int()
	x.High = r.viewID()
	return x
}

func (r *wireReader) msg(depth int) types.Msg {
	switch tag := r.byte(); tag {
	case tagClientMsg:
		return types.ClientMsg(r.string())
	case tagBatch:
		if depth >= maxBatchDepth {
			r.fail("batch nested deeper than %d", maxBatchDepth)
			return nil
		}
		n := r.count(1)
		out := types.Batch{Msgs: make([]types.Msg, n)}
		for i := range out.Msgs {
			out.Msgs[i] = r.msg(depth + 1)
		}
		return out
	case tagInfoMsg:
		out := dvscore.InfoMsg{Act: r.view()}
		if n := r.count(3); n > 0 { // view id (2) + member count (1)
			out.Amb = make([]types.View, n)
			for i := range out.Amb {
				out.Amb[i] = r.view()
			}
		}
		return out
	case tagRegisteredMsg:
		return dvscore.RegisteredMsg{}
	case tagLabelMsg:
		return tocore.LabelMsg{L: r.label(), A: r.string()}
	case tagSummaryMsg:
		return tocore.SummaryMsg{X: r.summary()}
	default:
		r.fail("unknown message tag %#x", tag)
		return nil
	}
}

func (r *wireReader) msgFrom() (types.Msg, types.ProcID) {
	m := r.msg(0)
	return m, r.proc()
}

func (r *wireReader) dvsEvent() dvscore.Event {
	switch tag := r.byte(); tag {
	case tagEvVSNewView:
		return dvscore.EvVSNewView{View: r.view()}
	case tagEvVSRecv:
		m, from := r.msgFrom()
		return dvscore.EvVSRecv{M: m, From: from}
	case tagEvVSSafe:
		m, from := r.msgFrom()
		return dvscore.EvVSSafe{M: m, From: from}
	case tagEvClientSend:
		return dvscore.EvClientSend{M: r.msg(0)}
	case tagEvClientRegister:
		return dvscore.EvClientRegister{}
	default:
		r.fail("unknown dvs event tag %#x", tag)
		return nil
	}
}

func (r *wireReader) dvsEffect() dvscore.Effect {
	switch tag := r.byte(); tag {
	case tagFxSendVS:
		return dvscore.FxSendVS{M: r.msg(0)}
	case tagFxDVSDeliver:
		m, from := r.msgFrom()
		return dvscore.FxDeliver{M: m, From: from}
	case tagFxSafeInd:
		m, from := r.msgFrom()
		return dvscore.FxSafeInd{M: m, From: from}
	case tagFxNewPrimary:
		return dvscore.FxNewPrimary{View: r.view()}
	case tagFxGC:
		return dvscore.FxGC{View: r.view()}
	default:
		r.fail("unknown dvs effect tag %#x", tag)
		return nil
	}
}

func (r *wireReader) toEvent() tocore.Event {
	switch tag := r.byte(); tag {
	case tagEvBroadcast:
		return tocore.EvBroadcast{A: r.string()}
	case tagEvNewView:
		return tocore.EvNewView{View: r.view()}
	case tagEvRecv:
		m, from := r.msgFrom()
		return tocore.EvRecv{M: m, From: from}
	case tagEvSafe:
		m, from := r.msgFrom()
		return tocore.EvSafe{M: m, From: from}
	default:
		r.fail("unknown to event tag %#x", tag)
		return nil
	}
}

func (r *wireReader) toEffect() tocore.Effect {
	switch tag := r.byte(); tag {
	case tagFxLabel:
		return tocore.FxLabel{A: r.string()}
	case tagFxSend:
		return tocore.FxSend{M: r.msg(0)}
	case tagFxConfirm:
		return tocore.FxConfirm{}
	case tagFxTODeliver:
		return tocore.FxDeliver{A: r.string(), Origin: r.proc()}
	case tagFxRegister:
		return tocore.FxRegister{View: r.view()}
	default:
		r.fail("unknown to effect tag %#x", tag)
		return nil
	}
}

func (r *wireReader) groups() []types.GroupID {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	gs := make([]types.GroupID, n)
	for i := range gs {
		gs[i] = types.GroupID(r.int())
	}
	return gs
}

func (r *wireReader) group() types.GroupID { return types.GroupID(r.int()) }

func (r *wireReader) proc() types.ProcID { return types.ProcID(r.int()) }

func (r *wireReader) mcastEvent() mcastcore.Event {
	switch tag := r.byte(); tag {
	case tagEvMcSubmit:
		return mcastcore.EvSubmit{Dests: r.groups(), Payload: r.string()}
	case tagEvMcData:
		return mcastcore.EvData{Group: r.group(), ID: r.string(), Origin: r.proc(), Dests: r.groups(), Payload: r.string()}
	case tagEvMcProposal:
		return mcastcore.EvProposal{Group: r.group(), PGroup: r.group(), ID: r.string(), TS: r.uvarint()}
	default:
		r.fail("unknown mcast event tag %#x", tag)
		return nil
	}
}

func (r *wireReader) mcastEffect() mcastcore.Effect {
	switch tag := r.byte(); tag {
	case tagFxMcSendData:
		return mcastcore.FxSendData{To: r.group(), ID: r.string(), Origin: r.proc(), Dests: r.groups(), Payload: r.string()}
	case tagFxMcSendProp:
		return mcastcore.FxSendProp{To: r.group(), PGroup: r.group(), ID: r.string(), TS: r.uvarint()}
	case tagFxMcDeliver:
		return mcastcore.FxDeliver{Group: r.group(), ID: r.string(), Origin: r.proc(), Payload: r.string(), TS: r.uvarint()}
	default:
		r.fail("unknown mcast effect tag %#x", tag)
		return nil
	}
}

// read decodes one macro-step; no effects decode as a nil slice.
func (c layerCodec[E, F]) read(r *wireReader) Record[E, F] {
	rec := Record[E, F]{Ev: c.readEv(r)}
	if n := r.count(1); n > 0 {
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
func readLayer[R any](r *wireReader, one func(*wireReader) R) (start int, recs []R) {
	start = r.index()
	n := r.uvarint()
	sub := wireReader{b: r.take(r.count(1))}
	if n > uint64(len(sub.b)/2) {
		r.fail("%d records cannot fit in %d bytes", n, len(sub.b))
		return start, nil
	}
	recs = make([]R, 0, n)
	for len(recs) < int(n) && sub.err == nil {
		recs = append(recs, one(&sub))
	}
	if sub.err != nil {
		r.fail("%v", sub.err)
	} else if len(sub.b) != 0 {
		r.fail("%d trailing bytes after the last record", len(sub.b))
	}
	return start, recs
}

// finish closes a segment decode: trailing bytes are an error, and the first
// error comes back named after the segment kind.
func (r *wireReader) finish(kind string) error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("decode %s: %w", kind, r.err)
	}
	return nil
}

// decodeChunk parses a chunk payload. Malformed input of any shape is an
// error, never a panic.
func decodeChunk(payload []byte) (streamChunk, error) {
	r := wireReader{b: payload}
	ch := streamChunk{Seq: r.index(), Quiescent: r.byte() == 1}
	nparts := r.count(1 + 3*numLayers) // p + per layer (start, count, byteLen)
	for i := 0; i < nparts && r.err == nil; i++ {
		part := chunkPart{P: r.proc()}
		part.Start[layerDVS], part.DVS = readLayer(&r, dvsCodec.read)
		part.Start[layerTO], part.TO = readLayer(&r, toCodec.read)
		part.Start[layerMcast], part.Mcast = readLayer(&r, mcastCodec.read)
		ch.Parts = append(ch.Parts, part)
	}
	if err := r.finish("chunk"); err != nil {
		return streamChunk{}, err
	}
	return ch, nil
}

// decodeHeader parses a header payload. The version is checked before the
// rest is read: a v1 or v2 header is gob, whose first bytes read here as
// some other number, and must be refused rather than misparsed.
func decodeHeader(payload []byte) ([]NodeMeta, error) {
	r := wireReader{b: payload}
	if version := r.index(); r.err == nil && version != streamVersion {
		return nil, fmt.Errorf("stream version %d, this replayer reads only version %d: re-record the trace", version, streamVersion)
	}
	var nodes []NodeMeta
	n := r.count(11) // p, group, view (3), five flags, group count
	for i := 0; i < n && r.err == nil; i++ {
		m := NodeMeta{P: r.proc(), Group: r.group(), Initial: r.view()}
		m.InP0, m.Register, m.GC, m.Static = r.byte() == 1, r.byte() == 1, r.byte() == 1, r.byte() == 1
		if mcast, gs := r.byte() == 1, r.groups(); mcast {
			m.McastGroups = append([]types.GroupID{}, gs...)
		}
		nodes = append(nodes, m)
	}
	return nodes, r.finish("header")
}

// decodeFooter parses a footer payload.
func decodeFooter(payload []byte) (streamFooter, error) {
	r := wireReader{b: payload}
	ft := streamFooter{Chunks: r.index()}
	n := r.count(1 + numLayers)
	for i := 0; i < n && r.err == nil; i++ {
		tot := nodeTotal{P: r.proc()}
		for l := range tot.Steps {
			tot.Steps[l] = r.index()
		}
		ft.Totals = append(ft.Totals, tot)
	}
	return ft, r.finish("footer")
}
