package conform

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
	"repro/internal/wire"
)

// encodeChunk re-encodes a decoded chunk through the production encoder
// (the per-layer record encoders into layer blocks, then chunkJob.WriteTo),
// so tests can rewrite a chunk on disk and seed the fuzzer with real payloads.
func encodeChunk(t testing.TB, ch streamChunk) []byte {
	t.Helper()
	job := chunkJob{seq: ch.Seq, quiescent: ch.Quiescent}
	var rec []byte
	fail := func(err error) {
		if err != nil {
			t.Fatalf("encode record: %v", err)
		}
	}
	for _, part := range ch.Parts {
		pb := partBuf{p: part.P}
		for l := range pb.layers {
			pb.layers[l].start = part.Start[l]
		}
		var err error
		for _, r := range part.DVS {
			rec, err = dvsCodec.append(rec[:0], r.Ev, r.Fx)
			fail(err)
			pb.layers[layerDVS].write(rec, nil)
		}
		for _, r := range part.TO {
			rec, err = toCodec.append(rec[:0], r.Ev, r.Fx)
			fail(err)
			pb.layers[layerTO].write(rec, nil)
		}
		for _, r := range part.Mcast {
			rec, err = mcastCodec.append(rec[:0], r.Ev, r.Fx)
			fail(err)
			pb.layers[layerMcast].write(rec, nil)
		}
		job.parts = append(job.parts, pb)
	}
	var b bytes.Buffer
	job.WriteTo(&b)
	return b.Bytes()
}

// renderChunk is the replayer's own view of a chunk: the text divergence
// reports use (which prints nil and empty collections alike, as the codec
// stores them), plus the framing fields.
func renderChunk(ch streamChunk) string {
	var b strings.Builder
	b.WriteString("seq=" + strconv.Itoa(ch.Seq) + " q=" + strconv.FormatBool(ch.Quiescent) + "\n")
	for _, part := range ch.Parts {
		fmt.Fprintf(&b, "p=%s starts=%v\n", part.P, part.Start)
		for _, rec := range part.DVS {
			b.WriteString(" " + render(rec.Ev) + " => " + render(rec.Fx...) + "\n")
		}
		for _, rec := range part.TO {
			b.WriteString(" " + render(rec.Ev) + " => " + render(rec.Fx...) + "\n")
		}
		for _, rec := range part.Mcast {
			b.WriteString(" " + render(rec.Ev) + " => " + render(rec.Fx...) + "\n")
		}
	}
	return b.String()
}

func genView(rng *rand.Rand) types.View {
	v := types.View{ID: types.ViewID{Seq: rng.Uint64() >> uint(rng.Intn(64)), Origin: types.ProcID(rng.Intn(9) - 1)}}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		v.Members = v.Members.With(types.ProcID(rng.Intn(types.MaxProcs)))
	}
	return v
}

func genLabel(rng *rand.Rand) types.Label {
	return types.Label{
		ID:     types.ViewID{Seq: uint64(rng.Intn(1000)), Origin: types.ProcID(rng.Intn(8))},
		Seqno:  rng.Intn(1 << 20),
		Origin: types.ProcID(rng.Intn(8)),
	}
}

func genString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(40))
	rng.Read(b)
	return string(b)
}

func genMsg(rng *rand.Rand, depth int) types.Msg {
	k := rng.Intn(6)
	if k == 1 && depth >= wire.MaxBatchDepth {
		k = 0
	}
	switch k {
	case 0:
		return types.ClientMsg(genString(rng))
	case 1:
		var b types.Batch
		if n := rng.Intn(4); n > 0 || rng.Intn(2) == 0 {
			b.Msgs = make([]types.Msg, n)
			for i := range b.Msgs {
				b.Msgs[i] = genMsg(rng, depth+1)
			}
		}
		return b
	case 2:
		m := dvscore.InfoMsg{Act: genView(rng)}
		if n := rng.Intn(3); n > 0 || rng.Intn(2) == 0 {
			m.Amb = make([]types.View, n)
			for i := range m.Amb {
				m.Amb[i] = genView(rng)
			}
		}
		return m
	case 3:
		return dvscore.RegisteredMsg{}
	case 4:
		return tocore.LabelMsg{L: genLabel(rng), A: genString(rng)}
	default:
		x := types.Summary{Next: rng.Intn(100), High: genLabel(rng).ID}
		if n := rng.Intn(4); n > 0 || rng.Intn(2) == 0 {
			x.Con = make(types.Content, n)
			x.Ord = make([]types.Label, 0, n)
			for i := 0; i < n; i++ {
				l := genLabel(rng)
				x.Con[l] = genString(rng)
				x.Ord = append(x.Ord, l)
			}
		}
		return tocore.SummaryMsg{X: x}
	}
}

// genChunk builds a three-layer chunk whose records cover every Event and
// Effect variant of all three cores, each carrying a random message, view
// or destination set. (A recorded chunk fills the stack layers or the
// multicast layer, never both; the codec does not care.)
func genChunk(rng *rand.Rand) streamChunk {
	p := func() types.ProcID { return types.ProcID(rng.Intn(8)) }
	m := func() types.Msg { return genMsg(rng, 0) }
	dvsFx := func() []dvscore.Effect {
		all := []dvscore.Effect{
			{Kind: dvscore.FxSendVS, M: m()}, {Kind: dvscore.FxDeliver, M: m(), From: p()}, {Kind: dvscore.FxSafeInd, M: m(), From: p()},
			{Kind: dvscore.FxNewPrimary, View: genView(rng)}, {Kind: dvscore.FxGC, View: genView(rng)},
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:rng.Intn(len(all)+1)]
	}
	toFx := func() []tocore.Effect {
		all := []tocore.Effect{
			{Kind: tocore.FxLabel, A: genString(rng)}, {Kind: tocore.FxSend, M: m()}, {Kind: tocore.FxConfirm},
			{Kind: tocore.FxDeliver, A: genString(rng), Origin: p()}, {Kind: tocore.FxRegister, View: genView(rng)},
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:rng.Intn(len(all)+1)]
	}
	g := func() types.GroupID { return types.GroupID(rng.Intn(5)) }
	dests := func() []types.GroupID {
		var gs []types.GroupID // nil and empty render and encode alike
		for i, n := 0, rng.Intn(4); i < n; i++ {
			gs = append(gs, g())
		}
		return gs
	}
	mcFx := func() []mcastcore.Effect {
		all := []mcastcore.Effect{
			mcastcore.FxSendData{To: g(), ID: genString(rng), Origin: p(), Dests: dests(), Payload: genString(rng)},
			mcastcore.FxSendProp{To: g(), PGroup: g(), ID: genString(rng), TS: rng.Uint64() >> uint(rng.Intn(64))},
			mcastcore.FxDeliver{Group: g(), ID: genString(rng), Origin: p(), Payload: genString(rng), TS: rng.Uint64() >> uint(rng.Intn(64))},
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:rng.Intn(len(all)+1)]
	}
	ch := streamChunk{Seq: 1 + rng.Intn(1000), Quiescent: rng.Intn(2) == 0}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		part := chunkPart{P: types.ProcID(i), Start: [numLayers]int{rng.Intn(1 << 20), rng.Intn(1 << 20), rng.Intn(1 << 20)}}
		for _, ev := range []dvscore.Event{
			{Kind: dvscore.EvVSNewView, View: genView(rng)}, {Kind: dvscore.EvVSRecv, M: m(), From: p()},
			{Kind: dvscore.EvVSSafe, M: m(), From: p()}, {Kind: dvscore.EvClientSend, M: m()}, {Kind: dvscore.EvClientRegister},
		} {
			part.DVS = append(part.DVS, DVSRecord{Ev: ev, Fx: dvsFx()})
		}
		for _, ev := range []tocore.Event{
			{Kind: tocore.EvBroadcast, A: genString(rng)}, {Kind: tocore.EvNewView, View: genView(rng)},
			{Kind: tocore.EvRecv, M: m(), From: p()}, {Kind: tocore.EvSafe, M: m(), From: p()},
			{Kind: tocore.EvUniverse, Set: genView(rng).Members},
		} {
			part.TO = append(part.TO, TORecord{Ev: ev, Fx: toFx()})
		}
		for _, ev := range []mcastcore.Event{
			mcastcore.EvSubmit{Dests: dests(), Payload: genString(rng)},
			mcastcore.EvData{Group: g(), ID: genString(rng), Origin: p(), Dests: dests(), Payload: genString(rng)},
			mcastcore.EvProposal{Group: g(), PGroup: g(), ID: genString(rng), TS: rng.Uint64() >> uint(rng.Intn(64))},
		} {
			part.Mcast = append(part.Mcast, McastRecord{Ev: ev, Fx: mcFx()})
		}
		ch.Parts = append(ch.Parts, part)
	}
	return ch
}

// TestWireRoundTrip is the codec's defining property: decode(encode(rec)) is
// rec under the replayer's own render, for every variant, nil and empty
// collections alike, and nested batches.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		ch := genChunk(rng)
		payload := encodeChunk(t, ch)
		got, err := decodeChunk(payload)
		if err != nil {
			t.Fatalf("chunk %d: decode of a freshly encoded chunk: %v", i, err)
		}
		if want, have := renderChunk(ch), renderChunk(got); want != have {
			t.Fatalf("chunk %d: round trip changed the chunk\nwant:\n%s\ngot:\n%s", i, want, have)
		}
		// Equal records encode to equal bytes (sets and maps are written
		// sorted), so re-encoding the decoded chunk reproduces the payload.
		if again := encodeChunk(t, got); string(again) != string(payload) {
			t.Fatalf("chunk %d: re-encoding the decoded chunk gave different bytes", i)
		}
	}
}

// TestWireNilAndEmptyCollections pins the cases a generator could miss: each
// collection nil, then empty, must survive (rendering identically) and must
// decode to something a core can step without a nil-map write.
func TestWireNilAndEmptyCollections(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    types.Msg
	}{
		{"nil members", dvscore.InfoMsg{Act: types.View{ID: types.ViewID{Seq: 3}}}},
		{"empty members", dvscore.InfoMsg{Act: types.View{Members: types.NewProcSet()}}},
		{"nil amb", dvscore.InfoMsg{Act: types.NewView(types.ViewID{Seq: 1}, 0, 1)}},
		{"empty amb", dvscore.InfoMsg{Act: types.NewView(types.ViewID{Seq: 1}, 0, 1), Amb: []types.View{}}},
		{"nil con and ord", tocore.SummaryMsg{X: types.Summary{Next: 1}}},
		{"empty con and ord", tocore.SummaryMsg{X: types.Summary{Con: types.Content{}, Ord: []types.Label{}, Next: 1}}},
		{"nil batch", types.Batch{}},
		{"empty batch", types.Batch{Msgs: []types.Msg{}}},
		{"nested batch", types.Batch{Msgs: []types.Msg{types.Batch{Msgs: []types.Msg{types.ClientMsg("x"), types.Batch{}}}}}},
	} {
		b, err := wire.AppendMsg(nil, tc.m, 0)
		if err != nil {
			t.Errorf("%s: encode: %v", tc.name, err)
			continue
		}
		r := wire.Reader{B: b}
		got := r.Msg(0)
		if r.Err != nil || len(r.B) != 0 {
			t.Errorf("%s: decode: err=%v, %d bytes left", tc.name, r.Err, len(r.B))
			continue
		}
		if got.MsgKey() != tc.m.MsgKey() {
			t.Errorf("%s: round trip %q -> %q", tc.name, tc.m.MsgKey(), got.MsgKey())
		}
		if g, ok := got.(tocore.SummaryMsg); ok {
			g.X.Con[types.Label{}] = "" // must not be a nil map
		}
	}
}

func TestWireBatchDepthLimited(t *testing.T) {
	nest := func(levels int) types.Msg {
		var m types.Msg = types.ClientMsg("x")
		for i := 0; i < levels; i++ {
			m = types.Batch{Msgs: []types.Msg{m}}
		}
		return m
	}
	if _, err := wire.AppendMsg(nil, nest(wire.MaxBatchDepth), 0); err != nil {
		t.Errorf("encoding %d batch levels: %v", wire.MaxBatchDepth, err)
	}
	if _, err := wire.AppendMsg(nil, nest(wire.MaxBatchDepth+1), 0); err == nil {
		t.Errorf("encoding %d batch levels did not fail", wire.MaxBatchDepth+1)
	}
	// The decoder enforces the same bound on bytes no encoder produced.
	var deep []byte
	for i := 0; i < 10000; i++ {
		deep = append(deep, wire.TagBatch, 1)
	}
	r := wire.Reader{B: deep}
	if r.Msg(0); r.Err == nil {
		t.Error("decoding 10000 nested batches did not fail")
	}
}

// TestDecodeChunkRejectsHugeCounts: a count is checked against the bytes
// that remain, so a tiny input cannot make the decoder allocate for the
// billions of elements it claims.
// TestUniverseRecordRefusesOutOfRangeIDs: the TO log's EvUniverse record is
// a set on disk; an id a process set cannot hold fails its decode.
func TestUniverseRecordRefusesOutOfRangeIDs(t *testing.T) {
	good, err := appendTOEvent(nil, tocore.Event{Kind: tocore.EvUniverse, Set: types.NewProcSet(0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if r := (wire.Reader{B: good}); readTOEvent(&r).Set != types.NewProcSet(0, 5) || r.Err != nil {
		t.Fatalf("the in-range record: %v", r.Err)
	}
	for _, id := range []int{types.MaxProcs, -1} {
		r := wire.Reader{B: wire.AppendInt(good[:len(good)-1], id)} // 5 is the record's last byte
		if ev := readTOEvent(&r); r.Err == nil {
			t.Errorf("member %d decoded: %v", id, ev.Set)
		}
	}
}

func TestDecodeChunkRejectsHugeCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	pad := make([]byte, 8) // enough trailing bytes for the one part the prefix declares
	for name, payload := range map[string][]byte{
		"parts":   append([]byte{1, 0}, huge...),
		"records": append(append([]byte{1, 0, 1, 0, 0}, huge...), pad...),
		"bytelen": append(append([]byte{1, 0, 1, 0, 0, 0}, huge...), pad...),
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := decodeChunk(payload); err == nil {
				t.Errorf("%s: a count of 2^40 in %d bytes was accepted", name, len(payload))
			}
		})
		if allocs > 20 {
			t.Errorf("%s: %v allocations rejecting a %d-byte input", name, allocs, len(payload))
		}
	}
}

// A soak passes 2^31 steps per layer within hours, so the decoder must take
// every sequence number and start offset the encoder can write; only a value
// that cannot be an int offset is refused.
func TestWireLongRunOffsetsRoundTrip(t *testing.T) {
	ch := streamChunk{Seq: 1<<31 + 7, Parts: []chunkPart{{
		P:     3,
		Start: [numLayers]int{1<<40 + 1, 1 << 33, 1<<50 + 5},
		DVS:   []DVSRecord{{Ev: dvscore.Event{Kind: dvscore.EvClientRegister}}},
		TO:    []TORecord{{Ev: tocore.Event{Kind: tocore.EvBroadcast, A: "a"}, Fx: []tocore.Effect{{Kind: tocore.FxConfirm}}}},
		Mcast: []McastRecord{{Ev: mcastcore.EvProposal{ID: "m", TS: 1 << 63}}},
	}}}
	got, err := decodeChunk(encodeChunk(t, ch))
	if err != nil {
		t.Fatalf("offsets past 2^31 do not decode: %v", err)
	}
	if renderChunk(got) != renderChunk(ch) {
		t.Fatalf("round trip changed the chunk:\n%s\nwant:\n%s", renderChunk(got), renderChunk(ch))
	}
	if _, err := decodeChunk(append(binary.AppendUvarint(nil, 1<<63), 0, 0)); err == nil {
		t.Fatal("a sequence number of 2^63 was accepted")
	}
}

// FuzzDecodeChunk: arbitrary bytes give an error or a chunk, never a panic,
// and a chunk never holds more records or effects than its bytes could
// encode. Seeded with real chunks from a recorded run and with chunks
// covering every variant.
func FuzzDecodeChunk(f *testing.F) {
	dir := f.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 16})
	if err != nil {
		f.Fatal(err)
	}
	initial := types.InitialView(types.RangeProcSet(1))
	sn, err := sr.Node(0, 0, initial, true, true, true, false)
	if err != nil {
		f.Fatal(err)
	}
	driveScript(f, 6, sn.ObserveDVS, sn.ObserveTO, nil)
	if err := sr.Close(); err != nil {
		f.Fatal(err)
	}
	for seq := 1; ; seq++ {
		payload, err := readFramed(filepath.Join(dir, chunkSeg(seq)))
		if err != nil {
			break
		}
		f.Add(payload)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 8; i++ {
		f.Add(encodeChunk(f, genChunk(rng))) // three layers each
	}
	f.Add([]byte{})
	mdir := f.TempDir()
	recordMcastRun(f, mdir, StreamOptions{WindowSteps: 16}, 3, 2, 4)
	for seq := 1; ; seq++ {
		payload, err := readFramed(filepath.Join(mdir, chunkSeg(seq)))
		if err != nil {
			break
		}
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := decodeChunk(data)
		if err != nil {
			return
		}
		items := 0
		for _, part := range ch.Parts {
			items += len(part.DVS) + len(part.TO) + len(part.Mcast)
			for _, rec := range part.DVS {
				items += len(rec.Fx)
			}
			for _, rec := range part.TO {
				items += len(rec.Fx)
			}
			for _, rec := range part.Mcast {
				items += len(rec.Fx)
			}
		}
		if items > len(data) {
			t.Fatalf("%d records and effects decoded from %d bytes", items, len(data))
		}
		// Whatever decodes must be a chunk the encoder could have written.
		again, err := decodeChunk(encodeChunk(t, ch))
		if err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		if renderChunk(again) != renderChunk(ch) {
			t.Fatal("re-encoding changed the chunk")
		}
	})
}

// TestHeaderFooterRoundTrip: both segment codecs reproduce what was encoded,
// nil and empty multicast group sets kept apart.
func TestHeaderFooterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	hdr := []NodeMeta{
		{P: 0, Group: 3, Initial: genView(rng), InP0: true, GC: true},
		{P: 1, Group: 3, Initial: genView(rng), Register: true, Static: true},
		{P: 2, McastGroups: []types.GroupID{0, 2, 5}},
		{P: 7, McastGroups: []types.GroupID{}},
	}
	got, err := decodeHeader(appendHeader(nil, hdr))
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if want, have := fmt.Sprintf("%+v", hdr), fmt.Sprintf("%+v", got); want != have {
		t.Errorf("header round trip:\nwant %s\ngot  %s", want, have)
	}
	if got[1].McastGroups != nil || got[3].McastGroups == nil {
		t.Errorf("nil and empty multicast groups not kept apart: %+v", got)
	}
	ft := streamFooter{Chunks: 1<<31 + 3, Totals: []nodeTotal{{P: 0, Steps: [numLayers]int{1 << 40, 7, 0}}, {P: 4, Steps: [numLayers]int{0, 0, 9}}}}
	gotFt, err := decodeFooter(appendFooter(nil, ft))
	if err != nil {
		t.Fatalf("decode footer: %v", err)
	}
	if want, have := fmt.Sprintf("%+v", ft), fmt.Sprintf("%+v", gotFt); want != have {
		t.Errorf("footer round trip: want %s, got %s", want, have)
	}
}

// FuzzDecodeSegment is FuzzDecodeChunk's counterpart for the other two
// segment kinds: arbitrary bytes fed to the header and footer decoders give
// an error or a value, never a panic, never more nodes or totals than the
// bytes could encode, and whatever decodes re-encodes to something that
// decodes to the same value.
func FuzzDecodeSegment(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	f.Add(appendHeader(nil, nil))
	f.Add(appendHeader(nil, []NodeMeta{
		{P: 0, Initial: genView(rng), InP0: true, Register: true, GC: true},
		{P: 1, Initial: genView(rng), Static: true},
	}))
	f.Add(appendHeader(nil, []NodeMeta{{P: 3, McastGroups: []types.GroupID{0, 1, 2}}}))
	f.Add(appendFooter(nil, streamFooter{}))
	f.Add(appendFooter(nil, streamFooter{Chunks: 12, Totals: []nodeTotal{{P: 0, Steps: [numLayers]int{100, 200, 0}}, {P: 1, Steps: [numLayers]int{0, 0, 50}}}}))
	f.Add([]byte(v2Header))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if hdr, err := decodeHeader(data); err == nil {
			items := len(hdr)
			for _, m := range hdr {
				items += m.Initial.Members.Len() + len(m.McastGroups)
			}
			if items > len(data) {
				t.Fatalf("%d nodes, members and groups decoded from %d bytes", items, len(data))
			}
			again, err := decodeHeader(appendHeader(nil, hdr))
			if err != nil {
				t.Fatalf("re-encoded header does not decode: %v", err)
			}
			if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", hdr) {
				t.Fatal("re-encoding changed the header")
			}
		}
		if ft, err := decodeFooter(data); err == nil {
			if len(ft.Totals) > len(data) {
				t.Fatalf("%d totals decoded from %d bytes", len(ft.Totals), len(data))
			}
			again, err := decodeFooter(appendFooter(nil, ft))
			if err != nil {
				t.Fatalf("re-encoded footer does not decode: %v", err)
			}
			if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", ft) {
				t.Fatal("re-encoding changed the footer")
			}
		}
	})
}
