package net

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// wirePayload and viewPayload are test-only payload types, tagged at the top
// of the range so they cannot collide with the stack's.
type wirePayload struct {
	N int
	S string
}

func (wirePayload) WireTag() byte { return 0xF0 }
func (p wirePayload) AppendWire(b []byte, _ int) ([]byte, error) {
	return wire.AppendString(wire.AppendInt(b, p.N), p.S), nil
}
func (wirePayload) ReadWire(r *wire.Reader, _ int) any { return wirePayload{N: r.Int(), S: r.Str()} }

type viewPayload struct{ V types.View }

func (viewPayload) WireTag() byte { return 0xF1 }
func (p viewPayload) AppendWire(b []byte, _ int) ([]byte, error) {
	return wire.AppendView(b, p.V), nil
}
func (viewPayload) ReadWire(r *wire.Reader, _ int) any { return viewPayload{V: r.View()} }

// unregisteredPayload implements the interface but is never registered;
// plainPayload does not implement it at all. Neither can be encoded.
type unregisteredPayload struct{ wirePayload }

func (unregisteredPayload) WireTag() byte { return 0xF2 }

type plainPayload struct{ N int }

func init() {
	RegisterWireType(wirePayload{})
	RegisterWireType(viewPayload{})
	RegisterWireType(GroupFrame{})
}

func startPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	a, err := NewTCPTransport(TCPConfig{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport(TCPConfig{
		Self: 1, Listen: "127.0.0.1:0",
		Peers: map[types.ProcID]string{0: a.Addr()},
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	// a learns b's address only now; rebuild a with the peer map.
	a.Close()
	a, err = NewTCPTransport(TCPConfig{
		Self: 0, Listen: a.Addr(),
		Peers: map[types.ProcID]string{1: b.Addr()},
	})
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func recvTCP(t *testing.T, tr *TCPTransport, self types.ProcID, timeout time.Duration) Envelope {
	t.Helper()
	inbox, err := tr.Inbox(self)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-inbox:
		return env
	case <-time.After(timeout):
		t.Fatal("timeout waiting for tcp delivery")
		return Envelope{}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := startPair(t)
	if !a.Send(0, 1, wirePayload{N: 7, S: "hi"}) {
		t.Fatal("send enqueue failed")
	}
	env := recvTCP(t, b, 1, 5*time.Second)
	if env.From != 0 {
		t.Errorf("from = %v", env.From)
	}
	got, ok := env.Payload.(wirePayload)
	if !ok || got.N != 7 || got.S != "hi" {
		t.Errorf("payload = %#v", env.Payload)
	}
}

func TestTCPSelfSend(t *testing.T) {
	a, _ := startPair(t)
	if !a.Send(0, 0, wirePayload{N: 1}) {
		t.Fatal("self-send failed")
	}
	env := recvTCP(t, a, 0, time.Second)
	if env.Payload.(wirePayload).N != 1 {
		t.Error("self payload wrong")
	}
}

func TestTCPFIFOPerLink(t *testing.T) {
	a, b := startPair(t)
	for i := 0; i < 50; i++ {
		if !a.Send(0, 1, wirePayload{N: i}) {
			t.Fatal("enqueue failed")
		}
	}
	for i := 0; i < 50; i++ {
		env := recvTCP(t, b, 1, 5*time.Second)
		if env.Payload.(wirePayload).N != i {
			t.Fatalf("out of order at %d: %#v", i, env.Payload)
		}
	}
}

func TestTCPUnknownPeerDrops(t *testing.T) {
	a, _ := startPair(t)
	if a.Send(0, 9, wirePayload{}) {
		t.Error("send to unknown peer accepted")
	}
	if a.Send(3, 1, wirePayload{}) {
		t.Error("send from foreign id accepted")
	}
	st := a.Stats()
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
	if st.Misrouted != 1 {
		t.Errorf("Misrouted = %d, want 1 (stats %+v)", st.Misrouted, st)
	}
	if st.Sent != 2 || st.Dropped != 2 {
		t.Errorf("both rejected sends must be counted as drops; stats %+v", st)
	}
}

// TestTCPStatsInvariant drives every Send outcome — local enqueue, peer
// enqueue, unknown peer, misroute — and asserts the accounting identity
// Sent == Delivered + Dropped on the totals and per peer.
func TestTCPStatsInvariant(t *testing.T) {
	a, b := startPair(t)
	a.Send(0, 0, wirePayload{N: 1}) // self
	a.Send(0, 1, wirePayload{N: 2}) // peer
	a.Send(0, 9, wirePayload{N: 3}) // unknown
	a.Send(5, 1, wirePayload{N: 4}) // misrouted
	recvTCP(t, a, 0, time.Second)
	recvTCP(t, b, 1, 5*time.Second)
	st := a.Stats()
	if err := st.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if st.Sent != 4 || st.Delivered != 2 || st.Dropped != 2 || st.Misrouted != 1 {
		t.Errorf("stats %+v", st)
	}
	for _, to := range []types.ProcID{0, 1, 9} {
		if _, ok := st.Peers[to]; !ok {
			t.Errorf("no per-peer row for %s", to)
		}
	}
	if ps := st.Peers[1]; ps.Sent != 2 || ps.Delivered != 1 || ps.Dropped != 1 {
		t.Errorf("peer 1 row %+v", ps)
	}
}

// TestTCPWriterRedialGiveUp exercises the writer's give-up path: payloads
// destined to a dead peer are abandoned after PayloadAttempts failed dials
// (counted as Redials + WriterDrops; the batched writer gives up whole
// batches, so the three payloads cost between one and three rounds of
// attempts depending on how they were batched), and once the peer comes up
// the persistent writer reconnects and delivers.
func TestTCPWriterRedialGiveUp(t *testing.T) {
	// Reserve an address, then free it so the peer is initially down.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := ln.Addr().String()
	ln.Close()

	a, err := NewTCPTransport(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0",
		Peers:            map[types.ProcID]string{1: peerAddr},
		DialTimeout:      50 * time.Millisecond,
		RedialBackoff:    2 * time.Millisecond,
		RedialBackoffMax: 10 * time.Millisecond,
		PayloadAttempts:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	for i := 0; i < 3; i++ {
		if !a.Send(0, 1, wirePayload{N: i}) {
			t.Fatal("enqueue failed")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := a.Stats()
		if st.WriterDrops == 3 {
			if st.Redials < 2 {
				t.Errorf("Redials = %d, want >= 2 (2 attempts x at least 1 batch)", st.Redials)
			}
			if ps := st.Peers[1]; ps.WriterDrops != 3 || ps.Redials != st.Redials {
				t.Errorf("peer row %+v vs totals %+v", ps, st)
			}
			if err := st.CheckInvariant(); err != nil {
				t.Error(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer never gave up: stats %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Peer comes up at the reserved address: the writer must reconnect.
	b, err := NewTCPTransport(TCPConfig{Self: 1, Listen: peerAddr, Peers: map[types.ProcID]string{0: a.Addr()}})
	if err != nil {
		t.Skipf("reserved address reused: %v", err)
	}
	defer b.Close()
	if !a.Send(0, 1, wirePayload{N: 42}) {
		t.Fatal("enqueue failed")
	}
	env := recvTCP(t, b, 1, 10*time.Second)
	if env.Payload.(wirePayload).N != 42 {
		t.Errorf("payload %#v", env.Payload)
	}
}

// TestTCPNoGoroutineLeakOnPeerChurn churns many short-lived inbound peers
// through one transport and asserts the goroutine count returns to
// baseline: naturally-closed connections must leave nothing behind (the
// seed leaked one watchdog goroutine per inbound connection).
func TestTCPNoGoroutineLeakOnPeerChurn(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// a never sends; it lists peer 1 so that 1's connections are accepted.
	a, err := NewTCPTransport(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: map[types.ProcID]string{1: "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	const churn = 20
	for i := 0; i < churn; i++ {
		b, err := NewTCPTransport(TCPConfig{
			Self: 1, Listen: "127.0.0.1:0",
			Peers: map[types.ProcID]string{0: a.Addr()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !b.Send(1, 0, wirePayload{N: i}) {
			t.Fatal("enqueue failed")
		}
		recvTCP(t, a, 0, 5*time.Second)
		b.Close()
	}
	a.Close()
	assertGoroutineBaseline(t, baseline)
}

// assertGoroutineBaseline polls until the goroutine count drops back to
// (roughly) the recorded baseline, failing after 10s. A small slack absorbs
// runtime-internal goroutines.
func assertGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finalizers / netpoll cleanup
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPTornBatchNoCorruption tears the receiver's inbound connections out
// from under the batched writer, repeatedly, while a stream of payloads is
// in flight. A tear can strike mid-batch — after a partial write — so the
// writer must redial and resend the whole batch behind a fresh preamble; a
// partial frame must never be continued on the new connection.
// The receiver-side guarantee under all this violence: every payload that
// surfaces from the inbox is a well-formed member of the sent set (a torn
// frame dies as a decoder error, closing the connection, never as a
// corrupted payload), and the sender's accounting invariant still holds.
func TestTCPTornBatchNoCorruption(t *testing.T) {
	a, b := startPair(t)
	done := make(chan struct{})
	torn := make(chan struct{})
	go func() {
		defer close(torn)
		for {
			select {
			case <-done:
				return
			default:
			}
			b.mu.Lock()
			for c := range b.conns {
				c.Close()
			}
			b.mu.Unlock()
			time.Sleep(3 * time.Millisecond)
		}
	}()

	const total = 4000
	for i := 0; i < total; i++ {
		a.Send(0, 1, wirePayload{N: i, S: fmt.Sprint(i)})
		if i%64 == 0 {
			time.Sleep(time.Millisecond) // let flushes interleave with tears
		}
	}
	close(done)
	<-torn

	inbox, err := b.Inbox(1)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	for draining := true; draining; {
		select {
		case env := <-inbox:
			p, ok := env.Payload.(wirePayload)
			if !ok || p.N < 0 || p.N >= total || p.S != fmt.Sprint(p.N) {
				t.Fatalf("corrupted payload surfaced: %#v", env.Payload)
			}
			if env.From != 0 {
				t.Fatalf("corrupted frame origin: %v", env.From)
			}
			received++
		case <-time.After(2 * time.Second):
			draining = false
		}
	}
	if received == 0 {
		t.Fatal("no payload survived the churn")
	}
	st := a.Stats()
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
	if st.WriterFlushes == 0 {
		t.Errorf("writer recorded no flushes: %+v", st)
	}
	if st.WriterFrames < st.WriterFlushes {
		t.Errorf("frames %d < flushes %d", st.WriterFrames, st.WriterFlushes)
	}
	t.Logf("received %d of %d; writer frames=%d flushes=%d redials=%d drops=%d",
		received, total, st.WriterFrames, st.WriterFlushes, st.Redials, st.WriterDrops)
}

func TestTCPComplexPayloads(t *testing.T) {
	// Views with ProcSet members survive the wire, inside a group tag too.
	a, b := startPair(t)
	v := types.NewView(types.ViewID{Seq: 3, Origin: 1}, 0, 1, 5)
	if !a.Send(0, 1, GroupFrame{G: 2, P: viewPayload{V: v}}) {
		t.Fatal("enqueue failed")
	}
	env := recvTCP(t, b, 1, 5*time.Second)
	gf, _ := env.Payload.(GroupFrame)
	got, ok := gf.P.(viewPayload)
	if !ok || gf.G != 2 || got.V != v {
		t.Fatalf("payload = %#v", env.Payload)
	}
}

// TestTCPUnencodablePayloadDropsOnlyItself: a payload the codec cannot carry
// costs one WriterDrop, not its batch and not the connection; the enqueue-
// level accounting is untouched.
func TestTCPUnencodablePayloadDropsOnlyItself(t *testing.T) {
	a, b := startPair(t)
	bad := []Payload{unregisteredPayload{}, plainPayload{N: 1}, nil, GroupFrame{G: 1, P: plainPayload{}}}
	const good = 40
	for i := 0; i < good; i++ {
		if i%10 == 5 {
			a.Send(0, 1, bad[i/10])
		}
		if !a.Send(0, 1, wirePayload{N: i}) {
			t.Fatal("enqueue failed")
		}
	}
	for i := 0; i < good; i++ {
		if env := recvTCP(t, b, 1, 5*time.Second); env.Payload.(wirePayload).N != i {
			t.Fatalf("payload %d: %#v", i, env.Payload)
		}
	}
	// The receiver can see a frame before the writer has counted its flush.
	waitStat(t, a, "WriterFrames", func(s Stats) uint64 { return s.WriterFrames }, good)
	st := a.Stats()
	if err := st.CheckInvariant(); err != nil {
		t.Error(err)
	}
	if st.WriterDrops != uint64(len(bad)) || st.Peers[1].WriterDrops != uint64(len(bad)) || st.WriterFrames != good {
		t.Errorf("writer drops %d (peer row %d), frames %d; want %d drops, %d frames", st.WriterDrops, st.Peers[1].WriterDrops, st.WriterFrames, len(bad), good)
	}
	if st.Redials != 0 || st.Sent != good+uint64(len(bad)) || st.Delivered != st.Sent {
		t.Errorf("an unencodable payload disturbed the connection or the enqueue counts: %+v", st)
	}
	if bs := b.Stats(); bs.RecvMalformed != 0 || bs.PeersRefused != 0 {
		t.Errorf("receiver saw bad input: %+v", bs)
	}
}

// dialRaw opens a raw connection to tr and writes the given bytes.
func dialRaw(t *testing.T, tr *TCPTransport, data ...[]byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for _, d := range data {
		if _, err := conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// expectClosed waits for the transport to close conn from its side, then
// checks that nothing was delivered and the heap did not balloon.
func expectClosed(t *testing.T, tr *TCPTransport, conn net.Conn, before runtime.MemStats) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("transport sent bytes on an inbound connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open after bad input")
	}
	inbox, _ := tr.Inbox(tr.cfg.Self)
	select {
	case env := <-inbox:
		t.Fatalf("bad input delivered %#v", env)
	default:
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 8<<20 {
		t.Errorf("%d bytes allocated handling a few bytes of bad input", grown)
	}
}

func memBefore() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

// waitStat polls until get(Stats) reaches want.
func waitStat(t *testing.T, tr *TCPTransport, name string, get func(Stats) uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get(tr.Stats()) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d (stats %+v)", name, get(tr.Stats()), want, tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func malformed(s Stats) uint64 { return s.RecvMalformed }
func refused(s Stats) uint64   { return s.PeersRefused }

func TestTCPMalformedFrameClosesConn(t *testing.T) {
	_, b := startPair(t)
	good, err := appendFrame(nil, wirePayload{N: 1, S: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	for i, garbage := range [][]byte{
		{3, 0xF0, 0xFF, 0xFF},   // wirePayload whose varint never ends
		{2, 0xEE, 0x00},         // unregistered tag
		{5, 0x99, 1, 0, 1, 's'}, // the freed tag of the deleted exchange snapshot
		{4, 0xF0, 2, 0, 9},      // trailing byte after a complete payload
		{3, 0xF0, 2, 200},       // string longer than the frame
		{0},                     // empty frame
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // length overflows uint64
	} {
		before := memBefore()
		// One good frame first: the connection is accepted and working.
		conn := dialRaw(t, b, appendPreamble(nil, 0), good, garbage)
		if env := recvTCP(t, b, 1, 5*time.Second); env.From != 0 || env.Payload.(wirePayload).S != "ok" {
			t.Fatalf("case %d: good frame arrived as %#v", i, env)
		}
		expectClosed(t, b, conn, before)
		waitStat(t, b, "RecvMalformed", malformed, uint64(i+1))
	}
	if st := b.Stats(); st.PeersRefused != 0 {
		t.Errorf("malformed frames counted as refused peers: %+v", st)
	}
}

func TestTCPOversizeLengthRefused(t *testing.T) {
	_, b := startPair(t)
	before := memBefore()
	huge := binary.AppendUvarint(nil, 1<<40)
	conn := dialRaw(t, b, appendPreamble(nil, 0), huge, []byte("only a few bytes follow"))
	expectClosed(t, b, conn, before)
	waitStat(t, b, "RecvMalformed", malformed, 1)

	// A length within the limit is believed only as far as bytes arrive:
	// the peer hangs up 10 bytes into a claimed gigabyte.
	before = memBefore()
	conn = dialRaw(t, b, appendPreamble(nil, 0), binary.AppendUvarint(nil, MaxFrame), []byte("ten bytes."))
	conn.(*net.TCPConn).CloseWrite()
	expectClosed(t, b, conn, before)
	if st := b.Stats(); st.RecvMalformed != 1 {
		t.Errorf("a truncated frame is a connection error, not a malformed one: %+v", st)
	}
}

func TestTCPUnknownSenderRefused(t *testing.T) {
	_, b := startPair(t) // b knows peer 0 only
	frame, _ := appendFrame(nil, wirePayload{N: 1})
	for i, id := range []types.ProcID{7, 1, -1} { // a stranger, b itself, nonsense
		before := memBefore()
		conn := dialRaw(t, b, appendPreamble(nil, id), frame)
		expectClosed(t, b, conn, before)
		waitStat(t, b, "PeersRefused", refused, uint64(i+1))
	}
}

func TestTCPVersionMismatchRefused(t *testing.T) {
	_, b := startPair(t)
	frame, _ := appendFrame(nil, wirePayload{N: 1})
	good := appendPreamble(nil, 0)
	otherVersion := append([]byte(nil), good...)
	otherVersion[len(wireHead)-1]++
	otherMagic := append([]byte("GOB!"), good[len("GOB!"):]...)
	for i, preamble := range [][]byte{otherVersion, otherMagic} {
		before := memBefore()
		conn := dialRaw(t, b, preamble, frame)
		expectClosed(t, b, conn, before)
		waitStat(t, b, "PeersRefused", refused, uint64(i+1))
	}
	if st := b.Stats(); st.RecvMalformed != 0 {
		t.Errorf("refused peers counted as malformed frames: %+v", st)
	}
}

func TestRegisterWireTypeRejects(t *testing.T) {
	mustPanic := func(name string, v any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("RegisterWireType(%s) did not panic", name)
			}
		}()
		RegisterWireType(v)
	}
	mustPanic("a type that is neither a WirePayload nor a union message", plainPayload{})
	mustPanic("a second type on a taken tag", struct{ wirePayload }{})
	mustPanic("a tag below 0x80", lowTagPayload{})
	mustPanic("nil", nil)
	RegisterWireType(wirePayload{N: 3}) // the same type again is fine
	RegisterWireType(types.ClientMsg("known"))
	RegisterWireType(types.Batch{})
}

type lowTagPayload struct{ wirePayload }

func (lowTagPayload) WireTag() byte { return wire.TagBatch }

func TestTCPPeerDownThenUp(t *testing.T) {
	a, err := NewTCPTransport(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
		Peers:         map[types.ProcID]string{1: "127.0.0.1:1"}, // nothing there
		DialTimeout:   50 * time.Millisecond,
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Sends to a dead peer are dropped without blocking.
	for i := 0; i < 5; i++ {
		a.Send(0, 1, wirePayload{N: i})
	}
	time.Sleep(200 * time.Millisecond) // writer burns through the queue
	st := a.Stats()
	if st.Sent != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTCPManyMessagesStress(t *testing.T) {
	a, b := startPair(t)
	const total = 2000
	go func() {
		for i := 0; i < total; i++ {
			for !a.Send(0, 1, wirePayload{N: i, S: fmt.Sprint(i)}) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	next := 0
	deadline := time.After(20 * time.Second)
	inbox, _ := b.Inbox(1)
	for next < total {
		select {
		case env := <-inbox:
			if env.Payload.(wirePayload).N != next {
				t.Fatalf("out of order at %d", next)
			}
			next++
		case <-deadline:
			t.Fatalf("stalled at %d of %d", next, total)
		}
	}
}
