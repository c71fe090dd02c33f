package net

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/types"
)

// TCPConfig configures a TCPTransport.
type TCPConfig struct {
	// Self is the local process id.
	Self types.ProcID
	// Listen is the local listen address, e.g. "127.0.0.1:7000".
	Listen string
	// Peers maps every remote process id to its address. Only these ids may
	// connect: an inbound connection announcing any other sender is refused.
	Peers map[types.ProcID]string
	// DialTimeout bounds connection attempts (default 500ms).
	DialTimeout time.Duration
	// RedialBackoff is the initial pause after a failed dial (default
	// 250ms). Successive failures back off exponentially with ±50% jitter
	// up to RedialBackoffMax; a successful dial resets the backoff.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential redial backoff (default 5s).
	RedialBackoffMax time.Duration
	// WriteTimeout bounds each frame write, so a stalled peer whose TCP
	// buffer has filled cannot wedge the writer goroutine forever
	// (default 2s). A timed-out write closes the connection and redials.
	WriteTimeout time.Duration
	// PayloadAttempts is how many connection attempts the writer spends on
	// one payload before abandoning it (default 3). Abandoned payloads are
	// counted as WriterDrops; the stack's retransmissions recover them.
	PayloadAttempts int
	// OutboxSize is the per-peer outgoing queue (default 1024); a full
	// queue drops, like a lossy link.
	OutboxSize int
	// InboxSize is the local receive buffer (default 8192).
	InboxSize int
}

// fill replaces every unset (or negative) knob by its default.
func (c *TCPConfig) fill() {
	c.DialTimeout = cmp.Or(max(c.DialTimeout, 0), 500*time.Millisecond)
	c.RedialBackoff = cmp.Or(max(c.RedialBackoff, 0), 250*time.Millisecond)
	c.RedialBackoffMax = cmp.Or(max(c.RedialBackoffMax, 0), 5*time.Second)
	c.WriteTimeout = cmp.Or(max(c.WriteTimeout, 0), 2*time.Second)
	c.PayloadAttempts = cmp.Or(max(c.PayloadAttempts, 0), 3)
	c.OutboxSize = cmp.Or(max(c.OutboxSize, 0), 1024)
	c.InboxSize = cmp.Or(max(c.InboxSize, 0), 8192)
}

// TCPTransport implements Transport over real TCP connections, one
// persistent outgoing connection per peer with exponential-backoff redial.
// Frames are length-prefixed payloads in package wire's encoding (wire.go).
// Losses (dial give-ups, full queues, broken or stalled connections) surface
// as message drops — exactly the fault model the stack's retransmission
// machinery tolerates — and every loss is counted in Stats, per peer; so is
// every connection closed on input a peer should never have sent.
type TCPTransport struct {
	cfg   TCPConfig
	ln    net.Listener
	inbox chan Envelope
	book  statsBook

	peers map[types.ProcID]*tcpPeer // fixed at construction

	mu    sync.Mutex
	conns map[net.Conn]struct{} // live inbound connections, closed on Close
	done  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

var _ Transport = (*TCPTransport)(nil)

type tcpPeer struct {
	id   types.ProcID
	addr string
	out  chan Payload
}

// NewTCPTransport starts listening and returns the transport. Outgoing
// connections are established lazily and kept open across payloads.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcp transport listen: %w", err)
	}
	t := &TCPTransport{
		cfg:   cfg,
		ln:    ln,
		inbox: make(chan Envelope, cfg.InboxSize),
		peers: make(map[types.ProcID]*tcpPeer, len(cfg.Peers)),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		p := &tcpPeer{id: id, addr: addr, out: make(chan Payload, cfg.OutboxSize)}
		t.peers[id] = p
		t.wg.Add(1)
		go t.writer(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Inbox implements Transport. Only the local endpoint has an inbox.
func (t *TCPTransport) Inbox(p types.ProcID) (<-chan Envelope, error) {
	if p != t.cfg.Self {
		return nil, fmt.Errorf("tcp transport: inbox of remote endpoint %s", p)
	}
	return t.inbox, nil
}

// Send implements Transport. Every attempt is accounted exactly once:
// misrouted sends (from != Self) and sends to unknown peers count as drops,
// so Sent == Delivered + Dropped holds at all times, per peer and in total.
func (t *TCPTransport) Send(from, to types.ProcID, payload Payload) bool {
	if from != t.cfg.Self {
		t.book.misrouted(to)
		return false
	}
	ok := false
	if peer := t.peers[to]; to == t.cfg.Self {
		select {
		case t.inbox <- Envelope{From: from, Payload: payload}:
			ok = true
		default:
		}
	} else if peer != nil {
		select {
		case peer.out <- payload:
			ok = true
		default:
		}
	}
	t.book.send(to, ok)
	return ok
}

// Stats returns a snapshot of the counters, including the per-peer
// breakdown and current queue depths. Delivered counts local enqueue to the
// outgoing queue; a post-enqueue loss (dial give-up, broken pipe) is
// counted as a WriterDrop and recovered by the stack's retransmissions.
func (t *TCPTransport) Stats() Stats {
	return t.book.snapshot(func(p types.ProcID) int {
		if peer := t.peers[p]; peer != nil {
			return len(peer.out)
		}
		return 0
	})
}

// Close stops the transport, severs every live connection, and waits for
// all of its goroutines — no goroutine outlives Close.
func (t *TCPTransport) Close() {
	select {
	case <-t.stop:
	default:
		close(t.stop)
	}
	t.ln.Close()
	t.mu.Lock()
	t.done = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// track registers an inbound connection so Close can sever it. It reports
// false (and closes the connection) when the transport is already closing.
func (t *TCPTransport) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		conn.Close()
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *TCPTransport) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// sleep pauses for d or until the transport stops, reporting whether it
// slept the full duration.
func (t *TCPTransport) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.stop:
		return false
	case <-timer.C:
		return true
	}
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	backoff := 5 * time.Millisecond
	const backoffMax = time.Second
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.stop:
				return
			default:
			}
			// Persistent Accept errors (EMFILE, ENFILE, ...) must not
			// busy-spin: back off, growing up to a second.
			t.book.bump(&t.book.base.AcceptErrors)
			if !t.sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		backoff = 5 * time.Millisecond
		if !t.track(conn) {
			return
		}
		t.wg.Add(1)
		go t.reader(conn)
	}
}

// readBufSize sizes an inbound connection's read buffer. Frame buffers grow
// with the frames; one that a summary grew past maxKeepBuf is released.
const (
	readBufSize = 16 << 10
	maxKeepBuf  = 1 << 20
)

// connError reports whether err came from the connection itself (end of
// stream, reset, closed under the reader) rather than from the bytes read.
func connError(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
}

// reader serves one inbound connection until it ends or sends something it
// should not have, which is counted. The connection is registered in
// t.conns, so Close unblocks the read by severing it — no per-connection
// watchdog goroutine is needed, and a naturally-closed connection leaves
// nothing behind.
func (t *TCPTransport) reader(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readBufSize)
	bad := &t.book.base.PeersRefused // what bad input counts as before the preamble is through
	from, err := t.readPreamble(br)
	if err == nil {
		bad = &t.book.base.RecvMalformed
		err = t.readFrames(br, from)
	}
	if err != nil && !connError(err) {
		t.book.bump(bad)
	}
}

// readPreamble checks that the peer speaks this build's format and is one of
// the configured peers. The sender id is taken here, once per connection;
// frames carry none, so no frame can claim another origin.
func (t *TCPTransport) readPreamble(br *bufio.Reader) (types.ProcID, error) {
	var head [len(wireHead)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return 0, err
	}
	if string(head[:]) != wireHead {
		return 0, fmt.Errorf("tcp transport: preamble %q, want %q", head[:], wireHead)
	}
	id, err := binary.ReadVarint(br)
	if err == nil && t.peers[types.ProcID(id)] == nil {
		err = fmt.Errorf("tcp transport: sender %d is not a configured peer", id)
	}
	return types.ProcID(id), err
}

// readFrames decodes frames into the inbox until the connection fails or the
// transport stops (nil). The frame buffer is reused and grows only as bytes
// arrive, so a length prefix alone cannot make the reader allocate; decoded
// payloads never alias it.
func (t *TCPTransport) readFrames(br *bufio.Reader, from types.ProcID) error {
	var buf bytes.Buffer
	body := io.LimitedReader{R: br}
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if n > MaxFrame {
			return fmt.Errorf("tcp transport: frame of %d bytes, over the %d-byte limit", n, MaxFrame)
		}
		buf.Reset()
		body.N = int64(n)
		if _, err := buf.ReadFrom(&body); err != nil || body.N > 0 {
			return errors.Join(err, io.ErrUnexpectedEOF)
		}
		payload, err := DecodeFrame(buf.Bytes())
		if err != nil {
			return err
		}
		if buf.Cap() > maxKeepBuf {
			buf = bytes.Buffer{}
		}
		select {
		case t.inbox <- Envelope{From: from, Payload: payload}:
		case <-t.stop:
			return nil
		default:
			// Inbox overflow: drop like the in-memory fabric, but make the
			// loss visible to operators and tests.
			t.book.bump(&t.book.base.RecvDropped)
		}
	}
}

// maxWriteBatch is the most payloads one writer wakeup drains into one write.
const maxWriteBatch = 64

// writer owns the persistent outgoing connection to one peer. Each wakeup
// drains up to maxWriteBatch queued payloads, encodes them as frames into
// one reusable buffer, and issues one Write. Dial failures back off
// exponentially with jitter; a batch is abandoned (every frame counted)
// after PayloadAttempts connection attempts, so a dead peer drains the
// queue instead of wedging it. Writes carry a deadline so a stalled peer
// with a full TCP buffer cannot block the writer forever.
//
// A payload that does not encode costs exactly itself: one WriterDrop, and
// the batch goes on. On a write error the connection is closed and the whole
// batch is retried on the next, the same bytes behind a fresh preamble. That
// can duplicate frames the peer has; the stack above tolerates duplicates.
func (t *TCPTransport) writer(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	rng := rand.New(rand.NewSource(int64(p.id)*0x9e3779b9 + 1))
	backoff := t.cfg.RedialBackoff
	batch := make([]Payload, 0, maxWriteBatch)
	buf := appendPreamble(nil, t.cfg.Self)
	preamble := len(buf) // buf[:preamble] goes out with a connection's first write only
next:
	for {
		batch = batch[:0]
		select {
		case <-t.stop:
			return
		case payload := <-p.out:
			batch = append(batch, payload)
		}
	drain:
		for len(batch) < maxWriteBatch {
			select {
			case payload := <-p.out:
				batch = append(batch, payload)
			default:
				break drain
			}
		}
		if cap(buf) > maxKeepBuf {
			buf = appendPreamble(nil, t.cfg.Self)
		}
		buf = buf[:preamble]
		frames := uint64(0)
		for _, payload := range batch {
			var err error
			if buf, err = appendFrame(buf, payload); err != nil {
				t.book.writerDrop(p.id, 1)
				continue
			}
			frames++
		}
		if frames == 0 {
			continue
		}
		for attempt := 0; attempt < t.cfg.PayloadAttempts; attempt++ {
			out := buf[preamble:]
			if conn == nil {
				c, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
				if err != nil {
					t.book.redial(p.id)
					// Exponential backoff with ±50% jitter, capped.
					d := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
					if !t.sleep(d) {
						return
					}
					if backoff *= 2; backoff > t.cfg.RedialBackoffMax {
						backoff = t.cfg.RedialBackoffMax
					}
					continue
				}
				backoff = t.cfg.RedialBackoff
				conn, out = c, buf
			}
			conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
			if _, err := conn.Write(out); err != nil {
				conn.Close()
				conn = nil
				continue // redial and retry the whole batch
			}
			t.book.writerFlush(p.id, frames)
			continue next
		}
		t.book.writerDrop(p.id, frames)
	}
}
