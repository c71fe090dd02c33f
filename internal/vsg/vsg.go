// Package vsg is the runtime realization of the VS service: a per-node
// event loop combining the membership substrate (internal/member) with a
// per-view sequencer providing totally ordered, gap-free delivery within
// each view and safe indications once every member has delivered a message.
//
// Within a view, members forward payloads to the view leader (its
// minimum-id member); the leader assigns sequence numbers and multicasts the
// ordered stream; members deliver in sequence order and acknowledge
// cumulatively; the leader multicasts the all-acked safe point. Messages are
// tagged with their view identifier and never delivered in another view.
// Together these provide the VS safety guarantees (Figure 1) that the
// VS-TO-DVS layer assumes: per-view total order with prefix delivery, and
// safe indications implying every member's endpoint has delivered.
//
// Layers above are driven synchronously from the node's single event loop
// through the Handler interface, so they need no locking of their own.
package vsg

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/member"
	netfab "repro/internal/net"
	"repro/internal/types"
	"repro/internal/wire"
)

// Wire messages of the data plane.
type (
	// Data carries a payload from a member to the view leader. SenderSeq
	// numbers the sender's submissions within the view, so the leader can
	// de-duplicate retransmissions and restore per-sender FIFO order after
	// losses. AckSeq piggybacks the sender's cumulative delivery
	// acknowledgment, sparing a dedicated Ack frame whenever data is
	// flowing anyway.
	Data struct {
		ViewID    types.ViewID
		SenderSeq int
		AckSeq    int
		Payload   any
	}
	// Ordered carries a sequenced payload from the leader to the members.
	// SenderSeq echoes the sender's submission number so senders can stop
	// retransmitting. Safe piggybacks the leader's current safe point, so
	// in steady state safe indications ride the ordered stream instead of
	// waiting for a dedicated SafePoint frame.
	Ordered struct {
		ViewID    types.ViewID
		Seq       int
		Sender    types.ProcID
		SenderSeq int
		Safe      int
		Payload   any
	}
	// Ack cumulatively acknowledges delivery through Seq.
	Ack struct {
		ViewID types.ViewID
		Seq    int
	}
	// SafePoint announces that every member has delivered through Seq.
	SafePoint struct {
		ViewID types.ViewID
		Seq    int
	}
)

// The wire messages as TCP payloads (netfab.WirePayload), tags 0x90–0x93.
func (Data) WireTag() byte      { return 0x90 }
func (Ordered) WireTag() byte   { return 0x91 }
func (Ack) WireTag() byte       { return 0x92 }
func (SafePoint) WireTag() byte { return 0x93 }

func (m Data) AppendWire(b []byte, depth int) ([]byte, error) {
	b = wire.AppendInt(wire.AppendInt(wire.AppendViewID(b, m.ViewID), m.SenderSeq), m.AckSeq)
	return netfab.AppendPayload(b, m.Payload, depth)
}
func (m Ordered) AppendWire(b []byte, depth int) ([]byte, error) {
	b = wire.AppendInt(wire.AppendInt(wire.AppendViewID(b, m.ViewID), m.Seq), int(m.Sender))
	return netfab.AppendPayload(wire.AppendInt(wire.AppendInt(b, m.SenderSeq), m.Safe), m.Payload, depth)
}
func (m Ack) AppendWire(b []byte, _ int) ([]byte, error) {
	return wire.AppendInt(wire.AppendViewID(b, m.ViewID), m.Seq), nil
}
func (m SafePoint) AppendWire(b []byte, _ int) ([]byte, error) {
	return wire.AppendInt(wire.AppendViewID(b, m.ViewID), m.Seq), nil
}

func (Data) ReadWire(r *wire.Reader, depth int) any {
	return Data{ViewID: r.ViewID(), SenderSeq: r.Int(), AckSeq: r.Int(), Payload: netfab.ReadPayload(r, depth)}
}
func (Ordered) ReadWire(r *wire.Reader, depth int) any {
	return Ordered{ViewID: r.ViewID(), Seq: r.Int(), Sender: r.Proc(), SenderSeq: r.Int(), Safe: r.Int(), Payload: netfab.ReadPayload(r, depth)}
}
func (Ack) ReadWire(r *wire.Reader, _ int) any { return Ack{ViewID: r.ViewID(), Seq: r.Int()} }
func (SafePoint) ReadWire(r *wire.Reader, _ int) any {
	return SafePoint{ViewID: r.ViewID(), Seq: r.Int()}
}

// Handler receives the view-synchronous upcalls. Handlers are invoked from
// the node's event loop; they may call Node.SendInLoop but must not block.
type Handler interface {
	OnNewView(v types.View)
	OnRecv(payload any, from types.ProcID)
	OnSafe(payload any, from types.ProcID)
}

// Stats are cumulative per-node counters of the view-synchronous layer.
// They are safe to read from any goroutine at any time.
type Stats struct {
	ViewsInstalled uint64        // views installed (initial view included)
	Heartbeats     uint64        // heartbeats sent
	Retransmits    uint64        // Data and Ordered frames resent after a stall: loss, or a peer too slow to ack
	Periodic       uint64        // Install gossip, cumulative Acks and SafePoints sent on the tick whatever the state
	Submissions    uint64        // payloads submitted via SendInLoop
	Delivered      uint64        // ordered messages delivered in-view
	LatencySamples uint64        // own submissions whose delivery latency was measured
	LatencyTotal   time.Duration // cumulative submit-to-self-delivery latency
}

// AvgLatency is the mean submit-to-self-delivery latency of this node's own
// submissions within stable views (zero without samples).
func (s Stats) AvgLatency() time.Duration {
	if s.LatencySamples == 0 {
		return 0
	}
	return s.LatencyTotal / time.Duration(s.LatencySamples)
}

// Config configures a Node.
type Config struct {
	Self      types.ProcID // 0–63, as a process set holds; NewNode panics otherwise
	Universe  types.ProcSet
	Initial   types.View
	Transport netfab.Transport

	// TickInterval drives heartbeats and proposal retries (default 2ms).
	TickInterval time.Duration
	// SuspectTimeout is the failure-detection window (default 25 ticks).
	// The default is deliberately generous: heartbeats share the event loop
	// and the inboxes with data traffic, so under load a heartbeat can
	// easily arrive several ticks late, and a twitchy detector turns a busy
	// group into view-change thrash.
	SuspectTimeout time.Duration
	// ProposeRetry is the view-proposal retry period (default 10 ticks).
	ProposeRetry time.Duration
}

func (c *Config) fill() {
	if c.TickInterval <= 0 {
		c.TickInterval = 2 * time.Millisecond
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = 25 * c.TickInterval
	}
	if c.ProposeRetry <= 0 {
		c.ProposeRetry = 10 * c.TickInterval
	}
}

// Node is one process of the view-synchronous layer.
type Node struct {
	cfg      Config
	self     types.ProcID
	universe []types.ProcID // cfg.Universe, sorted once
	fabric   netfab.Transport
	handler  Handler

	detector  *member.Detector
	agreement *member.Agreement

	// Sequencer / delivery state for the current view. members and leaderID
	// cache the sorted membership of the installed view: the hot paths
	// (ordering, acking, retransmission) would otherwise re-sort the member
	// set on every message.
	view        types.View
	hasView     bool
	members     []types.ProcID
	leaderID    types.ProcID
	leaderLog   logWindow // leader only: the ordered stream from safePoint on
	acked       map[types.ProcID]int
	safePoint   int // leader: last multicast safe point
	buffer      map[int]Ordered
	nextDeliver int
	delivered   logWindow // delivered, not yet safe: seqs nextSafe..nextDeliver-1
	nextSafe    int
	safeUpTo    int

	// Ack coalescing: deliveries mark ackDirty instead of emitting one Ack
	// frame per delivery progression; flushAcks sends a single cumulative
	// Ack once the loop has drained its current burst of input.
	ackDirty bool

	// Tick bookkeeping for stall-gated retransmission: tickCount numbers
	// ticks in the current view; ackTick records, per member, the tick at
	// which its cumulative ack last advanced (leader only); dataTick
	// records the tick at which pendingOut last shrank.
	tickCount uint64
	ackTick   map[types.ProcID]uint64
	dataTick  uint64

	// Sender-side reliability: submissions not yet seen in the ordered
	// stream, retransmitted on ticks. Submission times feed the delivery
	// latency counters.
	sendSeq     int
	pendingOut  []Data
	pendingTime []time.Time
	// Leader-side per-sender dedup/reorder state.
	dataNext map[types.ProcID]int
	dataBuf  map[types.ProcID]map[int]any

	cmds chan func()
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	published types.View // last installed view, for observers
	publishOK bool

	// Counters, updated from the event loop, readable from anywhere.
	nViews      atomic.Uint64
	nHeartbeats atomic.Uint64
	nRetransmit atomic.Uint64
	nPeriodic   atomic.Uint64
	nSubmit     atomic.Uint64
	nDelivered  atomic.Uint64
	nLatSamples atomic.Uint64
	latTotalNs  atomic.Int64
}

// logWindow is the part of a view's ordered stream still needed, the frame
// with Seq s at index s-1: push appends, dropTo forgets everything below an
// index, for good. The frames left are moved to the front of the storage
// whenever the forgotten ones take up half of it, so the storage stays
// proportional to what is held at amortised O(1) per frame, and a stream
// with one frame in flight reuses one slot.
type logWindow struct {
	buf  []Ordered
	head int // buf[head:] is held
	base int // index of buf[head]
}

func (w *logWindow) end() int         { return w.base + len(w.buf) - w.head }
func (w *logWindow) at(i int) Ordered { return w.buf[w.head+i-w.base] }
func (w *logWindow) push(o Ordered)   { w.buf = append(w.buf, o) }
func (w *logWindow) dropTo(i int) {
	clear(w.buf[w.head : w.head+i-w.base]) // release the payloads
	w.head, w.base = w.head+i-w.base, i
	if w.head*2 >= len(w.buf) {
		k := copy(w.buf, w.buf[w.head:])
		clear(w.buf[k:])
		w.buf, w.head = w.buf[:k], 0
	}
}

// NewNode builds a node without starting it. Call SetHandler (handlers
// usually need the node reference to send, so they are attached after
// construction) and then Start.
func NewNode(cfg Config) *Node {
	if err := types.CheckProc(cfg.Self); err != nil {
		panic("vsg: Config.Self: " + err.Error())
	}
	cfg.fill()
	n := &Node{
		cfg:      cfg,
		self:     cfg.Self,
		universe: cfg.Universe.Sorted(),
		fabric:   cfg.Transport,
		cmds:     make(chan func(), 4096),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	now := time.Now()
	n.detector = member.NewDetector(cfg.Self, cfg.Universe, cfg.SuspectTimeout, now)
	n.agreement = member.NewAgreement(cfg.Self, cfg.Initial, cfg.ProposeRetry)
	return n
}

// Universe returns the configured process universe.
func (n *Node) Universe() types.ProcSet { return n.cfg.Universe }

// SetHandler attaches the layer above. It must be called before Start.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// Start launches the event loop. The handler's OnNewView for the initial
// view (if the node is a member) is delivered synchronously, before the
// loop starts, so no message can overtake it.
func (n *Node) Start() {
	if v, ok := n.agreement.Current(); ok {
		n.installView(v)
	}
	go n.run()
}

// Do schedules f to run inside the node's event loop. It is the only safe
// way to touch the stack from outside the loop. It blocks if the command
// queue is full and returns false once the node has stopped.
func (n *Node) Do(f func()) bool {
	select {
	case <-n.stop:
		return false
	default:
	}
	select {
	case n.cmds <- f:
		return true
	case <-n.stop:
		return false
	}
}

// Defer schedules f onto a later event-loop iteration without ever
// blocking: unlike Do it may be called from inside the loop itself. It
// reports false when the node has stopped or the queue is full — callers
// must then fall back to doing the work inline. The layers above use it to
// postpone batch flushes behind already-queued events, which is what lets
// a loaded queue coalesce into large batches.
func (n *Node) Defer(f func()) bool {
	select {
	case <-n.stop:
		return false
	default:
	}
	select {
	case n.cmds <- f:
		return true
	default:
		return false
	}
}

// Stats returns a snapshot of the layer's counters (thread-safe).
func (n *Node) Stats() Stats {
	return Stats{
		ViewsInstalled: n.nViews.Load(),
		Heartbeats:     n.nHeartbeats.Load(),
		Retransmits:    n.nRetransmit.Load(),
		Periodic:       n.nPeriodic.Load(),
		Submissions:    n.nSubmit.Load(),
		Delivered:      n.nDelivered.Load(),
		LatencySamples: n.nLatSamples.Load(),
		LatencyTotal:   time.Duration(n.latTotalNs.Load()),
	}
}

// View returns the last installed view (thread-safe).
func (n *Node) View() (types.View, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.published, n.publishOK
}

// Stop terminates the event loop and waits for it to exit.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
}

func (n *Node) run() {
	defer close(n.done)
	inbox, err := n.fabric.Inbox(n.self)
	if err != nil {
		return
	}
	ticker := time.NewTicker(n.cfg.TickInterval)
	defer ticker.Stop()
	// burst bounds how many already-queued inbox messages one loop
	// iteration drains before acknowledgments are flushed; it keeps the
	// coalesced Ack prompt while amortizing it over a loaded inbox.
	const burst = 256
	for {
		select {
		case <-n.stop:
			return
		case f := <-n.cmds:
			f()
		case env := <-inbox:
			n.onMessage(env)
			for i := 0; i < burst; i++ {
				select {
				case env := <-inbox:
					n.onMessage(env)
					continue
				default:
				}
				break
			}
		case <-ticker.C:
			n.onTick(time.Now())
		}
		n.flushAcks()
	}
}

// flushAcks sends the single cumulative Ack covering every delivery
// progression of the finished loop iteration. The leader never needs one
// (its own acks are applied locally as it delivers).
func (n *Node) flushAcks() {
	if !n.ackDirty {
		return
	}
	n.ackDirty = false
	if !n.hasView || n.leaderID == n.self || n.nextDeliver <= 1 {
		return
	}
	n.fabric.Send(n.self, n.leaderID, Ack{ViewID: n.view.ID, Seq: n.nextDeliver - 1})
}

func (n *Node) onTick(now time.Time) {
	// Heartbeats to the whole universe; the fabric enforces partitions.
	for _, q := range n.universe {
		if q != n.self {
			n.fabric.Send(n.self, q, member.Heartbeat{})
			n.nHeartbeats.Add(1)
		}
	}
	sends, installed := n.agreement.Tick(now, n.detector.Alive(now))
	n.flush(sends)
	if installed != nil {
		n.installView(*installed)
	}
	n.tickCount++
	n.retransmit()
}

// Retransmission pacing. Resends fire only after the corresponding piece of
// state has made no progress for stallTicks ticks — a fresh message is
// almost always still in flight (or sitting in a loaded inbox), and blindly
// resending it every tick turns a busy group into a retransmit storm that
// competes with the goodput it is trying to protect. View gossip and safe
// points are periodic rather than stall-gated (there is no ack to observe
// progress by), at a coarser period than every tick.
const (
	stallTicks  = 2 // ticks without progress before Data/Ordered resend
	gossipTicks = 4 // period of Install view gossip
	safeTicks   = 2 // period of leader SafePoint re-announcement
)

// retransmit drives all tick-based reliability: senders resend stalled
// unordered submissions; members resend their cumulative ack; every node
// periodically gossips its current view (healing lost Installs); the leader
// resends the unacked suffix of the ordered stream to stalled members and
// re-announces the safe point. Together these make stable-view delivery
// immune to message loss, startup races and inbox overflow, without
// flooding a merely-busy view with duplicates.
func (n *Node) retransmit() {
	const window = 64
	if !n.hasView {
		return
	}
	// View gossip: lost Install messages leave a member stranded in an old
	// view; re-announcing the current view heals it (installs are idempotent
	// and monotone). Gossip goes to the whole universe, not just the view:
	// non-members reject the install (Self Inclusion) but fold its identifier
	// into their agreement state, which is what lets a leader detect a
	// process stranded in a newer view than its own and re-propose.
	if n.tickCount%gossipTicks == 1 {
		for _, q := range n.universe {
			if q != n.self {
				n.fabric.Send(n.self, q, member.Install{View: n.view})
				n.nPeriodic.Add(1)
			}
		}
	}
	if n.leaderID != n.self {
		// Resend unordered submissions once they have stalled, and the
		// cumulative ack (one frame; it doubles as the leader's progress
		// signal, so it stays periodic).
		if len(n.pendingOut) > 0 && n.tickCount-n.dataTick >= stallTicks {
			for i, d := range n.pendingOut {
				if i >= window {
					break
				}
				d.AckSeq = n.nextDeliver - 1
				n.fabric.Send(n.self, n.leaderID, d)
				n.nRetransmit.Add(1)
			}
			// Re-arm the stall gate: the burst just sent needs stallTicks to
			// land before resending again. Pacing the catch-up keeps it from
			// flooding inboxes and crowding out heartbeats.
			n.dataTick = n.tickCount
		}
		if n.nextDeliver > 1 {
			n.fabric.Send(n.self, n.leaderID, Ack{ViewID: n.view.ID, Seq: n.nextDeliver - 1})
			n.nPeriodic.Add(1)
		}
		return
	}
	for _, q := range n.members {
		if q == n.self {
			continue
		}
		from := n.acked[q] // ≥ safePoint, where the log starts
		if from < n.leaderLog.end() && n.tickCount-n.ackTick[q] >= stallTicks {
			for s := from; s < n.leaderLog.end() && s < from+window; s++ {
				o := n.leaderLog.at(s)
				o.Safe = n.safePoint
				n.fabric.Send(n.self, q, o)
				n.nRetransmit.Add(1)
			}
			// Re-arm the gate (see the sender-side counterpart above): one
			// catch-up window per stall period, not per tick.
			n.ackTick[q] = n.tickCount
		}
		if n.safePoint > 0 && n.tickCount%safeTicks == 1 {
			n.fabric.Send(n.self, q, SafePoint{ViewID: n.view.ID, Seq: n.safePoint})
			n.nPeriodic.Add(1)
		}
	}
}

func (n *Node) flush(sends []member.Send) {
	for _, s := range sends {
		n.fabric.Send(n.self, s.To, s.Payload)
	}
}

func (n *Node) onMessage(env netfab.Envelope) {
	n.detector.Observe(env.From, time.Now())
	switch m := env.Payload.(type) {
	case member.Heartbeat:
		// liveness only
	case member.Propose:
		n.flush(n.agreement.OnPropose(env.From, m.View))
	case member.Accept:
		n.agreement.OnAccept(env.From, m.ViewID)
	case member.Install:
		if v := n.agreement.OnInstall(m.View); v != nil {
			n.installView(*v)
		}
	case Data:
		n.onData(env.From, m)
	case Ordered:
		n.onOrdered(m)
	case Ack:
		n.onAck(env.From, m)
	case SafePoint:
		n.onSafePoint(m)
	}
}

// installView resets the sequencer and notifies the layer above.
func (n *Node) installView(v types.View) {
	n.view = v
	n.hasView = true
	n.members = n.view.Members.Sorted()
	n.leaderID = n.members[0]
	n.leaderLog = logWindow{}
	n.acked = make(map[types.ProcID]int, v.Members.Len())
	n.safePoint = 0
	n.buffer = make(map[int]Ordered)
	n.nextDeliver = 1
	n.delivered = logWindow{}
	n.nextSafe = 1
	n.safeUpTo = 0
	n.sendSeq = 0
	n.pendingOut = nil
	n.pendingTime = nil
	n.dataNext = make(map[types.ProcID]int)
	n.dataBuf = make(map[types.ProcID]map[int]any)
	n.ackDirty = false
	n.ackTick = make(map[types.ProcID]uint64, v.Members.Len())
	for _, q := range n.members {
		n.ackTick[q] = n.tickCount
	}
	n.dataTick = n.tickCount
	n.nViews.Add(1)

	n.mu.Lock()
	n.published = v
	n.publishOK = true
	n.mu.Unlock()

	if n.handler != nil {
		n.handler.OnNewView(v)
	}
}

func (n *Node) leader() types.ProcID { return n.leaderID }

// SendInLoop submits a payload for totally ordered delivery within the
// current view. It must be called from inside the event loop (i.e. from a
// Handler upcall or a Do closure). Without a current view the payload is
// dropped, as the VS specification permits.
func (n *Node) SendInLoop(payload any) {
	if !n.hasView {
		return
	}
	n.sendSeq++
	n.nSubmit.Add(1)
	d := Data{ViewID: n.view.ID, SenderSeq: n.sendSeq, Payload: payload}
	n.pendingOut = append(n.pendingOut, d)
	n.pendingTime = append(n.pendingTime, time.Now())
	if n.leaderID == n.self {
		n.onData(n.self, d)
		return
	}
	// Piggyback the cumulative ack: any progress this node owes the leader
	// rides along instead of waiting for flushAcks or the tick.
	d.AckSeq = n.nextDeliver - 1
	n.ackDirty = false
	n.fabric.Send(n.self, n.leaderID, d)
}

func (n *Node) onData(from types.ProcID, m Data) {
	if !n.hasView || m.ViewID != n.view.ID || n.leaderID != n.self || !n.view.Contains(from) {
		return // a sender outside the view has nothing to order in it
	}
	if m.AckSeq > 0 && from != n.self {
		// Piggybacked cumulative ack — apply it even when the data itself
		// turns out to be a duplicate.
		n.onAckLocal(from, Ack{ViewID: m.ViewID, Seq: m.AckSeq})
	}
	next := n.dataNext[from] + 1
	if m.SenderSeq < next {
		return // duplicate retransmission
	}
	buf, ok := n.dataBuf[from]
	if !ok {
		buf = make(map[int]any)
		n.dataBuf[from] = buf
	}
	buf[m.SenderSeq] = m.Payload
	// Order contiguously, preserving per-sender FIFO across losses.
	for {
		payload, ok := buf[next]
		if !ok {
			break
		}
		delete(buf, next)
		n.dataNext[from] = next
		n.order(from, payload)
		next++
	}
}

func (n *Node) order(sender types.ProcID, payload any) {
	o := Ordered{ViewID: n.view.ID, Seq: n.leaderLog.end() + 1, Sender: sender, SenderSeq: n.dataNext[sender], Payload: payload}
	n.leaderLog.push(o)
	o.Safe = n.safePoint // stamped at send time; the log copy stays canonical
	for _, q := range n.members {
		if q == n.self {
			n.onOrdered(o)
		} else {
			n.fabric.Send(n.self, q, o)
		}
	}
}

func (n *Node) onOrdered(m Ordered) {
	if !n.hasView || m.ViewID != n.view.ID || !n.view.Contains(m.Sender) {
		return // only a member's message is ordered in the view
	}
	if m.Safe > n.safeUpTo {
		// Piggybacked safe point (see Ordered.Safe).
		n.safeUpTo = m.Safe
	}
	if m.Seq < n.nextDeliver {
		n.emitSafe()
		return
	}
	n.buffer[m.Seq] = m
	progressed := false
	for {
		o, ok := n.buffer[n.nextDeliver]
		if !ok {
			break
		}
		delete(n.buffer, n.nextDeliver)
		n.delivered.push(o)
		n.nextDeliver++
		n.nDelivered.Add(1)
		progressed = true
		if o.Sender == n.self {
			// Our own submission made it into the ordered stream: stop
			// retransmitting everything up to it, recording its
			// submit-to-delivery latency.
			for len(n.pendingOut) > 0 && n.pendingOut[0].SenderSeq <= o.SenderSeq {
				n.nLatSamples.Add(1)
				n.latTotalNs.Add(int64(time.Since(n.pendingTime[0])))
				n.pendingOut = n.pendingOut[1:]
				n.pendingTime = n.pendingTime[1:]
				n.dataTick = n.tickCount
			}
		}
		if n.handler != nil {
			n.handler.OnRecv(o.Payload, o.Sender)
		}
	}
	if progressed {
		if n.leaderID == n.self {
			n.onAckLocal(n.self, Ack{ViewID: n.view.ID, Seq: n.nextDeliver - 1})
		} else {
			// Coalesced: one cumulative Ack goes out in flushAcks once the
			// loop has drained the current input burst (or it piggybacks on
			// the next outgoing Data, whichever comes first).
			n.ackDirty = true
		}
	}
	n.emitSafe()
}

func (n *Node) onAck(from types.ProcID, m Ack) {
	if !n.hasView || m.ViewID != n.view.ID || n.leader() != n.self {
		return
	}
	n.onAckLocal(from, m)
}

func (n *Node) onAckLocal(from types.ProcID, m Ack) {
	if m.Seq <= n.acked[from] {
		return
	}
	n.acked[from] = m.Seq
	n.ackTick[from] = n.tickCount
	safe := -1
	for _, q := range n.members {
		a := n.acked[q]
		if safe == -1 || a < safe {
			safe = a
		}
	}
	if safe > n.safePoint {
		// Retransmission starts at acked[q] ≥ safe: what lies below is never
		// read again.
		n.leaderLog.dropTo(safe)
		n.safePoint = safe
		sp := SafePoint{ViewID: n.view.ID, Seq: safe}
		for _, q := range n.members {
			if q == n.self {
				n.onSafePoint(sp)
			} else {
				n.fabric.Send(n.self, q, sp)
			}
		}
	}
}

func (n *Node) onSafePoint(m SafePoint) {
	if !n.hasView || m.ViewID != n.view.ID {
		return
	}
	if m.Seq > n.safeUpTo {
		n.safeUpTo = m.Seq
	}
	n.emitSafe()
}

func (n *Node) emitSafe() {
	for n.nextSafe <= n.safeUpTo && n.nextSafe <= n.delivered.end() {
		o := n.delivered.at(n.nextSafe - 1)
		n.delivered.dropTo(n.nextSafe) // read exactly once, here
		n.nextSafe++
		if n.handler != nil {
			n.handler.OnSafe(o.Payload, o.Sender)
		}
	}
}

// Stopped returns a channel closed when the node is stopping; layers above
// use it to abort blocking hand-offs to the application.
func (n *Node) Stopped() <-chan struct{} { return n.stop }
