package net

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// GroupFrame wraps a payload with the group it belongs to, so N
// independent group stacks can share one Transport (one fabric, one TCP
// mesh): every senders tags, the receiver's GroupMux demultiplexes.
// Registered as a wire type by the TCP node.
type GroupFrame struct {
	G types.GroupID
	P Payload
}

// GroupMux is one endpoint's view of a shared transport as N per-group
// transports. Sends are tagged with the group and passed straight through
// (so partitions, loss, crashes, and per-link FIFO of the underlying
// transport apply unchanged, node-level); a single pump goroutine reads
// the endpoint's shared inbox and routes each frame to the group's
// channel. Per-link FIFO is preserved per group: the pump is the only
// reader and routes in arrival order.
type GroupMux struct {
	self    types.ProcID
	under   Transport
	mu      sync.Mutex
	chans   map[types.GroupID]chan Envelope
	stop    chan struct{}
	done    chan struct{}
	started bool
	dropped atomic.Uint64
}

// groupInboxSize is each group's buffered channel capacity. A full group
// inbox drops, like the fabric's shared inbox.
const groupInboxSize = 4096

// GroupMuxConfig has no fields left (nothing ever set its inbox size); the
// type stays because bench/traced.go passes one to NewGroupMux.
type GroupMuxConfig struct{}

// NewGroupMux builds the demultiplexer for endpoint self over the shared
// transport, serving the given groups. Start must be called before
// deliveries flow.
func NewGroupMux(self types.ProcID, under Transport, groups []types.GroupID, _ GroupMuxConfig) *GroupMux {
	m := &GroupMux{
		self:  self,
		under: under,
		chans: make(map[types.GroupID]chan Envelope, len(groups)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, g := range types.DedupGroups(append([]types.GroupID(nil), groups...)) {
		m.chans[g] = make(chan Envelope, groupInboxSize)
	}
	return m
}

// Start launches the pump goroutine. It returns an error if the shared
// transport has no inbox for this endpoint.
func (m *GroupMux) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return nil
	}
	inbox, err := m.under.Inbox(m.self)
	if err != nil {
		return err
	}
	m.started = true
	go m.pump(inbox)
	return nil
}

// Stop terminates the pump. Group channels are left open (readers drain
// what was already routed and then block; the group stacks are stopped
// independently).
func (m *GroupMux) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		return
	}
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
}

// Dropped counts frames discarded by the pump: unknown group, non-frame
// payload, or a full group inbox.
func (m *GroupMux) Dropped() uint64 { return m.dropped.Load() }

func (m *GroupMux) pump(inbox <-chan Envelope) {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			frame, isFrame := env.Payload.(GroupFrame)
			if !isFrame {
				m.dropped.Add(1)
				continue
			}
			ch, known := m.chans[frame.G]
			if !known {
				m.dropped.Add(1)
				continue
			}
			select {
			case ch <- Envelope{From: env.From, Payload: frame.P}:
			default:
				m.dropped.Add(1)
			}
		}
	}
}

// Group returns the per-group Transport facade: sends tag-and-forward
// through the shared transport, the inbox is the demultiplexed channel.
func (m *GroupMux) Group(g types.GroupID) Transport {
	return groupPort{m: m, g: g}
}

type groupPort struct {
	m *GroupMux
	g types.GroupID
}

// Send implements Transport: tag with the group and pass through, keeping
// the underlying transport's fault semantics.
func (p groupPort) Send(from, to types.ProcID, payload Payload) bool {
	return p.m.under.Send(from, to, GroupFrame{G: p.g, P: payload})
}

// Inbox implements Transport for the mux's own endpoint only.
func (p groupPort) Inbox(q types.ProcID) (<-chan Envelope, error) {
	if q != p.m.self {
		return nil, fmt.Errorf("groupmux: endpoint %s serves only %s", q, p.m.self)
	}
	ch, ok := p.m.chans[p.g]
	if !ok {
		return nil, fmt.Errorf("groupmux: endpoint %s not a member of group %s", q, p.g)
	}
	return ch, nil
}
