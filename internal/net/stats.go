package net

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/types"
)

// PeerStats are cumulative per-peer link counters, kept on the sending side
// of each link. The enqueue-level invariant Sent == Delivered + Dropped
// holds per peer as well as for the transport totals.
type PeerStats struct {
	Sent          uint64 // send attempts addressed to this peer
	Delivered     uint64 // accepted for delivery (enqueued locally)
	Dropped       uint64 // rejected at enqueue: full queue, partition, crash, loss
	Redials       uint64 // failed connection attempts by the writer (TCP only)
	WriterDrops   uint64 // payloads abandoned after enqueue (unencodable, or dial/write give-up)
	WriterFrames  uint64 // frames written to the connection (TCP only)
	WriterFlushes uint64 // buffered-write flushes; WriterFrames/WriterFlushes is the mean batch size (TCP only)
	QueueDepth    int    // snapshot of the outgoing queue depth (TCP only)
}

// Stats are cumulative transport counters. Sent == Delivered + Dropped by
// construction: every send attempt is counted exactly once as delivered or
// dropped, including misrouted sends (a from-id that is not the local
// endpoint) and sends to unknown peers.
type Stats struct {
	Sent      uint64 // send attempts
	Delivered uint64 // enqueued to a reachable inbox or outgoing queue
	Dropped   uint64 // lost to partition, crash, loss injection, or overflow

	Misrouted     uint64 // sends rejected because from != local endpoint (subset of Dropped)
	Duplicated    uint64 // extra copies injected by duplication (FaultTransport only; each copy also counts in Sent)
	RecvDropped   uint64 // receiver-side drops: frames lost to inbox overflow
	RecvMalformed uint64 // inbound connections closed on a frame that was oversized or did not decode (TCP only)
	PeersRefused  uint64 // inbound connections refused at the preamble: foreign magic or version, unknown sender (TCP only)
	AcceptErrors  uint64 // listener Accept failures (TCP only)
	Redials       uint64 // failed connection attempts across all peers (TCP only)
	WriterDrops   uint64 // post-enqueue writer give-ups across all peers (TCP only)
	WriterFrames  uint64 // frames written across all peers (TCP only)
	WriterFlushes uint64 // buffered-write flushes across all peers (TCP only)

	// Peers holds the per-peer breakdown, keyed by destination. Nil when the
	// transport has recorded no per-peer traffic.
	Peers map[types.ProcID]PeerStats
}

// CheckInvariant verifies the accounting identity Sent == Delivered +
// Dropped on the totals and on every per-peer row, returning a descriptive
// error on the first violation.
func (s Stats) CheckInvariant() error {
	if s.Sent != s.Delivered+s.Dropped {
		return fmt.Errorf("net stats: Sent=%d != Delivered=%d + Dropped=%d", s.Sent, s.Delivered, s.Dropped)
	}
	for p, ps := range s.Peers {
		if ps.Sent != ps.Delivered+ps.Dropped {
			return fmt.Errorf("net stats: peer %s: Sent=%d != Delivered=%d + Dropped=%d", p, ps.Sent, ps.Delivered, ps.Dropped)
		}
	}
	return nil
}

// String renders a compact one-line summary suitable for end-of-run
// reports.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d delivered=%d dropped=%d", s.Sent, s.Delivered, s.Dropped)
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"misrouted", s.Misrouted}, {"duplicated", s.Duplicated}, {"recv_dropped", s.RecvDropped},
		{"recv_malformed", s.RecvMalformed}, {"peers_refused", s.PeersRefused}, {"redials", s.Redials},
		{"writer_drops", s.WriterDrops}, {"writer_frames", s.WriterFrames}, {"writer_flushes", s.WriterFlushes},
		{"accept_errors", s.AcceptErrors},
	} {
		if c.n > 0 {
			fmt.Fprintf(&b, " %s=%d", c.name, c.n)
		}
	}
	if len(s.Peers) > 0 {
		ids := make([]types.ProcID, 0, len(s.Peers))
		for p := range s.Peers {
			ids = append(ids, p)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, p := range ids {
			ps := s.Peers[p]
			fmt.Fprintf(&b, " peer%s=%d/%d/%d", p, ps.Sent, ps.Delivered, ps.Dropped)
		}
	}
	return b.String()
}

// statsBook is the accounting backend shared by every Transport
// implementation in this package. All mutators take the book's lock and
// maintain the Sent == Delivered + Dropped invariant atomically: a send is
// counted in the same critical section as its outcome.
type statsBook struct {
	mu    sync.Mutex
	base  Stats
	peers map[types.ProcID]*PeerStats
}

func (b *statsBook) peer(to types.ProcID) *PeerStats {
	if b.peers == nil {
		b.peers = make(map[types.ProcID]*PeerStats)
	}
	ps := b.peers[to]
	if ps == nil {
		ps = &PeerStats{}
		b.peers[to] = ps
	}
	return ps
}

// account records one send attempt and its outcome, in also too when that is set.
func (b *statsBook) account(to types.ProcID, delivered bool, also *uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ps := b.peer(to)
	b.base.Sent++
	ps.Sent++
	if delivered {
		b.base.Delivered++
		ps.Delivered++
	} else {
		b.base.Dropped++
		ps.Dropped++
	}
	if also != nil {
		*also++
	}
}

// send records one send attempt addressed to `to` and its outcome.
func (b *statsBook) send(to types.ProcID, delivered bool) { b.account(to, delivered, nil) }

// duplicate records one injected duplicate copy and its outcome. The copy
// is a full send for accounting purposes — Sent == Delivered + Dropped
// keeps holding — with Duplicated marking how many of the sends were
// injection artifacts rather than caller traffic.
func (b *statsBook) duplicate(to types.ProcID, delivered bool) {
	b.account(to, delivered, &b.base.Duplicated)
}

// misrouted records a send rejected because the caller's from-id is not the
// local endpoint. It counts as a drop, preserving the invariant.
func (b *statsBook) misrouted(to types.ProcID) { b.account(to, false, &b.base.Misrouted) }

// bump adds one to a counter of b.base that has no per-peer row.
func (b *statsBook) bump(counter *uint64) {
	b.mu.Lock()
	*counter++
	b.mu.Unlock()
}

func (b *statsBook) redial(to types.ProcID) {
	b.mu.Lock()
	b.base.Redials++
	b.peer(to).Redials++
	b.mu.Unlock()
}

// writerDrop records n payloads abandoned by the writer: one that did not
// encode, or a whole batch after its connection attempts ran out.
func (b *statsBook) writerDrop(to types.ProcID, n uint64) {
	b.mu.Lock()
	b.base.WriterDrops += n
	b.peer(to).WriterDrops += n
	b.mu.Unlock()
}

// writerFlush records one successful buffered write carrying n frames.
func (b *statsBook) writerFlush(to types.ProcID, n uint64) {
	b.mu.Lock()
	b.base.WriterFrames += n
	b.base.WriterFlushes++
	ps := b.peer(to)
	ps.WriterFrames += n
	ps.WriterFlushes++
	b.mu.Unlock()
}

// snapshot returns a deep copy of the counters. queueDepth, when non-nil,
// supplies the current outgoing queue depth per peer.
func (b *statsBook) snapshot(queueDepth func(types.ProcID) int) Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.base
	if len(b.peers) > 0 {
		out.Peers = make(map[types.ProcID]PeerStats, len(b.peers))
		for p, ps := range b.peers {
			row := *ps
			if queueDepth != nil {
				row.QueueDepth = queueDepth(p)
			}
			out.Peers[p] = row
		}
	}
	return out
}
