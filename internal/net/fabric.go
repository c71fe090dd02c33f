// Package net provides an in-memory partitionable network fabric: the
// fault-prone asynchronous network underneath the runtime group
// communication stack. Endpoints exchange arbitrary payloads with FIFO
// per-link delivery; the fabric can be partitioned into disjoint components,
// healed, and individual endpoints can be crashed. Message loss can be
// injected probabilistically per link.
package net

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/types"
)

// Payload is a message body carried by the fabric. Payloads must be
// immutable or ownership-transferred by convention: the fabric does not
// copy them.
type Payload any

// Envelope is a delivered message.
type Envelope struct {
	From    types.ProcID
	Payload Payload
}

// Transport is the message-passing abstraction the runtime stack is built
// on: best-effort unicast with per-link FIFO, plus a receive channel per
// local endpoint. The in-memory Fabric implements it for simulations; the
// TCPTransport implements it for real deployments.
type Transport interface {
	// Send delivers payload from -> to if possible; it never blocks and
	// reports whether the message was accepted for delivery.
	Send(from, to types.ProcID, payload Payload) bool
	// Inbox returns the receive channel of a local endpoint.
	Inbox(p types.ProcID) (<-chan Envelope, error)
}

// Config configures a Fabric.
type Config struct {
	// InboxSize is the per-endpoint buffered channel capacity
	// (default 4096). A full inbox drops messages, modelling loss under
	// overload.
	InboxSize int
	// LossRate is the probability in [0,1) that a deliverable unicast is
	// dropped (default 0).
	LossRate float64
	// Seed seeds loss injection.
	Seed int64
}

var _ Transport = (*Fabric)(nil)

// Fabric connects a fixed universe of endpoints.
type Fabric struct {
	mu        sync.Mutex
	rng       *rand.Rand
	lossRate  float64
	inboxes   map[types.ProcID]chan Envelope
	component map[types.ProcID]int // partition component id
	crashed   map[types.ProcID]bool
	book      statsBook
	closed    bool
}

// NewFabric builds a fabric connecting the given universe, initially fully
// connected.
func NewFabric(universe types.ProcSet, cfg Config) *Fabric {
	size := cfg.InboxSize
	if size <= 0 {
		size = 4096
	}
	f := &Fabric{
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		lossRate:  cfg.LossRate,
		inboxes:   make(map[types.ProcID]chan Envelope, universe.Len()),
		component: make(map[types.ProcID]int, universe.Len()),
		crashed:   make(map[types.ProcID]bool),
	}
	for p := universe.First(); p >= 0; p = universe.Next(p) {
		f.inboxes[p] = make(chan Envelope, size)
		f.component[p] = 0
	}
	return f
}

// Inbox returns the receive channel of endpoint p.
func (f *Fabric) Inbox(p types.ProcID) (<-chan Envelope, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.inboxes[p]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown endpoint %s", p)
	}
	return ch, nil
}

// Send delivers payload from -> to if the two endpoints are currently
// connected and neither is crashed. It never blocks: a full inbox counts as
// loss. The return value reports whether the message was enqueued.
func (f *Fabric) Send(from, to types.ProcID, payload Payload) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.crashed[from] || f.crashed[to] {
		f.book.send(to, false)
		return false
	}
	cf, okf := f.component[from]
	ct, okt := f.component[to]
	if !okf || !okt || cf != ct {
		f.book.send(to, false)
		return false
	}
	if f.lossRate > 0 && from != to && f.rng.Float64() < f.lossRate {
		f.book.send(to, false)
		return false
	}
	select {
	case f.inboxes[to] <- Envelope{From: from, Payload: payload}:
		f.book.send(to, true)
		return true
	default:
		f.book.send(to, false)
		return false
	}
}

// Multicast sends payload to every member of dst (including from, if a
// member). It returns the number of successful enqueues.
func (f *Fabric) Multicast(from types.ProcID, dst types.ProcSet, payload Payload) int {
	n := 0
	for to := dst.First(); to >= 0; to = dst.Next(to) {
		if f.Send(from, to, payload) {
			n++
		}
	}
	return n
}

// Partition splits the universe into the given components. Endpoints not
// mentioned form one extra component together. Messages only flow within a
// component.
func (f *Fabric) Partition(groups ...[]types.ProcID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rest := len(groups) + 1
	for p := range f.component {
		f.component[p] = rest
	}
	for i, g := range groups {
		for _, p := range g {
			if _, ok := f.component[p]; ok {
				f.component[p] = i + 1
			}
		}
	}
}

// Heal reconnects all endpoints into a single component.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for p := range f.component {
		f.component[p] = 0
	}
}

// Crash permanently disconnects endpoint p (crash-stop).
func (f *Fabric) Crash(p types.ProcID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed[p] = true
}

// Crashed reports whether endpoint p has crashed.
func (f *Fabric) Crashed(p types.ProcID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[p]
}

// Connected reports whether two endpoints can currently exchange messages.
func (f *Fabric) Connected(a, b types.ProcID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed[a] || f.crashed[b] {
		return false
	}
	ca, oka := f.component[a]
	cb, okb := f.component[b]
	return oka && okb && ca == cb
}

// Stats returns a snapshot of the cumulative counters, including the
// per-destination breakdown.
func (f *Fabric) Stats() Stats {
	return f.book.snapshot(nil)
}

// Close disconnects everything. Inbox channels are left open (receivers
// drain and observe quiescence via their own stop signals).
func (f *Fabric) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
}
