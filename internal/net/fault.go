package net

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/types"
)

// FaultPlan is a shared chaos controller: one plan can govern many
// FaultTransports (e.g. one per TCP node), so a single Partition or Crash
// call affects the whole group symmetrically — the same fault knobs the
// in-memory Fabric offers, lifted to any Transport.
//
// Semantics mirror the Fabric's: messages flow only within a partition
// component (endpoints not mentioned in Partition form one extra component
// together), crashed endpoints neither send nor receive, loss is
// probabilistic per send, and latency delays delivery without reordering
// guarantees across links. Duplication delivers an extra copy of a
// deliverable send, and reordering holds a send back so later traffic on
// the same link overtakes it — the two fault classes a FIFO transport like
// TCP never produces on its own, injected here so the protocol's
// sequence-number defenses are actually exercised.
type FaultPlan struct {
	mu            sync.Mutex
	rng           *rand.Rand
	partitioned   bool
	component     map[types.ProcID]int
	crashed       map[types.ProcID]bool
	lossRate      float64
	latency       time.Duration
	jitter        time.Duration
	dupRate       float64
	reorderRate   float64
	reorderWindow time.Duration
}

// NewFaultPlan builds a healed, fault-free plan with seeded randomness for
// loss and latency jitter.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:       rand.New(rand.NewSource(seed)),
		component: make(map[types.ProcID]int),
		crashed:   make(map[types.ProcID]bool),
	}
}

// Partition splits the group into the given components. Endpoints not
// mentioned form one extra component together.
func (p *FaultPlan) Partition(groups ...[]types.ProcID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitioned = true
	p.component = make(map[types.ProcID]int)
	for i, g := range groups {
		for _, q := range g {
			p.component[q] = i + 1
		}
	}
}

// Heal reconnects every endpoint.
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitioned = false
	p.component = make(map[types.ProcID]int)
}

// Crash permanently disconnects endpoint q (crash-stop).
func (p *FaultPlan) Crash(q types.ProcID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashed[q] = true
}

// SetLoss sets the probability in [0,1) that a deliverable send is dropped.
func (p *FaultPlan) SetLoss(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lossRate = rate
}

// SetLatency delays every deliverable send by base plus a uniform random
// amount in [0, jitter). Zero base and jitter disables latency injection.
func (p *FaultPlan) SetLatency(base, jitter time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latency, p.jitter = base, jitter
}

// SetDuplicate sets the probability in [0,1) that a deliverable send is
// delivered twice. The extra copy takes its own delay draw, so with a
// reorder window configured the duplicate may also arrive out of order.
// Self-sends are never duplicated, matching the loss exemption.
func (p *FaultPlan) SetDuplicate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dupRate = rate
}

// SetReorder sets the probability in [0,1) that a deliverable send is held
// back by a uniform random amount in (0, window], letting later sends on
// the same link overtake it. A non-positive window disables reordering
// regardless of rate. Self-sends are never reordered.
func (p *FaultPlan) SetReorder(rate float64, window time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reorderRate, p.reorderWindow = rate, window
}

// Connected reports whether two endpoints can currently exchange messages.
func (p *FaultPlan) Connected(a, b types.ProcID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.crashed[a] && !p.crashed[b] && p.sameComponent(a, b)
}

func (p *FaultPlan) sameComponent(a, b types.ProcID) bool {
	if !p.partitioned {
		return true
	}
	return p.component[a] == p.component[b]
}

// verdict is one injection decision: whether the send passes, the delay of
// the primary copy, and whether (and when) a duplicate copy follows.
type verdict struct {
	pass     bool
	delay    time.Duration
	dup      bool
	dupDelay time.Duration
}

// decide returns the injection verdict for a send. Self-sends are never
// subjected to loss, duplication, or reordering, matching the Fabric.
func (p *FaultPlan) decide(from, to types.ProcID) verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed[from] || p.crashed[to] || !p.sameComponent(from, to) {
		return verdict{}
	}
	if p.lossRate > 0 && from != to && p.rng.Float64() < p.lossRate {
		return verdict{}
	}
	d := p.latency
	if p.jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(p.jitter)))
	}
	v := verdict{pass: true, delay: d}
	if from == to {
		return v
	}
	if p.reorderRate > 0 && p.reorderWindow > 0 && p.rng.Float64() < p.reorderRate {
		// Hold the primary copy back past its natural slot; anything sent on
		// this link inside the window overtakes it.
		v.delay += 1 + time.Duration(p.rng.Int63n(int64(p.reorderWindow)))
	}
	if p.dupRate > 0 && p.rng.Float64() < p.dupRate {
		v.dup = true
		v.dupDelay = d
		if p.reorderWindow > 0 {
			v.dupDelay += 1 + time.Duration(p.rng.Int63n(int64(p.reorderWindow)))
		}
	}
	return v
}

// FaultTransport decorates any Transport with injected partitions,
// probabilistic loss, latency, and crash-stop, governed by a (possibly
// shared) FaultPlan. It keeps its own Stats of the injection decisions —
// Sent == Delivered + Dropped holds per peer, where Delivered means "passed
// to the inner transport" (immediately or after an injected delay).
type FaultTransport struct {
	inner Transport
	plan  *FaultPlan
	book  statsBook

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

var _ Transport = (*FaultTransport)(nil)

// NewFaultTransport wraps inner under the given plan. Close the wrapper to
// cancel in-flight delayed sends; the inner transport stays owned by the
// caller.
func NewFaultTransport(inner Transport, plan *FaultPlan) *FaultTransport {
	return &FaultTransport{inner: inner, plan: plan, stop: make(chan struct{})}
}

// Plan returns the governing fault plan.
func (f *FaultTransport) Plan() *FaultPlan { return f.plan }

// Send implements Transport. A delayed send is reported as accepted; the
// inner transport's own stats record its eventual fate. An injected
// duplicate is forwarded as a second, separately-recorded send, so the
// accounting invariant keeps holding with Sent counting the copy.
func (f *FaultTransport) Send(from, to types.ProcID, payload Payload) bool {
	select {
	case <-f.stop:
		f.book.send(to, false)
		return false
	default:
	}
	v := f.plan.decide(from, to)
	if !v.pass {
		f.book.send(to, false)
		return false
	}
	ok := f.forward(from, to, payload, v.delay, false)
	if v.dup {
		f.forward(from, to, payload, v.dupDelay, true)
	}
	return ok
}

// forward hands one copy of the payload to the inner transport, immediately
// or after the injected delay, recording it as a plain or duplicate send.
func (f *FaultTransport) forward(from, to types.ProcID, payload Payload, delay time.Duration, dup bool) bool {
	record := f.book.send
	if dup {
		record = f.book.duplicate
	}
	if delay <= 0 {
		ok := f.inner.Send(from, to, payload)
		record(to, ok)
		return ok
	}
	record(to, true)
	f.wg.Add(1)
	timer := time.NewTimer(delay)
	go func() {
		defer f.wg.Done()
		defer timer.Stop()
		select {
		case <-timer.C:
			f.inner.Send(from, to, payload)
		case <-f.stop:
		}
	}()
	return true
}

// Inbox implements Transport by delegation.
func (f *FaultTransport) Inbox(p types.ProcID) (<-chan Envelope, error) {
	return f.inner.Inbox(p)
}

// Stats returns a snapshot of the injection-level counters.
func (f *FaultTransport) Stats() Stats { return f.book.snapshot(nil) }

// Close cancels pending delayed sends and waits for their goroutines. It
// does not close the inner transport.
func (f *FaultTransport) Close() {
	f.once.Do(func() { close(f.stop) })
	f.wg.Wait()
}
