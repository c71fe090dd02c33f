// Package mcast is the runtime shell of the cross-group atomic-multicast
// coordinator: the thin layer that drives the pure protocol core
// (internal/protocol/mcastcore) over N per-group TO stacks, in the style
// of dvsg and tob. The shell holds no protocol state: it encodes the
// core's send effects as reserved-prefix payloads broadcast through the
// destination groups' total orders, decodes delivered control payloads
// back into core events, and hands the core's finalized deliveries to the
// application through each group's ordered delivery stream.
//
// Concurrency shape: each group's TO stack runs its own event loop, and
// the coordinator's delivery hook runs inline on whichever loop ordered
// the control payload, so macro-steps of the one shared core are
// serialized by a mutex (held only across Step — never across a send or
// any other blocking call). Outbound control broadcasts are queued to a
// dedicated sender that schedules them onto the destination group's event
// loop, so a hook running on group g's loop never blocks on group h's.
package mcast

import (
	"fmt"
	"sync"

	"repro/internal/protocol/mcastcore"
	"repro/internal/tob"
	"repro/internal/types"
)

// GroupPort is the coordinator's handle on one group's stack: the group
// id, the TO layer control traffic is broadcast through, and Run, which
// schedules a closure onto that group's event loop (vsg.Node.Do),
// returning false if the node has stopped.
type GroupPort struct {
	G   types.GroupID
	TOB *tob.Layer
	Run func(func()) bool
}

// Observer receives every macro-step of the multicast core, in execution
// order, exactly like tob.Observer: the conformance recorder attaches
// here. Called with the coordinator mutex held; the effects slice must
// not be mutated.
type Observer func(ev mcastcore.Event, effects []mcastcore.Effect)

// Stats are cumulative coordinator counters.
type Stats struct {
	Submitted    uint64 // multicasts submitted locally
	DataIn       uint64 // data frames ordered by some group
	PropsIn      uint64 // proposal frames ordered by some group
	Delivered    uint64 // finalized deliveries across all groups
	ControlSent  uint64 // control broadcasts handed to group loops
	BadFrames    uint64 // undecodable control payloads dropped
	Rejected     uint64 // events the core rejected (malformed)
	DroppedSends uint64 // control broadcasts lost to stopped group loops
}

// Coordinator drives one mcastcore.Node across this process's groups.
type Coordinator struct {
	self  types.ProcID
	ports map[types.GroupID]GroupPort
	send  *sender

	mu       sync.Mutex
	core     *mcastcore.Node
	observer Observer
	stats    Stats
}

// New builds the coordinator for process self over the given group ports.
// Attach each group's delivery hook (Hook) to its tob layer before the
// stacks start, then call Start.
func New(self types.ProcID, ports []GroupPort) *Coordinator {
	groups := make([]types.GroupID, 0, len(ports))
	pm := make(map[types.GroupID]GroupPort, len(ports))
	for _, p := range ports {
		groups = append(groups, p.G)
		pm[p.G] = p
	}
	return &Coordinator{
		self:  self,
		ports: pm,
		core:  mcastcore.NewNode(self, groups),
		send:  newSender(pm),
	}
}

// AddObserver chains o after any already-installed observer (recorder,
// stream spiller, online checker). Must be called before the stacks start.
func (c *Coordinator) AddObserver(o Observer) {
	if prev := c.observer; prev != nil {
		c.observer = func(ev mcastcore.Event, effects []mcastcore.Effect) {
			prev(ev, effects)
			o(ev, effects)
		}
		return
	}
	c.observer = o
}

// Start launches the outbound sender.
func (c *Coordinator) Start() { c.send.start() }

// Stop terminates the sender; queued control broadcasts are abandoned.
func (c *Coordinator) Stop() { c.send.stop() }

// Stats returns a snapshot of the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.DroppedSends += c.send.droppedSends()
	return s
}

// Delivered returns a copy of group g's multicast delivery history at this
// node, in delivery order.
func (c *Coordinator) Delivered(g types.GroupID) []mcastcore.Delivered {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Delivered(g)
}

// Submit multicasts payload to the destination groups (canonicalized
// here). Safe from any goroutine. The message is delivered in every
// destination group in the same relative order as every other multicast
// those groups share.
func (c *Coordinator) Submit(dests []types.GroupID, payload string) error {
	canon := types.DedupGroups(append([]types.GroupID(nil), dests...))
	for _, g := range canon {
		if _, ok := c.ports[g]; !ok {
			return fmt.Errorf("mcast: not a member of group %s", g)
		}
	}
	effects, err := c.step(mcastcore.EvSubmit{Dests: canon, Payload: payload})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Submitted++
	c.mu.Unlock()
	c.apply(effects)
	return nil
}

// Hook returns group g's delivery hook: install it on that group's tob
// layer (tob.Layer.SetDeliverHook). Control payloads are consumed, stepped
// through the core, and replaced by whatever multicast deliveries they
// finalize in g; ordinary payloads pass through untouched. Because the
// hook runs inline in the TO delivery order and the core's group-g state
// depends only on group-g events, every member of g interleaves multicast
// deliveries into its application stream at the same points.
func (c *Coordinator) Hook(g types.GroupID) tob.DeliverHook {
	return func(d tob.Delivery) []tob.Delivery {
		if !isControl(d.Payload) {
			return []tob.Delivery{d}
		}
		ev, ok := decode(g, d.Payload)
		if !ok {
			c.mu.Lock()
			c.stats.BadFrames++
			c.mu.Unlock()
			return nil
		}
		effects, err := c.step(ev)
		if err != nil {
			return nil
		}
		c.mu.Lock()
		if _, isData := ev.(mcastcore.EvData); isData {
			c.stats.DataIn++
		} else {
			c.stats.PropsIn++
		}
		c.mu.Unlock()
		return c.apply(effects)
	}
}

// step runs one core macro-step under the mutex and returns its effects.
// The observer fires inside the critical section so recorded logs keep the
// core's execution order even when hooks race on different group loops.
func (c *Coordinator) step(ev mcastcore.Event) ([]mcastcore.Effect, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out mcastcore.Outbox
	if err := mcastcore.Step(c.core, ev, &out); err != nil {
		c.stats.Rejected++
		return nil, err
	}
	if c.observer != nil {
		c.observer(ev, out.Effects)
	}
	return out.Effects, nil
}

// apply translates a macro-step's effects outside the mutex: send effects
// are encoded and queued to the sender, deliver effects become application
// deliveries for the carrier group.
func (c *Coordinator) apply(effects []mcastcore.Effect) []tob.Delivery {
	var out []tob.Delivery
	var sent, delivered uint64
	for _, fx := range effects {
		switch e := fx.(type) {
		case mcastcore.FxSendData:
			c.send.enqueue(e.To, encodeData(e.ID, e.Origin, e.Dests, e.Payload))
			sent++
		case mcastcore.FxSendProp:
			c.send.enqueue(e.To, encodeProp(e.PGroup, e.ID, e.TS))
			sent++
		case mcastcore.FxDeliver:
			out = append(out, tob.Delivery{Payload: e.Payload, Origin: e.Origin})
			delivered++
		}
	}
	if sent > 0 || delivered > 0 {
		c.mu.Lock()
		c.stats.ControlSent += sent
		c.stats.Delivered += delivered
		c.mu.Unlock()
	}
	return out
}
