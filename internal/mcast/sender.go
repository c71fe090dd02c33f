package mcast

import (
	"sync"

	"repro/internal/types"
)

// sender owns the coordinator's outbound control traffic. Hooks run on
// group event loops and must never block on another group's loop, so they
// enqueue here (unbounded, mutex+cond — no channel, no loss) and a single
// goroutine drains the queue, scheduling each broadcast onto its
// destination group's event loop via the port's blocking Run. The sender
// deliberately holds no core state — it sees only encoded strings and
// group ports — so the goroutine cannot observe a half-applied macro-step.
type sender struct {
	ports map[types.GroupID]GroupPort

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []outFrame
	stopped bool
	started bool
	dropped uint64
}

type outFrame struct {
	g       types.GroupID
	payload string
}

func newSender(ports map[types.GroupID]GroupPort) *sender {
	s := &sender{ports: ports}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *sender) start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	// The goroutine holds no core state, only encoded strings and group
	// ports, and never calls Step: each broadcast is scheduled onto the
	// destination group's event loop through port.Run.
	go s.run()
}

func (s *sender) stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *sender) enqueue(g types.GroupID, payload string) {
	s.mu.Lock()
	if !s.stopped {
		s.queue = append(s.queue, outFrame{g: g, payload: payload})
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *sender) droppedSends() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

func (s *sender) run() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		f := s.queue[0]
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			s.queue = nil
		}
		s.mu.Unlock()

		port, ok := s.ports[f.g]
		if !ok {
			s.countDrop()
			continue
		}
		payload := f.payload
		if !port.Run(func() { port.TOB.Broadcast(payload) }) {
			s.countDrop()
		}
	}
}

func (s *sender) countDrop() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
}
