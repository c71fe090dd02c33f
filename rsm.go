package dvs

import (
	"sync"
)

// StateMachine replicates a deterministic state machine over the
// totally-ordered broadcast service: every replica applies the same
// command sequence, so any two replicas' states agree up to a prefix of
// commands. It is the "replicated database" application the paper's
// introduction motivates, packaged as a reusable component.
//
// Apply is invoked exactly once per committed command, in total order, from
// a single goroutine per replica.
type StateMachine struct {
	proc *Process
	// deliveries is snapshotted at construction so the apply loop owns only
	// channels: the goroutine must not reach through Process into the layer
	// structs holding the protocol cores.
	deliveries <-chan Delivery
	apply      func(cmd string, origin ProcID)

	mu      sync.Mutex
	applied int
	stopped bool

	stop chan struct{}
	done chan struct{}
}

// NewStateMachine attaches a replica to a process. It consumes the
// process's delivery stream; do not read Process.Deliveries yourself while
// a StateMachine is attached.
func NewStateMachine(p *Process, apply func(cmd string, origin ProcID)) *StateMachine {
	sm := &StateMachine{
		proc:       p,
		deliveries: p.Deliveries(),
		apply:      apply,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go sm.run()
	return sm
}

func (sm *StateMachine) run() {
	defer close(sm.done)
	for {
		select {
		case d := <-sm.deliveries:
			sm.apply(d.Payload, d.Origin)
			sm.mu.Lock()
			sm.applied++
			sm.mu.Unlock()
		case <-sm.stop:
			return
		}
	}
}

// Submit proposes a command. Commitment is asynchronous: the command is
// applied (at every replica) once it is confirmed in the total order, which
// requires the submitting process to be in an established primary view. It
// reports false if the process has stopped.
func (sm *StateMachine) Submit(cmd string) bool {
	return sm.proc.Broadcast(cmd)
}

// Applied returns the number of commands applied at this replica.
func (sm *StateMachine) Applied() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.applied
}

// Close stops the replica's apply loop (the underlying process keeps
// running; close the Cluster separately).
func (sm *StateMachine) Close() {
	sm.mu.Lock()
	if sm.stopped {
		sm.mu.Unlock()
		return
	}
	sm.stopped = true
	sm.mu.Unlock()
	close(sm.stop)
	<-sm.done
}
