package dvs

import (
	"fmt"
	"sync"

	netfab "repro/internal/net"
	"repro/internal/shard"
	"repro/internal/types"
	"repro/internal/vsg"
)

// Cluster is a running group of processes over a partitionable in-memory
// network. All processes run the full stack: membership, view-synchronous
// ordering, the primary-view filter, and totally-ordered broadcast.
type Cluster struct {
	memNet
	universe types.ProcSet
	initial  types.View
	procs    map[ProcID]*Process
	running  []*proc // the runtimes behind procs
	close    sync.Once
}

// Process is the application-facing handle of one cluster member: one
// group's full protocol stack at one process (group 0 in a single-group
// Cluster; the sharded runtime hands out one Process per member group).
type Process struct {
	id ProcID
	*stack
}

// initialView validates a universe of n processes and a configuration's
// Initial member list against it, and returns the universe and v0 (empty = all).
func initialView(n int, members []int) (types.ProcSet, types.View, error) {
	if n <= 0 || n > types.MaxProcs {
		return 0, types.View{}, fmt.Errorf("dvs: %d processes: there must be 1 to %d, as a process set holds the ids 0–%d", n, types.MaxProcs, types.MaxProcs-1)
	}
	universe := types.RangeProcSet(n)
	if len(members) == 0 {
		return universe, types.InitialView(universe), nil
	}
	p0 := types.NewProcSet()
	for _, i := range members {
		if i < 0 || i >= n {
			return 0, types.View{}, fmt.Errorf("dvs: initial member %d out of range", i)
		}
		p0 = p0.With(ProcID(i))
	}
	return universe, types.InitialView(p0), nil
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	universe, initial, err := initialView(cfg.Processes, cfg.Initial)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		memNet:   memNet{netfab.NewFabric(universe, netfab.Config{Seed: cfg.Seed, LossRate: cfg.LossRate})},
		universe: universe,
		initial:  initial,
		procs:    make(map[ProcID]*Process, cfg.Processes),
	}
	c.running, err = startProcs(procConfig{
		stack: stackConfig{
			universe:            universe,
			initial:             initial,
			transport:           c.fabric,
			mode:                cfg.Mode,
			disableRegistration: cfg.DisableRegistration,
			tick:                cfg.TickInterval,
			suspect:             cfg.SuspectTimeout,
			retry:               cfg.ProposeRetry,
			online:              cfg.Online,
		},
		ring:    shard.NewRing(types.RangeGroups(1), 0),
		streams: map[types.GroupID]*TraceStream{0: cfg.Stream},
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	for _, p := range c.running {
		c.procs[p.id], _ = p.Group(0)
	}
	return c, nil
}

// Process returns the handle of process i.
func (c *Cluster) Process(i int) *Process { return c.procs[ProcID(i)] }

// Processes returns all handles in id order.
func (c *Cluster) Processes() []*Process {
	out := make([]*Process, 0, len(c.procs))
	for _, id := range c.universe.Sorted() {
		out = append(out, c.procs[id])
	}
	return out
}

// InitialView returns v0.
func (c *Cluster) InitialView() View { return c.initial }

// Close stops every process and disconnects the fabric. Close is
// idempotent, so scenarios can close explicitly (to seal a trace stream at a
// consistent cut) under a deferred Close.
func (c *Cluster) Close() {
	c.close.Do(func() {
		c.fabric.Close()
		for _, p := range c.running {
			p.stop()
		}
	})
}

// memNet is the partitionable in-memory network under a Cluster or a
// ShardedCluster, with the fault controls both expose. Faults are
// node-level: they hit every group of the affected processes.
type memNet struct{ fabric *netfab.Fabric }

// Partition splits the network into the given components; unmentioned
// processes form one extra component together.
func (m memNet) Partition(groups ...[]int) { m.fabric.Partition(procGroups(groups)...) }

// procGroups converts partition components from process indices to ids.
func procGroups(groups [][]int) [][]ProcID {
	conv := make([][]ProcID, len(groups))
	for i, g := range groups {
		conv[i] = make([]ProcID, len(g))
		for j, p := range g {
			conv[i][j] = ProcID(p)
		}
	}
	return conv
}

// Heal reconnects the whole network.
func (m memNet) Heal() { m.fabric.Heal() }

// Crash permanently disconnects process i (crash-stop).
func (m memNet) Crash(i int) { m.fabric.Crash(ProcID(i)) }

// NetStats returns the cumulative fabric counters.
func (m memNet) NetStats() netfab.Stats { return m.fabric.Stats() }

// ID returns the process id.
func (p *Process) ID() ProcID { return p.id }

// VSStats returns the view-synchronous layer counters of this process
// (views installed, retransmissions, delivery latency). Thread-safe.
func (p *Process) VSStats() vsg.Stats { return p.vsg.Stats() }

// AmbiguousViews returns the current size of the filter's ambiguous-view
// set (dynamic mode; always 0 in static mode).
func (p *Process) AmbiguousViews() int {
	ch := make(chan int, 1)
	if !p.vsg.Do(func() { ch <- p.dvs.AmbCount() }) {
		return 0
	}
	return <-ch
}

// Leader returns the coordinator of this process's current primary view —
// by convention its minimum-id member — and whether this process currently
// has an established primary. All members of the same established primary
// agree on its leader. Note the standard caveat: a process cut off from the
// rest (crashed link, minority partition) retains its stale primary and may
// still believe in an old leader until it reconnects — so guard actions by
// running them through the total order (e.g. via StateMachine), where a
// stale leader cannot commit anything, rather than trusting leadership
// alone.
func (p *Process) Leader() (ProcID, bool) {
	v, ok := p.CurrentPrimary()
	if !ok || !p.Established() {
		return 0, false
	}
	return v.Members.First(), true
}

// IsLeader reports whether this process is the leader of its current
// established primary view.
func (p *Process) IsLeader() bool {
	l, ok := p.Leader()
	return ok && l == p.id
}
