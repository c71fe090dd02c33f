package dvs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/conform"
	"repro/internal/mcast"
	netfab "repro/internal/net"
	"repro/internal/protocol/mcastcore"
	"repro/internal/shard"
	"repro/internal/types"
)

// GroupID identifies one DVS/TO group of a sharded deployment.
type GroupID = types.GroupID

// McastDelivery is one finalized cross-group multicast delivery: the
// message id, origin, payload, and the merged timestamp that positions it
// identically in every addressed group.
type McastDelivery = mcastcore.Delivered

// ShardedConformanceReport aggregates the stream replays of one sharded
// trace directory: one per group, plus the multicast stream.
type ShardedConformanceReport = conform.ShardedReport

// ReplayShardedTrace replays a sharded trace directory written by a
// ShardedCluster with StreamDir, every stream through the stream replayer:
// each group's protocol conformance, and the multicast coordinators' steps
// with the multicast safety suite — per-group agreement, (timestamp, id)
// delivery order, no duplicates, and the cross-group partial order (any two
// groups that both deliver two multicasts deliver them in the same relative
// order).
func ReplayShardedTrace(dir string) (*ShardedConformanceReport, error) {
	return conform.ReplaySharded(dir)
}

// ShardedConfig configures a ShardedCluster.
type ShardedConfig struct {
	// Processes is the size of the process universe; every process is a
	// member of every group.
	Processes int
	// Groups is the number of independent DVS/TO groups (>= 1).
	Groups int
	// Mode selects dynamic (default) or static primaries, for every group.
	Mode Mode
	// DisableRegistration as in Config.
	DisableRegistration bool
	// Seed and LossRate as in Config; faults are node-level, so a
	// partition or crash affects every group of the affected processes.
	Seed     int64
	LossRate float64
	// Timing as in Config.
	TickInterval   time.Duration
	SuspectTimeout time.Duration
	ProposeRetry   time.Duration
	// RingReplicas is the number of consistent-hash points per group on
	// the submit router (0 = shard.DefaultReplicas).
	RingReplicas int
	// StreamDir, when non-empty, records the run into a sharded trace
	// directory: one chunked stream per group under group-NN/ and the
	// multicast coordinators' stream under mcast/. Close seals the streams;
	// check the directory with ReplayShardedTrace.
	StreamDir string
}

// ShardedCluster runs Processes × Groups protocol stacks over one
// partitionable in-memory network: every process runs one stack per group,
// all multiplexed over its single fabric endpoint by a group tag. Keyed
// client traffic routes to groups by consistent hash; multi-group traffic
// goes through the cross-group atomic multicast.
type ShardedCluster struct {
	cfg      ShardedConfig
	universe types.ProcSet
	groups   []types.GroupID
	initial  types.View
	fabric   *netfab.Fabric
	ring     *shard.Ring
	procs    map[ProcID]*ShardedProcess
	streams  map[types.GroupID]*TraceStream
	mstream  *TraceStream // the multicast layer's stream; nil without StreamDir
	close    sync.Once
	closeErr error
}

// ShardedProcess is the application-facing handle of one process of a
// sharded cluster: its per-group stacks, its group multiplexer, and its
// multicast coordinator.
type ShardedProcess struct {
	id     ProcID
	mux    *netfab.GroupMux
	stacks map[types.GroupID]*stack
	ring   *shard.Ring
	mc     *mcast.Coordinator
}

// NewShardedCluster builds and starts a sharded cluster.
func NewShardedCluster(cfg ShardedConfig) (*ShardedCluster, error) {
	if cfg.Processes <= 0 {
		return nil, errors.New("dvs: ShardedConfig.Processes must be positive")
	}
	if cfg.Groups <= 0 {
		return nil, errors.New("dvs: ShardedConfig.Groups must be positive")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeDynamic
	}
	universe := types.RangeProcSet(cfg.Processes)
	groups := types.RangeGroups(cfg.Groups)
	initial := types.InitialView(universe)

	c := &ShardedCluster{
		cfg:      cfg,
		universe: universe,
		groups:   groups,
		initial:  initial,
		fabric:   netfab.NewFabric(universe, netfab.Config{Seed: cfg.Seed, LossRate: cfg.LossRate}),
		ring:     shard.NewRing(groups, cfg.RingReplicas),
		procs:    make(map[ProcID]*ShardedProcess, cfg.Processes),
	}
	if cfg.StreamDir != "" {
		c.streams = make(map[types.GroupID]*TraceStream, cfg.Groups)
		for _, g := range groups {
			sr, err := NewTraceStream(conform.GroupDir(cfg.StreamDir, g), TraceStreamOptions{})
			if err != nil {
				return nil, fmt.Errorf("dvs: creating group %s trace stream: %w", g, err)
			}
			c.streams[g] = sr
		}
		var err error
		if c.mstream, err = NewTraceStream(conform.McastDir(cfg.StreamDir), TraceStreamOptions{}); err != nil {
			return nil, fmt.Errorf("dvs: creating multicast trace stream: %w", err)
		}
	}

	for _, id := range universe.Sorted() {
		sp := &ShardedProcess{
			id:     id,
			mux:    netfab.NewGroupMux(id, c.fabric, groups, netfab.GroupMuxConfig{}),
			stacks: make(map[types.GroupID]*stack, cfg.Groups),
			ring:   c.ring,
		}
		ports := make([]mcast.GroupPort, 0, cfg.Groups)
		for _, g := range groups {
			st, err := buildStack(stackConfig{
				self:                id,
				group:               g,
				universe:            universe,
				p0:                  universe,
				initial:             initial,
				transport:           sp.mux.Group(g),
				mode:                cfg.Mode,
				disableRegistration: cfg.DisableRegistration,
				tick:                cfg.TickInterval,
				suspect:             cfg.SuspectTimeout,
				retry:               cfg.ProposeRetry,
				stream:              c.streams[g],
			})
			if err != nil {
				return nil, err
			}
			sp.stacks[g] = st
			ports = append(ports, mcast.GroupPort{G: g, TOB: st.tob, Run: st.vsg.Do})
		}
		sp.mc = mcast.New(id, ports)
		if c.mstream != nil {
			sn, err := c.mstream.McastNode(id, groups)
			if err != nil {
				return nil, fmt.Errorf("dvs: registering process %s with the multicast trace stream: %w", id, err)
			}
			sp.mc.AddObserver(sn.ObserveMcast)
		}
		for _, g := range groups {
			sp.stacks[g].tob.SetDeliverHook(sp.mc.Hook(g))
		}
		c.procs[id] = sp
	}
	for _, id := range universe.Sorted() {
		sp := c.procs[id]
		sp.mux.Start()
		for _, g := range groups {
			sp.stacks[g].vsg.Start()
		}
		sp.mc.Start()
	}
	return c, nil
}

// Process returns the handle of process i.
func (c *ShardedCluster) Process(i int) *ShardedProcess { return c.procs[ProcID(i)] }

// Processes returns all handles in id order.
func (c *ShardedCluster) Processes() []*ShardedProcess {
	out := make([]*ShardedProcess, 0, len(c.procs))
	for _, id := range c.universe.Sorted() {
		out = append(out, c.procs[id])
	}
	return out
}

// Groups returns the cluster's group ids (sorted).
func (c *ShardedCluster) Groups() []types.GroupID {
	return append([]types.GroupID(nil), c.groups...)
}

// Ring returns the cluster's key→group router.
func (c *ShardedCluster) Ring() *shard.Ring { return c.ring }

// Partition splits the network into the given components; unmentioned
// processes form one extra component together. Faults are node-level:
// every group of an isolated process is isolated.
func (c *ShardedCluster) Partition(groups ...[]int) { c.fabric.Partition(procGroups(groups)...) }

// Heal reconnects the whole network.
func (c *ShardedCluster) Heal() { c.fabric.Heal() }

// Crash permanently disconnects process i (crash-stop, all groups).
func (c *ShardedCluster) Crash(i int) { c.fabric.Crash(ProcID(i)) }

// NetStats returns the cumulative fabric counters.
func (c *ShardedCluster) NetStats() netfab.Stats { return c.fabric.Stats() }

// Close stops every process's every stack, seals any sharded trace, and
// disconnects the fabric. Idempotent; returns the first trace-sealing
// error.
func (c *ShardedCluster) Close() error {
	c.close.Do(func() {
		c.fabric.Close()
		for _, sp := range c.procs {
			sp.mc.Stop()
			for _, g := range c.groups {
				sp.stacks[g].vsg.Stop()
			}
			sp.mux.Stop()
		}
		for _, g := range c.groups {
			if sr, ok := c.streams[g]; ok {
				if err := sr.Close(); err != nil && c.closeErr == nil {
					c.closeErr = fmt.Errorf("dvs: sealing group %s trace: %w", g, err)
				}
			}
		}
		if c.mstream != nil {
			if err := c.mstream.Close(); err != nil && c.closeErr == nil {
				c.closeErr = fmt.Errorf("dvs: sealing multicast trace: %w", err)
			}
		}
	})
	return c.closeErr
}

// ID returns the process id.
func (p *ShardedProcess) ID() ProcID { return p.id }

// Group returns the per-group handle of group g — the same API a
// single-group cluster's Process offers (Broadcast, Deliveries, Views,
// CurrentPrimary, Established, Stats...).
func (p *ShardedProcess) Group(g types.GroupID) (*Process, bool) {
	st, ok := p.stacks[g]
	if !ok {
		return nil, false
	}
	return &Process{id: p.id, stack: st}, true
}

// Submit routes a keyed payload to its group by consistent hash and
// broadcasts it there, reporting false if that group's stack has stopped.
func (p *ShardedProcess) Submit(key, payload string) bool {
	return p.stacks[p.ring.Group(key)].Broadcast(payload)
}

// SubmitKey returns the group a key routes to.
func (p *ShardedProcess) SubmitKey(key string) types.GroupID { return p.ring.Group(key) }

// SubmitMulti atomically multicasts a payload to the destination groups:
// every addressed group delivers it, and any two groups sharing two
// multicasts deliver them in the same relative order.
func (p *ShardedProcess) SubmitMulti(dests []types.GroupID, payload string) error {
	return p.mc.Submit(dests, payload)
}

// McastDelivered returns a copy of group g's multicast delivery history at
// this process, in delivery order.
func (p *ShardedProcess) McastDelivered(g types.GroupID) []McastDelivery {
	return p.mc.Delivered(g)
}

// McastStats returns the multicast coordinator's counters.
func (p *ShardedProcess) McastStats() mcast.Stats { return p.mc.Stats() }

// MuxDropped returns the process's group-multiplexer drop counter
// (untagged frames, unknown groups, overflowed group inboxes).
func (p *ShardedProcess) MuxDropped() uint64 { return p.mux.Dropped() }
