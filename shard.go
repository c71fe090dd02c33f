package dvs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/conform"
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
	memNet
	universe types.ProcSet
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
type ShardedProcess struct{ *proc }

// NewShardedCluster builds and starts a sharded cluster.
func NewShardedCluster(cfg ShardedConfig) (*ShardedCluster, error) {
	if cfg.Groups <= 0 {
		return nil, errors.New("dvs: ShardedConfig.Groups must be positive")
	}
	universe, initial, err := initialView(cfg.Processes, nil)
	if err != nil {
		return nil, err
	}
	groups := types.RangeGroups(cfg.Groups)

	c := &ShardedCluster{
		memNet:   memNet{netfab.NewFabric(universe, netfab.Config{Seed: cfg.Seed, LossRate: cfg.LossRate})},
		universe: universe,
		ring:     shard.NewRing(groups, 0),
		procs:    make(map[ProcID]*ShardedProcess, cfg.Processes),
	}
	if cfg.StreamDir != "" {
		c.streams = make(map[types.GroupID]*TraceStream, cfg.Groups)
		for _, g := range groups {
			sr, err := NewTraceStream(conform.GroupDir(cfg.StreamDir, g), TraceStreamOptions{})
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("dvs: creating group %s trace stream: %w", g, err)
			}
			c.streams[g] = sr
		}
		if c.mstream, err = NewTraceStream(conform.McastDir(cfg.StreamDir), TraceStreamOptions{}); err != nil {
			c.Close()
			return nil, fmt.Errorf("dvs: creating multicast trace stream: %w", err)
		}
	}

	// Always multiplexed, one group included: a one-group sharded cluster
	// is the baseline the mux hop and the coordinator are measured against.
	running, err := startProcs(procConfig{
		stack: stackConfig{
			universe:            universe,
			initial:             initial,
			transport:           c.fabric,
			mode:                cfg.Mode,
			disableRegistration: cfg.DisableRegistration,
			tick:                cfg.TickInterval,
			suspect:             cfg.SuspectTimeout,
			retry:               cfg.ProposeRetry,
		},
		ring:    c.ring,
		mux:     true,
		streams: c.streams,
		mstream: c.mstream,
	})
	for _, p := range running {
		c.procs[p.id] = &ShardedProcess{p}
	}
	if err != nil {
		c.Close()
		return nil, err
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
	return append([]types.GroupID(nil), c.ring.Groups()...)
}

// Ring returns the cluster's key→group router.
func (c *ShardedCluster) Ring() *shard.Ring { return c.ring }

// Close stops every process's every stack, seals any sharded trace, and
// disconnects the fabric. Idempotent; returns the first trace-sealing
// error.
func (c *ShardedCluster) Close() error {
	c.close.Do(func() {
		c.fabric.Close()
		for _, sp := range c.procs {
			sp.stop()
		}
		for _, g := range c.ring.Groups() {
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

// McastDelivered returns a copy of group g's multicast delivery history at
// this process, in delivery order.
func (p *ShardedProcess) McastDelivered(g types.GroupID) []McastDelivery {
	return p.mc.Delivered(g)
}

// MuxDropped returns the process's group-multiplexer drop counter
// (untagged frames, unknown groups, overflowed group inboxes).
func (p *ShardedProcess) MuxDropped() uint64 { return p.mux.Dropped() }
