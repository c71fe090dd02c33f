package main

import (
	"fmt"
	"net"
	"time"

	dvs "repro"
	"repro/internal/dvsg"
	"repro/internal/mcast"
	netfab "repro/internal/net"
	"repro/internal/tob"
	"repro/internal/types"
	"repro/internal/vsg"
)

// Timing pinned for every workload. The suspect timeout is far above the
// runtime defaults on purpose: a whole-process stall on a shared machine
// must not trip the failure detector, because with tens of thousands of
// messages of history one view change takes seconds. (At 500 ms about one
// fabric_recorded repetition in a hundred still installed a second view:
// the stream recorder fsyncs on the event loop.) The tick intervals are
// each runtime's own default, spelled out so a changed default shows up as
// a benchmark edit rather than as a silent shift in the numbers.
const (
	suspectTimeout = 2 * time.Second
	clusterTick    = 2 * time.Millisecond  // dvs.NewCluster, dvs.NewShardedCluster
	nodeTick       = 20 * time.Millisecond // dvs.StartNode
)

// handle is one group's stack at one process, as the generator and the
// counters need it. *dvs.Process implements it for the public runtimes and
// *tracedStack for the stacks the traced run assembles itself.
type handle interface {
	Broadcast(payload string) bool
	Deliveries() <-chan dvs.Delivery
	Stats() (tob.Stats, dvsg.Stats)
	VSStats() vsg.Stats
}

// sut is a running system under test.
type sut struct {
	handles [][]handle // [process][group]
	// submit sends a keyed payload from process p; single-group systems
	// ignore the key.
	submit func(p int, key, payload string) bool
	// Sharded systems only.
	multicast      func(p int, dests []types.GroupID, payload string) error
	muxDropped     func() uint64
	mcastStats     func() mcast.Stats // summed over processes
	mcastDelivered func(p int, g types.GroupID) []dvs.McastDelivery

	netStats func() []netfab.Stats // one per transport
	// spans returns the span totals of every event loop (traced runs only).
	spans func() spanTotals
	loops []*loopTrace
	// stop closes the system; for a recorded run it also seals the trace.
	stop     func() error
	traceDir string // set when the run records a conform stream
}

func singleGroupSubmit(handles [][]handle) func(int, string, string) bool {
	return func(p int, _ string, payload string) bool { return handles[p][0].Broadcast(payload) }
}

// newClusterSUT runs the workload on dvs.NewCluster over the in-memory
// fabric, recording a conform stream into dir when the workload asks.
func newClusterSUT(w *workload, seed int64, dir string) (*sut, error) {
	cfg := dvs.Config{
		Processes:      w.procs,
		Seed:           seed,
		TickInterval:   clusterTick,
		SuspectTimeout: suspectTimeout,
	}
	var stream *dvs.TraceStream
	if w.record {
		var err error
		if stream, err = dvs.NewTraceStream(dir, dvs.TraceStreamOptions{}); err != nil {
			return nil, fmt.Errorf("creating trace stream: %w", err)
		}
		cfg.Stream = stream
	}
	cl, err := dvs.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	s := &sut{netStats: func() []netfab.Stats { return []netfab.Stats{cl.NetStats()} }}
	for _, p := range cl.Processes() {
		s.handles = append(s.handles, []handle{p})
	}
	s.submit = singleGroupSubmit(s.handles)
	s.stop = func() error {
		cl.Close()
		if stream != nil {
			return stream.Close()
		}
		return nil
	}
	if stream != nil {
		s.traceDir = dir
	}
	return s, nil
}

// freeAddrs reserves n loopback ports by binding and releasing them. The
// nodes need every peer's address before any of them starts.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

func peersOf(addrs []string, self int) map[int]string {
	peers := make(map[int]string, len(addrs)-1)
	for j, a := range addrs {
		if j != self {
			peers[j] = a
		}
	}
	return peers
}

// newTCPSUT runs the workload on dvs.StartNode processes connected over
// loopback TCP, all inside this one process.
func newTCPSUT(w *workload) (*sut, error) {
	addrs, err := freeAddrs(w.procs)
	if err != nil {
		return nil, err
	}
	nodes := make([]*dvs.Node, 0, w.procs)
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	s := &sut{}
	for i := 0; i < w.procs; i++ {
		n, err := dvs.StartNode(dvs.NodeConfig{
			ID:             i,
			Processes:      w.procs,
			Listen:         addrs[i],
			Peers:          peersOf(addrs, i),
			TickInterval:   nodeTick,
			SuspectTimeout: suspectTimeout,
		})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		nodes = append(nodes, n)
		h, _ := n.Group(0)
		s.handles = append(s.handles, []handle{h})
	}
	s.submit = singleGroupSubmit(s.handles)
	s.netStats = func() []netfab.Stats {
		out := make([]netfab.Stats, len(nodes))
		for i, n := range nodes {
			out[i] = n.NetStats()
		}
		return out
	}
	s.stop = func() error { closeAll(); return nil }
	return s, nil
}

// newShardedSUT runs the workload on dvs.NewShardedCluster.
func newShardedSUT(w *workload, seed int64) (*sut, error) {
	cl, err := dvs.NewShardedCluster(dvs.ShardedConfig{
		Processes:      w.procs,
		Groups:         w.groups,
		Seed:           seed,
		TickInterval:   clusterTick,
		SuspectTimeout: suspectTimeout,
	})
	if err != nil {
		return nil, err
	}
	procs := cl.Processes()
	s := &sut{netStats: func() []netfab.Stats { return []netfab.Stats{cl.NetStats()} }}
	for _, sp := range procs {
		row := make([]handle, 0, w.groups)
		for _, g := range cl.Groups() {
			h, ok := sp.Group(g)
			if !ok {
				cl.Close()
				return nil, fmt.Errorf("process %s is not a member of group %s", sp.ID(), g)
			}
			row = append(row, h)
		}
		s.handles = append(s.handles, row)
	}
	s.submit = func(p int, key, payload string) bool { return procs[p].Submit(key, payload) }
	s.multicast = func(p int, dests []types.GroupID, payload string) error {
		return procs[p].SubmitMulti(dests, payload)
	}
	s.muxDropped = func() uint64 {
		var n uint64
		for _, sp := range procs {
			n += sp.MuxDropped()
		}
		return n
	}
	s.mcastStats = func() mcast.Stats {
		var sum mcast.Stats
		for _, sp := range procs {
			addMcastStats(&sum, sp.McastStats())
		}
		return sum
	}
	s.mcastDelivered = func(p int, g types.GroupID) []dvs.McastDelivery { return procs[p].McastDelivered(g) }
	s.stop = cl.Close
	return s, nil
}

func addMcastStats(sum *mcast.Stats, m mcast.Stats) {
	sum.Submitted += m.Submitted
	sum.ControlSent += m.ControlSent
	sum.DroppedSends += m.DroppedSends
	sum.Rejected += m.Rejected
}

// Counters read from the layers' public Stats, summed over every process
// and group. Per-layer metrics are deltas of these over the measured
// interval.
const (
	cTobBatches = iota
	cTobPayloads
	cTobDroppedUp
	cTobFlushDiscards
	cDvsFrames
	cDvsPayloads
	cVsViews
	cVsHeartbeats
	cVsRetransmits
	cVsFrames
	cVsLatSamples
	cVsLatTotalNs
	cNetSent
	cNetDropped
	cNetRecvDropped
	cNetRedials
	cNetWriterFrames
	cNetWriterFlushes
	cMuxDropped
	cMcSubmitted
	cMcControl
	cMcDroppedSends
	cMcRejected
	numCounters
)

type counters [numCounters]float64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (s *sut) counters() counters {
	var c counters
	for _, row := range s.handles {
		for _, h := range row {
			t, d := h.Stats()
			c[cTobBatches] += float64(t.BatchesOut)
			c[cTobPayloads] += float64(t.PayloadsOut)
			c[cTobDroppedUp] += float64(t.DroppedUp)
			c[cTobFlushDiscards] += float64(t.FlushDiscards)
			c[cDvsFrames] += float64(d.WireFrames)
			c[cDvsPayloads] += float64(d.WirePayloads)
			v := h.VSStats()
			c[cVsViews] += float64(v.ViewsInstalled)
			c[cVsHeartbeats] += float64(v.Heartbeats)
			c[cVsRetransmits] += float64(v.Retransmits)
			c[cVsFrames] += float64(v.Submissions)
			c[cVsLatSamples] += float64(v.LatencySamples)
			c[cVsLatTotalNs] += float64(v.LatencyTotal)
		}
	}
	for _, n := range s.netStats() {
		c[cNetSent] += float64(n.Sent)
		c[cNetDropped] += float64(n.Dropped)
		c[cNetRecvDropped] += float64(n.RecvDropped)
		c[cNetRedials] += float64(n.Redials)
		c[cNetWriterFrames] += float64(n.WriterFrames)
		c[cNetWriterFlushes] += float64(n.WriterFlushes)
	}
	if s.multicast != nil {
		c[cMuxDropped] = float64(s.muxDropped())
		m := s.mcastStats()
		c[cMcSubmitted] = float64(m.Submitted)
		c[cMcControl] = float64(m.ControlSent)
		c[cMcDroppedSends] = float64(m.DroppedSends)
		c[cMcRejected] = float64(m.Rejected)
	}
	return c
}
