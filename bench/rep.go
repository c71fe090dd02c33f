package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	dvs "repro"
	"repro/internal/shard"
	"repro/internal/types"
)

// repSpec describes one repetition. It crosses the process boundary as the
// JSON value of the -child flag.
type repSpec struct {
	Workload string
	Seed     int64
	Traced   bool
	Warm     int    // warm-up submissions
	Measured int    // measured submissions
	Replay   bool   // replay the recorded trace of a recording workload after the run
	Spawned  int64  // parent's wall clock at spawn, unix ns; 0 when run in-process
	Out      string // file for the raw spans of a traced repetition, if any
}

// repResult is what one repetition measured.
type repResult struct {
	Attempted  int // submissions, warm-up included
	Failed     int
	Deliveries int // measured deliveries at process 0, all groups
	LatSamples uint64
	E2E        map[string]float64
	Layer      map[string]float64
	// Speed is how fast the machine ran around the repetition, as a share of
	// nominal: (probe reading / nominalSpeed) ^ speedExponent. The parent
	// fills it in from its speed probe.
	Speed float64
}

const (
	drainTimeout = 10 * time.Second
	payloadLen   = 32
	// keptSpans is the raw-span capacity per loop when -out asks for spans.
	keptSpans = 1 << 20
)

// errOrder marks a safety violation: processes of one group delivered
// different sequences. It is not a failed operation; the run aborts.
var errOrder = errors.New("delivery order mismatch")

// shape is what the seed decides about submission i.
type shape struct {
	multi  bool
	g0, g1 types.GroupID // destination groups of a multicast
	key    uint64
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func shapeOf(w *workload, seed int64, i int) shape {
	h := splitmix64(uint64(seed)<<32 ^ uint64(i))
	s := shape{key: (h >> 24) & (1<<20 - 1)}
	if w.groups > 1 && int(h%100) < w.crossPct {
		s.multi = true
		s.g0 = types.GroupID((h >> 8) % uint64(w.groups))
		s.g1 = types.GroupID((uint64(s.g0) + 1 + (h>>16)%uint64(w.groups-1)) % uint64(w.groups))
	}
	return s
}

func keyString(k uint64) string { return "k" + strconv.FormatUint(k, 36) }

// payloadOf is the zero-padded sequence number.
func payloadOf(i int) string {
	var b [payloadLen]byte
	for j := payloadLen - 1; j >= 0; j-- {
		b[j] = byte('0' + i%10)
		i /= 10
	}
	return string(b[:])
}

func seqOf(payload string) int {
	if len(payload) != payloadLen {
		return -1
	}
	n := 0
	for j := 0; j < payloadLen; j++ {
		c := payload[j]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// run is the shared state of one repetition's generator.
type run struct {
	w      *workload
	warm   int
	total  int
	base   time.Time
	traced bool

	submitNs []int64        // per submission: ns since base at the submit call
	left     []atomic.Int32 // per submission: deliveries still due at its origin
	tokens   chan struct{}  // one slot per outstanding origin delivery

	warmLeft, allLeft atomic.Int32
	warmDone, allDone chan struct{}
	stop              chan struct{}
}

func (r *run) now() int64 { return int64(time.Since(r.base)) }

// consumer folds one delivery stream. It owns only the channel (snapshotted
// before the goroutine starts) and plain counters read after it exits.
type consumer struct {
	proc, group         int
	ch                  <-chan dvs.Delivery
	expectWarm, expects int

	count   int
	bad     int // deliveries that are no submission of this run, or from the wrong origin
	hash    uint64
	doneAt  int64
	busyNs  int64
	latency hist
}

func (c *consumer) loop(r *run, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case d := <-c.ch:
			var t0 int64
			if r.traced {
				t0 = r.now()
			}
			c.consume(r, d)
			if r.traced {
				c.busyNs += r.now() - t0
			}
		}
	}
}

func (c *consumer) consume(r *run, d dvs.Delivery) {
	seq := seqOf(d.Payload)
	if seq < 0 || seq >= r.total || int(d.Origin) != seq%r.w.procs {
		c.bad++
		return
	}
	c.count++
	c.hash = (c.hash ^ uint64(seq<<3|int(d.Origin))) * 0x100000001b3
	if int(d.Origin) == c.proc {
		// This is the origin's own stream: the submitter sees its message
		// come back ordered, which frees a window slot and, once every
		// destination group has delivered it, ends its latency.
		now := r.now()
		select {
		case <-r.tokens:
		default:
			c.bad++ // a delivery no submission is waiting for
		}
		if r.left[seq].Add(-1) == 0 && seq >= r.warm {
			c.latency.add(now - r.submitNs[seq])
		}
	}
	if c.count == c.expectWarm {
		if r.warmLeft.Add(-1) == 0 {
			close(r.warmDone)
		}
	}
	if c.count == c.expects {
		c.doneAt = r.now()
		if r.allLeft.Add(-1) == 0 {
			close(r.allDone)
		}
	}
}

func waitFor(done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// sendStats is what the sender measured about itself over one phase.
type sendStats struct {
	refused   int
	blockedNs int64 // waiting for a window slot
	submitNs  int64 // inside Broadcast/Submit/SubmitMulti
	firstNs   int64 // first submit call
	lastNs    int64 // last submit call returned
}

// send submits [from, to) round-robin over the processes, one window slot
// per delivery due at the origin. It runs on the caller's goroutine.
func (r *run) send(s *sut, seed int64, from, to int) sendStats {
	var st sendStats
	for i := from; i < to; i++ {
		sh := shapeOf(r.w, seed, i)
		slots := 1
		if sh.multi {
			slots = 2
		}
		for k := 0; k < slots; k++ {
			select {
			case r.tokens <- struct{}{}:
			default:
				t := r.now()
				r.tokens <- struct{}{}
				st.blockedNs += r.now() - t
			}
		}
		r.left[i].Store(int32(slots))
		payload := payloadOf(i)
		p := i % r.w.procs
		t := r.now()
		r.submitNs[i] = t
		if i == from {
			st.firstNs = t
		}
		var ok bool
		if sh.multi {
			ok = s.multicast(p, []types.GroupID{sh.g0, sh.g1}, payload) == nil
		} else {
			ok = s.submit(p, keyString(sh.key), payload)
		}
		st.lastNs = r.now()
		st.submitNs += st.lastNs - t
		if !ok {
			st.refused++
			for k := 0; k < slots; k++ {
				<-r.tokens
			}
		}
	}
	return st
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// snapshot is the process- and system-wide state at one edge of the
// measured interval.
type snapshot struct {
	cpu, gcCPU float64
	mem        runtime.MemStats
	counters   counters
	spans      spanTotals
}

// takeSnapshot reads the CPU clock on the side of the snapshot that faces
// the measured interval, so the snapshot's own cost stays outside it.
func takeSnapshot(s *sut, closing bool) *snapshot {
	sn := &snapshot{}
	if closing {
		sn.cpu = cpuSeconds()
	}
	sn.counters = s.counters()
	if s.spans != nil {
		sn.spans = s.spans()
	}
	sn.gcCPU = gcCPUSeconds()
	runtime.ReadMemStats(&sn.mem)
	if !closing {
		sn.cpu = cpuSeconds()
	}
	return sn
}

func startSUT(w *workload, spec repSpec, dir string, base time.Time) (*sut, error) {
	if spec.Traced {
		keep := 0
		if spec.Out != "" {
			keep = keptSpans
		}
		switch w.kind {
		case sysTCP:
			return newTracedTCP(w, keep, base)
		case sysSharded:
			return newTracedSharded(w, spec.Seed, keep, base)
		default:
			return newTracedCluster(w, spec.Seed, dir, keep, base)
		}
	}
	switch w.kind {
	case sysTCP:
		return newTCPSUT(w)
	case sysSharded:
		return newShardedSUT(w, spec.Seed)
	default:
		return newClusterSUT(w, spec.Seed, dir)
	}
}

// scratchDir makes a fresh directory under the working directory for a
// recorded trace. Nothing is written outside the checkout.
func scratchDir() (string, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "rep-")
}

// expectations is what the seed says each group's streams must deliver.
type expectations struct {
	warm, all []int // deliveries per group: of the warm-up, of the whole run
	multis    int   // measured multicasts
	ring      *shard.Ring
}

func expect(w *workload, seed int64, warm, total int) expectations {
	e := expectations{
		warm: make([]int, w.groups), all: make([]int, w.groups),
		ring: shard.NewRing(types.RangeGroups(w.groups), 0),
	}
	for i := 0; i < total; i++ {
		sh := shapeOf(w, seed, i)
		dests := []types.GroupID{sh.g0, sh.g1}
		if !sh.multi {
			dests = []types.GroupID{e.ring.Group(keyString(sh.key))}
		} else if i >= warm {
			e.multis++
		}
		for _, g := range dests {
			e.all[g]++
			if i < warm {
				e.warm[g]++
			}
		}
	}
	return e
}

// measured is the number of measured deliveries at one process over all
// groups: the "message" every per-message metric divides by.
func (e expectations) measured() int {
	n := 0
	for g := range e.all {
		n += e.all[g] - e.warm[g]
	}
	return n
}

// runRep runs one repetition in this process.
func runRep(spec repSpec) (*repResult, error) {
	start := time.Now()
	if spec.Spawned > 0 {
		start = time.Unix(0, spec.Spawned)
	}
	w := findWorkload(spec.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	dir := ""
	if w.record {
		var err error
		if dir, err = scratchDir(); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	r := &run{
		w: w, warm: spec.Warm, total: spec.Warm + spec.Measured,
		base: time.Now(), traced: spec.Traced,
		tokens:   make(chan struct{}, w.window),
		warmDone: make(chan struct{}), allDone: make(chan struct{}), stop: make(chan struct{}),
	}
	r.submitNs = make([]int64, r.total)
	r.left = make([]atomic.Int32, r.total)
	exp := expect(w, spec.Seed, r.warm, r.total)

	s, err := startSUT(w, spec, filepath.Join(dir, "trace"), r.base)
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", w.name, err)
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()

	// Channels are snapshotted here, before any consumer goroutine exists,
	// so the goroutines never reach into the stack handles.
	var cons []*consumer
	for p, row := range s.handles {
		for g, h := range row {
			c := &consumer{proc: p, group: g, ch: h.Deliveries(), expectWarm: exp.warm[g], expects: exp.all[g]}
			cons = append(cons, c)
			if c.expectWarm > 0 {
				r.warmLeft.Add(1)
			}
			if c.expects > 0 {
				r.allLeft.Add(1)
			}
		}
	}
	var wg sync.WaitGroup
	for _, c := range cons {
		wg.Add(1)
		go c.loop(r, &wg)
	}
	stopConsumers := func() {
		close(r.stop)
		wg.Wait()
	}

	// Warm-up: construction, first primary, connections, queues and caches.
	warmStats := r.send(s, spec.Seed, 0, r.warm)
	if r.warm > 0 && !waitFor(r.warmDone, drainTimeout) {
		stopConsumers()
		return nil, fmt.Errorf("%s: warm-up not delivered everywhere within %v", w.name, drainTimeout)
	}
	setup := time.Since(start)

	before := takeSnapshot(s, false)
	st := r.send(s, spec.Seed, r.warm, r.total)
	drained := waitFor(r.allDone, drainTimeout)
	after := takeSnapshot(s, true)
	endNs := r.now()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	netErr := checkNet(s)
	stopConsumers()

	// Outputs: every stream complete, equal within its group, nothing extra.
	undelivered, err := checkStreams(cons)
	if err == nil {
		err = netErr
	}
	if err == nil && s.multicast != nil {
		err = checkMulticasts(s, w, spec.Seed, r.total)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if drained {
		endNs = 0
		for _, c := range cons {
			if c.doneAt > endNs {
				endNs = c.doneAt
			}
		}
	} else if undelivered == 0 {
		undelivered = 1
	}
	res := &repResult{Attempted: r.total, Deliveries: exp.measured(), E2E: map[string]float64{}, Layer: map[string]float64{}}
	views := after.counters[cVsViews]
	res.Failed = warmStats.refused + st.refused + undelivered
	if views != float64(w.procs*w.groups) {
		// A view change mid-run means the repetition measured recovery, not
		// steady state: none of its operations count.
		res.Failed = res.Attempted
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d submissions refused, %d not delivered everywhere within %v, %v views installed (want %d)\n",
			w.name, warmStats.refused+st.refused, undelivered, drainTimeout, views, w.procs*w.groups)
	}

	stopped = true
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("%s: stopping: %w", w.name, err)
	}
	replayS := 0.0
	if s.traceDir != "" && spec.Replay {
		t0 := time.Now()
		rep, err := dvs.ReplayTraceStream(s.traceDir)
		replayS = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: replaying the recorded trace: %w", w.name, err)
		}
		if err := checkReplay(rep); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if spec.Out != "" && len(s.loops) > 0 {
		if err := writeSpans(spec.Out, s.loops); err != nil {
			return nil, err
		}
	}

	m := float64(res.Deliveries)
	interval := float64(endNs-st.firstNs) / 1e9
	var lat hist
	for _, c := range cons {
		lat.merge(&c.latency)
	}
	res.LatSamples = lat.n
	cpu := after.cpu - before.cpu
	res.E2E["throughput_msgs_s"] = m / interval
	res.E2E["lat_p50_ms"] = lat.quantile(0.50) / 1e6
	res.E2E["lat_p99_ms"] = lat.quantile(0.99) / 1e6
	res.E2E["cpu_us_per_msg"] = cpu * 1e6 / m
	res.E2E["alloc_bytes_per_msg"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / m
	res.E2E["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	res.E2E["setup_s"] = setup.Seconds()

	d := after.counters.minus(before.counters)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	L := res.Layer
	L["tob.payloads_per_batch"] = ratio(d[cTobPayloads], d[cTobBatches])
	L["tob.dropped_up"] = d[cTobDroppedUp]
	L["tob.flush_discards"] = d[cTobFlushDiscards]
	L["dvsg.payloads_per_frame"] = ratio(d[cDvsPayloads], d[cDvsFrames])
	L["vsg.frames_per_msg"] = d[cVsFrames] / m
	L["vsg.retransmits_per_kmsg"] = d[cVsRetransmits] / m * 1000
	L["vsg.heartbeats_per_s"] = d[cVsHeartbeats] / interval
	L["vsg.order_latency_us"] = ratio(d[cVsLatTotalNs], d[cVsLatSamples]) / 1e3
	L["vsg.views_installed"] = views
	L["net.sends_per_msg"] = d[cNetSent] / m
	L["net.tcp.frames_per_flush"] = ratio(d[cNetWriterFrames], d[cNetWriterFlushes])
	L["net.tcp.redials"] = d[cNetRedials]
	L["net.dropped"] = d[cNetDropped]
	L["net.recv_dropped"] = d[cNetRecvDropped]
	L["net.groupmux.dropped"] = d[cMuxDropped]
	L["mcast.control_per_multi"] = ratio(d[cMcControl], d[cMcSubmitted])
	L["mcast.dropped_sends"] = d[cMcDroppedSends]
	L["mcast.rejected"] = d[cMcRejected]
	L["conform.trace_bytes_per_msg"] = 0
	if s.traceDir != "" {
		L["conform.trace_bytes_per_msg"] = float64(dirSize(s.traceDir)) / float64(r.total)
	}
	L["conform.replay_s"] = replayS
	L["runtime.allocs_per_msg"] = float64(after.mem.Mallocs-before.mem.Mallocs) / m
	L["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, cpu)
	L["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	L["harness.submit_wait_us_per_msg"] = float64(st.submitNs) / 1e3 / float64(spec.Measured)
	L["harness.sender_blocked_share"] = ratio(float64(st.blockedNs), float64(st.lastNs-st.firstNs))

	// Span-derived metrics: zero unless the repetition was traced.
	sp := after.spans.minus(before.spans)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	L["tob.submit_us_per_msg"] = us(sp[spTobSubmit].self) / m
	L["tob.up_self_us_per_msg"] = us(sp[spTobUp].self) / m
	L["dvsg.up_self_us_per_msg"] = us(sp[spDvsgUp].self) / m
	L["net.send_us_per_msg"] = us(sp[spNetSend].total) / m
	L["net.groupmux.send_self_us_per_msg"] = us(sp[spMuxSend].self) / m
	L["mcast.hook_self_us_per_delivery"] = ratio(us(sp[spMcastHook].self), float64(sp[spMcastHook].count))
	L["mcast.submit_us_per_multi"] = ratio(us(sp[spMcastSubmit].total), float64(exp.multis))
	L["conform.observe_us_per_msg"] = us(sp[spObserve].total) / m
	L["conform.steps_per_msg"] = float64(sp[spObserve].count) / m
	L["vsg.rest_us_per_msg"] = 0
	L["shard.ring_lookup_ns"] = 0
	if spec.Traced {
		var busy int64
		for _, c := range cons {
			busy += c.busyNs
		}
		// The harness's own work: the consumers' time per delivery, and the
		// sender's submit phase minus the time it was parked waiting for a
		// slot and minus the spans it recorded, which selfSum counts.
		harness := busy + (st.lastNs - st.firstNs) - st.blockedNs - sp[spMcastSubmit].total
		L["vsg.rest_us_per_msg"] = res.E2E["cpu_us_per_msg"] - us(sp.selfSum()+harness)/m
		if w.groups > 1 {
			L["shard.ring_lookup_ns"] = ringLookupNs(exp.ring, w, spec.Seed)
		}
	}
	return res, nil
}

// checkStreams verifies the consumers' tallies: nothing unknown, nothing
// delivered twice, and every stream that is as long as process 0's stream of
// the same group folded to the same hash. It returns how many messages the
// shortest stream is missing.
func checkStreams(cons []*consumer) (undelivered int, err error) {
	for _, c := range cons {
		if c.bad > 0 || c.count > c.expects {
			return 0, fmt.Errorf("process %d group %d delivered %d unknown and %d of %d expected messages",
				c.proc, c.group, c.bad, c.count, c.expects)
		}
		if miss := c.expects - c.count; miss > undelivered {
			undelivered = miss
		}
		// cons is ordered by process, then group: cons[g] is process 0's
		// stream of group g.
		if ref := cons[c.group]; c.count == ref.count && c.hash != ref.hash {
			return 0, fmt.Errorf("process %d group %d: %w", c.proc, c.group, errOrder)
		}
	}
	return undelivered, nil
}

func checkNet(s *sut) error {
	for _, n := range s.netStats() {
		if err := n.CheckInvariant(); err != nil {
			return err
		}
	}
	return nil
}

func checkReplay(rep *dvs.StreamConformanceReport) error {
	if !rep.Sealed || rep.Truncated != "" {
		return fmt.Errorf("recorded trace is not sealed: %s", rep)
	}
	if err := rep.Err(); err != nil {
		return fmt.Errorf("recorded trace does not replay clean: %w", err)
	}
	return nil
}

// checkMulticasts verifies, from the coordinators' delivery histories, that
// every multicast was delivered exactly once in both destination groups,
// that all processes agree on each group's history, and that any two groups
// order the multicasts they share the same way.
func checkMulticasts(s *sut, w *workload, seed int64, total int) error {
	want := make([]map[int]bool, w.groups)
	for g := range want {
		want[g] = map[int]bool{}
	}
	for i := 0; i < total; i++ {
		if sh := shapeOf(w, seed, i); sh.multi {
			want[sh.g0][i] = true
			want[sh.g1][i] = true
		}
	}
	hist := make([][]dvs.McastDelivery, w.groups)
	for g := range hist {
		gid := types.GroupID(g)
		hist[g] = s.mcastDelivered(0, gid)
		if len(hist[g]) != len(want[g]) {
			return fmt.Errorf("group %d delivered %d multicasts, want %d", g, len(hist[g]), len(want[g]))
		}
		for _, d := range hist[g] {
			seq := seqOf(d.Payload)
			if !want[g][seq] {
				return fmt.Errorf("group %d delivered multicast %q twice or unasked", g, d.Payload)
			}
			delete(want[g], seq)
		}
		for p := 1; p < w.procs; p++ {
			other := s.mcastDelivered(p, gid)
			if len(other) != len(hist[g]) {
				return fmt.Errorf("process %d group %d delivered %d multicasts, process 0 delivered %d", p, g, len(other), len(hist[g]))
			}
			for k := range other {
				if other[k] != hist[g][k] {
					return fmt.Errorf("process %d group %d multicast %d: %w", p, g, k, errOrder)
				}
			}
		}
	}
	for g := range hist {
		pos := make(map[string]int, len(hist[g]))
		for k, d := range hist[g] {
			pos[d.ID] = k
		}
		for h := g + 1; h < len(hist); h++ {
			last := -1
			for _, d := range hist[h] {
				if p, ok := pos[d.ID]; ok {
					if p < last {
						return fmt.Errorf("groups %d and %d order multicast %s differently: %w", g, h, d.ID, errOrder)
					}
					last = p
				}
			}
		}
	}
	return nil
}

var ringSink types.GroupID

// ringLookupNs times shard.Ring.Group on the run's own keys.
func ringLookupNs(ring *shard.Ring, w *workload, seed int64) float64 {
	const n = 4096
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyString(shapeOf(w, seed, i).key)
	}
	t0 := time.Now()
	for _, k := range keys {
		ringSink += ring.Group(k)
	}
	return float64(time.Since(t0)) / n
}

func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}
