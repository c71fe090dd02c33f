package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	dvs "repro"
)

// CascadeConfig configures the partition-cascade experiment (E5): a random
// sequence of partitions and merges, recording every primary view observed
// anywhere and checking the intersection chain at the end.
type CascadeConfig struct {
	Processes   int
	Mode        dvs.Mode
	Rounds      int
	RoundPeriod time.Duration
	Seed        int64
	Stream      *dvs.TraceStream // stream the trace to disk (dynamic mode only)
}

func (c *CascadeConfig) fill() {
	if c.Processes == 0 {
		c.Processes = 6
	}
	if c.Mode == 0 {
		c.Mode = dvs.ModeDynamic
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.RoundPeriod <= 0 {
		c.RoundPeriod = 150 * time.Millisecond
	}
}

// CascadeResult summarizes a partition cascade.
type CascadeResult struct {
	Rounds    int
	Primaries []dvs.View // unique primaries, in id order
	ChainOK   bool
	Run       RunStats
}

// String renders one result row.
func (r CascadeResult) String() string {
	return fmt.Sprintf("rounds=%-2d primaries=%-2d chain-intersection=%v", r.Rounds, len(r.Primaries), r.ChainOK)
}

// PartitionCascade runs the scenario.
func PartitionCascade(cfg CascadeConfig) (CascadeResult, error) {
	cfg.fill()
	cl, err := dvs.NewCluster(dvs.Config{Processes: cfg.Processes, Mode: cfg.Mode, Seed: cfg.Seed, Stream: cfg.Stream})
	if err != nil {
		return CascadeResult{}, err
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var events []dvs.ViewEvent
	harvest := func() {
		for _, p := range cl.Processes() {
			DrainViews(p, &events)
		}
	}

	for round := 0; round < cfg.Rounds; round++ {
		if rng.Intn(3) == 0 {
			cl.Heal()
		} else {
			// Split off a strict minority so the majority side can keep
			// satisfying the dynamic intersection condition; a 50/50 split
			// correctly yields no primary on either side.
			k := 1 + rng.Intn((cfg.Processes-1)/2)
			perm := rng.Perm(cfg.Processes)
			minority := perm[:k]
			majority := perm[k:]
			cl.Partition(majority, minority)
		}
		settle(cfg.RoundPeriod)
		harvest()
	}
	cl.Heal()
	settle(2 * cfg.RoundPeriod)
	harvest()

	seen := make(map[dvs.ViewID]dvs.View)
	for _, e := range events {
		seen[e.View.ID] = e.View
	}
	res := CascadeResult{Rounds: cfg.Rounds}
	for _, v := range seen {
		res.Primaries = append(res.Primaries, v)
	}
	err = CheckPrimaryChain(res.Primaries)
	res.ChainOK = err == nil
	sortViews(res.Primaries)
	res.Run = captureRunStats(cl)
	return res, err
}

func sortViews(vs []dvs.View) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].ID.Less(vs[j-1].ID); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// ThroughputConfig configures the steady-state throughput experiment (E8a).
type ThroughputConfig struct {
	Processes int
	Senders   int
	Duration  time.Duration
	Seed      int64
	Stream    *dvs.TraceStream // stream the trace to disk
	Online    bool             // run the in-process checker (E13)
}

func (c *ThroughputConfig) fill() {
	if c.Processes == 0 {
		c.Processes = 5
	}
	if c.Senders == 0 {
		c.Senders = c.Processes
	}
	if c.Duration <= 0 {
		c.Duration = 500 * time.Millisecond
	}
}

// ThroughputResult summarizes a throughput run.
type ThroughputResult struct {
	Processes  int
	Senders    int
	Broadcast  int
	Delivered  int // deliveries observed at process 0
	Elapsed    time.Duration
	Consistent bool
	Run        RunStats
	Check      dvs.OnlineCheckStats // summed checker counters (Config.Online)
}

// PerSecond is the delivery rate observed at one process.
func (r ThroughputResult) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Delivered) / r.Elapsed.Seconds()
}

// String renders one result row.
func (r ThroughputResult) String() string {
	return fmt.Sprintf("n=%-2d senders=%-2d delivered=%-6d rate=%.0f msg/s consistent=%v",
		r.Processes, r.Senders, r.Delivered, r.PerSecond(), r.Consistent)
}

// Throughput pumps broadcasts through a stable view and measures the
// totally-ordered delivery rate, verifying cross-process consistency.
func Throughput(cfg ThroughputConfig) (ThroughputResult, error) {
	cfg.fill()
	cl, err := dvs.NewCluster(dvs.Config{Processes: cfg.Processes, Seed: cfg.Seed, Stream: cfg.Stream, Online: cfg.Online})
	if err != nil {
		return ThroughputResult{}, err
	}
	defer cl.Close()
	settle(50 * time.Millisecond)

	res := ThroughputResult{Processes: cfg.Processes, Senders: cfg.Senders}
	delivered := make([][]dvs.Delivery, cfg.Processes)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	const window = 256 // outstanding broadcasts before the pump backs off
	i := 0
	for time.Now().Before(deadline) {
		for j := 0; j < cfg.Processes; j++ {
			Drain(cl.Process(j), &delivered[j])
		}
		if res.Broadcast-len(delivered[0]) >= window {
			time.Sleep(time.Millisecond)
			continue
		}
		p := cl.Process(i % cfg.Senders)
		if p.Broadcast("m" + strconv.Itoa(i)) {
			res.Broadcast++
		}
		i++
	}
	// Allow in-flight messages to finish.
	flushDeadline := time.Now().Add(time.Second)
	for time.Now().Before(flushDeadline) {
		for j := 0; j < cfg.Processes; j++ {
			Drain(cl.Process(j), &delivered[j])
		}
		if len(delivered[0]) >= res.Broadcast {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Elapsed = time.Since(start)
	res.Delivered = len(delivered[0])
	res.Consistent = CheckDeliverySequences(delivered) == nil
	res.Run = captureRunStats(cl)
	// The checkers replay the tail of the run when the cluster closes, so the
	// counters are only complete after it (Close is idempotent under the defer).
	cl.Close()
	for _, p := range cl.Processes() {
		res.Check.Add(p.CheckStats())
	}
	return res, nil
}

// RecoveryConfig configures the heal-recovery experiment (E8b).
type RecoveryConfig struct {
	Processes int
	Seed      int64
	Timeout   time.Duration
	Stream    *dvs.TraceStream // stream the trace to disk

	// History is the number of messages ordered and delivered everywhere
	// before the partition: the state exchange of every later view carries
	// them, so recovery time grows with it.
	History int
}

// RecoveryResult summarizes a recovery run.
type RecoveryResult struct {
	Processes      int
	TimeToPrimary  time.Duration // heal -> every process established a full-group primary
	TimeToMessage  time.Duration // heal -> first post-heal broadcast delivered everywhere
	ExtraMessages  uint64        // fabric messages consumed by the recovery
	RecoveredOK    bool
	ConsistencyErr string
	Run            RunStats
}

// String renders one result row.
func (r RecoveryResult) String() string {
	return fmt.Sprintf("n=%-2d t(primary)=%-12v t(message)=%-12v msgs=%-5d ok=%v",
		r.Processes, r.TimeToPrimary, r.TimeToMessage, r.ExtraMessages, r.RecoveredOK)
}

// Recovery partitions a stable cluster, lets both sides settle, heals, and
// measures how long the stack takes to form and establish the merged
// primary and to deliver the first post-heal message to every process.
func Recovery(cfg RecoveryConfig) (RecoveryResult, error) {
	if cfg.Processes == 0 {
		cfg.Processes = 5
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	cl, err := dvs.NewCluster(dvs.Config{Processes: cfg.Processes, Seed: cfg.Seed, Stream: cfg.Stream})
	if err != nil {
		return RecoveryResult{}, err
	}
	defer cl.Close()
	settle(50 * time.Millisecond)

	delivered := make([][]dvs.Delivery, cfg.Processes)
	if err := preload(cl, cfg.History, delivered, cfg.Timeout); err != nil {
		return RecoveryResult{}, err
	}

	maj := make([]int, 0, cfg.Processes/2+1)
	min := make([]int, 0)
	for i := 0; i < cfg.Processes; i++ {
		if i <= cfg.Processes/2 {
			maj = append(maj, i)
		} else {
			min = append(min, i)
		}
	}
	cl.Partition(maj, min)
	settle(150 * time.Millisecond)
	if cfg.History > 0 {
		// The majority side's own state exchange outlasts the fixed settle,
		// and a heal in the middle of it would time two view changes.
		for until := time.Now().Add(cfg.Timeout); !allEstablished(cl, maj) && time.Now().Before(until); {
			time.Sleep(2 * time.Millisecond)
		}
	}
	cl.Process(maj[0]).Broadcast("pre-heal")
	settle(100 * time.Millisecond)

	res := RecoveryResult{Processes: cfg.Processes}
	before := cl.NetStats()
	healAt := time.Now()
	cl.Heal()

	deadline := healAt.Add(cfg.Timeout)
	everyone := append(maj, min...)
	for time.Now().Before(deadline) {
		if allEstablished(cl, everyone) {
			res.TimeToPrimary = time.Since(healAt)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.TimeToPrimary == 0 {
		return res, fmt.Errorf("recovery: no merged primary within %v", cfg.Timeout)
	}

	cl.Process(min[0]).Broadcast("post-heal")
	for time.Now().Before(deadline) {
		all := true
		for j := 0; j < cfg.Processes; j++ {
			Drain(cl.Process(j), &delivered[j])
			found := false
			for _, d := range delivered[j] {
				if d.Payload == "post-heal" {
					found = true
					break
				}
			}
			if !found {
				all = false
			}
		}
		if all {
			res.TimeToMessage = time.Since(healAt)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.TimeToMessage == 0 {
		return res, fmt.Errorf("recovery: post-heal message not delivered within %v", cfg.Timeout)
	}
	res.ExtraMessages = cl.NetStats().Delivered - before.Delivered
	res.Run = captureRunStats(cl)
	if err := CheckDeliverySequences(delivered); err != nil {
		res.ConsistencyErr = err.Error()
		return res, err
	}
	res.RecoveredOK = true
	return res, nil
}

// preload broadcasts n messages round-robin under a window and returns once
// every process has delivered all of them into delivered.
func preload(cl *dvs.Cluster, n int, delivered [][]dvs.Delivery, timeout time.Duration) error {
	const window = 256
	deadline := time.Now().Add(timeout)
	for sent := 0; ; {
		least := n
		for j := range delivered {
			Drain(cl.Process(j), &delivered[j])
			least = min(least, len(delivered[j]))
		}
		switch {
		case least >= n:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("recovery: %d of %d history messages delivered everywhere within %v", least, n, timeout)
		case sent < n && sent-least < window:
			if cl.Process(sent % len(delivered)).Broadcast("h" + strconv.Itoa(sent)) {
				sent++
			}
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// allEstablished reports whether every process in group has established a
// primary view of exactly the group's size.
func allEstablished(cl *dvs.Cluster, group []int) bool {
	for _, i := range group {
		p := cl.Process(i)
		v, ok := p.CurrentPrimary()
		if !ok || v.Members.Len() != len(group) || !p.Established() {
			return false
		}
	}
	return true
}

// AblationConfig configures the registration ablation (E6).
type AblationConfig struct {
	Processes   int
	Rounds      int
	RoundPeriod time.Duration
	DisableReg  bool
	Seed        int64
	Stream      *dvs.TraceStream // stream the trace to disk
}

// AblationResult summarizes the registration ablation.
type AblationResult struct {
	DisabledRegistration bool
	MaxAmbiguous         int
	GCs                  uint64
	Primaries            uint64
	Run                  RunStats
}

// String renders one result row.
func (r AblationResult) String() string {
	return fmt.Sprintf("registration=%-5v maxAmb=%-3d gcs=%-4d primaries=%d",
		!r.DisabledRegistration, r.MaxAmbiguous, r.GCs, r.Primaries)
}

// RegisterAblation alternates partitions to force repeated primary changes
// and reports how large the ambiguous-view sets grow with and without the
// paper's REGISTER mechanism.
func RegisterAblation(cfg AblationConfig) (AblationResult, error) {
	if cfg.Processes == 0 {
		cfg.Processes = 6
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 6
	}
	if cfg.RoundPeriod <= 0 {
		cfg.RoundPeriod = 150 * time.Millisecond
	}
	cl, err := dvs.NewCluster(dvs.Config{
		Processes:           cfg.Processes,
		Seed:                cfg.Seed,
		DisableRegistration: cfg.DisableReg,
		Stream:              cfg.Stream,
	})
	if err != nil {
		return AblationResult{}, err
	}
	defer cl.Close()
	settle(50 * time.Millisecond)

	res := AblationResult{DisabledRegistration: cfg.DisableReg}
	for round := 0; round < cfg.Rounds; round++ {
		// Alternate: drop one member, then re-admit it.
		out := round % cfg.Processes
		var in []int
		for i := 0; i < cfg.Processes; i++ {
			if i != out {
				in = append(in, i)
			}
		}
		cl.Partition(in)
		settle(cfg.RoundPeriod)
		cl.Heal()
		settle(cfg.RoundPeriod)
		for i := 0; i < cfg.Processes; i++ {
			if amb := cl.Process(i).AmbiguousViews(); amb > res.MaxAmbiguous {
				res.MaxAmbiguous = amb
			}
		}
	}
	for i := 0; i < cfg.Processes; i++ {
		_, ds := cl.Process(i).Stats()
		res.GCs += ds.GCs
		res.Primaries += ds.Primaries
		if ds.MaxAmb > res.MaxAmbiguous {
			res.MaxAmbiguous = ds.MaxAmb
		}
	}
	res.Run = captureRunStats(cl)
	return res, nil
}
