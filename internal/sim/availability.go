package sim

import (
	"fmt"
	"time"

	dvs "repro"
)

// AvailabilityConfig configures the churn availability experiment (E4): a
// group of Active processes with Spares standing by; every ChurnPeriod the
// oldest active member is retired and a spare takes its place. The question
// is for what fraction of samples an established primary covering only
// active members exists somewhere — the paper's motivating claim is that
// dynamic primaries track the drifting population while static majorities
// of the initial membership die once fewer than a majority of P0 remain.
type AvailabilityConfig struct {
	Active       int
	Spares       int
	Mode         dvs.Mode
	Replacements int           // how many churn steps to perform
	ChurnPeriod  time.Duration // time between replacements
	SamplePeriod time.Duration // availability sampling interval
	Seed         int64
	// Stream, when set, spills the run's protocol trace to the chunked
	// on-disk recorder instead of holding it in memory (dynamic mode only).
	Stream *dvs.TraceStream
}

func (c *AvailabilityConfig) fill() {
	if c.Active == 0 {
		c.Active = 6
	}
	if c.Mode == 0 {
		c.Mode = dvs.ModeDynamic
	}
	if c.Replacements == 0 {
		c.Replacements = c.Spares
	}
	if c.ChurnPeriod <= 0 {
		c.ChurnPeriod = 120 * time.Millisecond
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 10 * time.Millisecond
	}
}

// AvailabilityResult summarizes one availability run.
type AvailabilityResult struct {
	Mode           dvs.Mode
	Samples        int
	Available      int
	Replacements   int
	PrimariesSeen  int
	FinalAvailable bool // primary exists after the last replacement settles
	Run            RunStats
}

// Fraction is the availability fraction.
func (r AvailabilityResult) Fraction() float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Available) / float64(r.Samples)
}

// String renders one result row.
func (r AvailabilityResult) String() string {
	return fmt.Sprintf("mode=%-7s replacements=%-2d availability=%.2f final=%v primaries=%d",
		r.Mode, r.Replacements, r.Fraction(), r.FinalAvailable, r.PrimariesSeen)
}

// Availability runs the churn scenario and reports availability.
func Availability(cfg AvailabilityConfig) (AvailabilityResult, error) {
	cfg.fill()
	total := cfg.Active + cfg.Spares
	initial := make([]int, cfg.Active)
	active := make([]int, cfg.Active)
	for i := range initial {
		initial[i] = i
		active[i] = i
	}
	cl, err := dvs.NewCluster(dvs.Config{
		Processes: total,
		Initial:   initial,
		Mode:      cfg.Mode,
		Seed:      cfg.Seed,
		Stream:    cfg.Stream,
	})
	if err != nil {
		return AvailabilityResult{}, err
	}
	defer cl.Close()
	// Spares start isolated: each in its own component.
	cl.Partition(active)

	res := AvailabilityResult{Mode: cfg.Mode, Replacements: cfg.Replacements}
	primaries := make(map[dvs.ViewID]struct{})

	sample := func() {
		res.Samples++
		if available(cl, active, primaries) {
			res.Available++
		}
	}

	settle(2 * cfg.ChurnPeriod) // let the initial configuration stabilize
	nextSpare := cfg.Active
	for step := 0; step < cfg.Replacements; step++ {
		deadline := time.Now().Add(cfg.ChurnPeriod)
		for time.Now().Before(deadline) {
			sample()
			time.Sleep(cfg.SamplePeriod)
		}
		if nextSpare >= total {
			break
		}
		// Retire the oldest active member, admit the next spare.
		active = append(active[1:], nextSpare)
		nextSpare++
		cl.Partition(active)
	}
	deadline := time.Now().Add(2 * cfg.ChurnPeriod)
	for time.Now().Before(deadline) {
		sample()
		time.Sleep(cfg.SamplePeriod)
	}
	res.FinalAvailable = available(cl, active, primaries)
	res.PrimariesSeen = len(primaries)
	res.Run = captureRunStats(cl)
	return res, nil
}

// available reports whether some active process has an established primary
// consisting solely of active processes, and records the primaries seen.
func available(cl *dvs.Cluster, active []int, primaries map[dvs.ViewID]struct{}) bool {
	activeSet := make(map[int]bool, len(active))
	for _, i := range active {
		activeSet[i] = true
	}
	ok := false
	for _, i := range active {
		p := cl.Process(i)
		v, has := p.CurrentPrimary()
		if !has || !p.Established() {
			continue
		}
		inActive := true
		for m := v.Members.First(); m >= 0; m = v.Members.Next(m) {
			if !activeSet[int(m)] {
				inActive = false
				break
			}
		}
		if inActive {
			primaries[v.ID] = struct{}{}
			ok = true
		}
	}
	return ok
}
