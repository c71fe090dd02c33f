package conform

import (
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

func TestOnlineCheckerCleanRun(t *testing.T) {
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	// Window smaller than the run so the shadow cores age forward, Every
	// small so many samples fire.
	c := NewOnlineChecker(p, initial, true, true, true, OnlineConfig{Window: 8, Every: 4})
	driveScript(t, 20, c.ObserveDVS, c.ObserveTO, nil)

	st := c.Stats()
	if st.Steps == 0 || st.Checks == 0 {
		t.Fatalf("checker never ran: %+v", st)
	}
	if st.StepsChecked == 0 {
		t.Error("checks re-stepped no records")
	}
	if st.Divergences != 0 || st.Violations != 0 {
		t.Errorf("clean run flagged: %+v", st)
	}
	if st.LastError != "" {
		t.Errorf("clean run left an error: %s", st.LastError)
	}
}

func TestOnlineCheckerCatchesTampering(t *testing.T) {
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	c := NewOnlineChecker(p, initial, true, true, true, OnlineConfig{Window: 64, Every: 1})

	// Misreport the effects of one mid-run TO step: a corrupted shell (the
	// fault this checker exists to catch) would hand the observer an effect
	// list that does not match what the verified core derives.
	tampered := false
	skipped := 0
	obsTO := func(ev tocore.Event, fx []tocore.Effect) {
		if !tampered && len(fx) > 0 {
			if skipped < 2 { // let a couple of honest steps through first
				skipped++
			} else {
				tampered = true
				c.ObserveTO(ev, nil)
				return
			}
		}
		c.ObserveTO(ev, fx)
	}
	driveScript(t, 4, c.ObserveDVS, obsTO, nil)
	if !tampered {
		t.Fatal("script produced no TO step with effects to tamper")
	}

	st := c.Stats()
	if st.Divergences == 0 {
		t.Fatalf("tampered effect stream not flagged: %+v", st)
	}
	if st.LastError == "" {
		t.Error("divergence left no rendered error")
	}
}

func TestOnlineCheckerWindowBounded(t *testing.T) {
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	const window = 4
	c := NewOnlineChecker(p, initial, true, true, true, OnlineConfig{Window: window, Every: 1})
	driveScript(t, 30, c.ObserveDVS, c.ObserveTO, nil)

	c.mu.Lock()
	nDVS, nTO := c.winDVS.n, c.winTO.n
	c.mu.Unlock()
	if nDVS > window || nTO > window {
		t.Errorf("window grew past the bound: dvs=%d to=%d (window %d)", nDVS, nTO, window)
	}
	st := c.Stats()
	if st.Divergences != 0 || st.Violations != 0 {
		t.Errorf("aging the shadow cores corrupted the check: %+v", st)
	}
	// Every check re-steps at most 2*window records.
	if st.Checks > 0 && st.StepsChecked > st.Checks*uint64(2*window) {
		t.Errorf("checks re-stepped more than the window: %+v", st)
	}
}

func TestOnlineCheckerDVSObservation(t *testing.T) {
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	c := NewOnlineChecker(p, initial, true, true, true, OnlineConfig{Window: 16, Every: 1})

	// Tamper a DVS-layer record instead: both layers must be covered.
	tampered := false
	obsDVS := func(ev dvscore.Event, fx []dvscore.Effect) {
		if !tampered && len(fx) > 0 {
			tampered = true
			c.ObserveDVS(ev, nil)
			return
		}
		c.ObserveDVS(ev, fx)
	}
	driveScript(t, 3, obsDVS, c.ObserveTO, nil)
	if !tampered {
		t.Fatal("script produced no DVS step with effects to tamper")
	}
	if st := c.Stats(); st.Divergences == 0 {
		t.Fatalf("tampered DVS stream not flagged: %+v", st)
	}
}
