package tocore

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/to"
	"repro/internal/types"
)

func TestBigSoakTO(t *testing.T) {
	for _, cfg := range []Config{{DVS: DVSLiteral}, {DVS: DVSAmendedDrained}} {
		for _, n := range []int{3, 4, 5} {
			universe := types.RangeProcSet(n)
			v0 := types.InitialView(types.NewProcSet(0, 1, types.ProcID(n-1)))
			for seed := int64(0); seed < 30; seed++ {
				impl := NewImpl(universe, v0, cfg)
				mon := to.NewMonitor(universe)
				c := ioa.CheckerConfig{Steps: 500, Seed: seed, ImplInvariants: Invariants()}
				if _, err := ioa.CheckTraceInclusion(impl, mon, NewEnv(seed+1, universe), c); err != nil {
					t.Fatalf("cfg=%+v n=%d seed=%d: %v", cfg, n, seed, err)
				}
			}
		}
	}
}
