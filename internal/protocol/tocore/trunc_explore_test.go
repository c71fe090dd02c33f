package tocore

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	"repro/internal/spec/to"
	"repro/internal/types"
)

// awayEnv scripts the scenario truncation has to survive and leaves every
// interleaving inside it to the exploration. The initial view is the
// universe: p0 broadcasts early messages there, and the processes confirm
// and truncate them at their own paces. Once every message sent has been
// received — safe indications may be outstanding anywhere, so bases differ
// — the view small, which excludes a process, is created: in its exchange a
// lagging member meets a truncated one, either of which may be the
// representative. p0 broadcasts the rest of its two messages there, pinned.
// With rejoin the universe comes back once small's members have nothing left
// to do, the excluded process having taken any prefix of the safe
// indications it was owed: its base, anywhere from 0 up, meets
// representatives that dropped everything stable, and it learns the pinned
// label from their content.
type awayEnv struct {
	small  types.ProcSet
	early  int
	rejoin bool
}

func (e awayEnv) Inputs(a ioa.Automaton) []ioa.Action {
	im := a.(*Impl)
	sent, bcast := countClientCommands(im), []ioa.Action{{Name: to.ActBCast, Kind: ioa.KindInput, Param: to.BCastParam{A: "a", P: 0}}}
	switch created := im.DVS().CreatedCount(); {
	case created == 1 && sent < e.early:
		return bcast
	case created == 1 && onlySafes(im, types.NewProcSet()):
		return createView(im, e.small)
	case created == 2 && sent < 2:
		if im.nodes[0].established[im.DVS().MaxCreatedID()] {
			return bcast
		}
	case created == 2 && e.rejoin && onlySafes(im, e.small):
		return createView(im, im.universe)
	}
	return nil
}

// onlySafes reports whether nothing is enabled but safe indications, and
// none of those to a member of done.
func onlySafes(im *Impl, done types.ProcSet) bool {
	for _, act := range im.Enabled() {
		if p, ok := act.Param.(dvs.RcvParam); act.Name != dvs.ActSafe || !ok || done.Contains(p.To) {
			return false
		}
	}
	return true
}

func createView(im *Impl, members types.ProcSet) []ioa.Action {
	v := types.View{ID: im.DVS().MaxCreatedID().Next(members.First()), Members: members}
	if !im.DVS().CreateViewCandidateOK(v) {
		return nil
	}
	return []ioa.Action{{Name: dvs.ActCreateView, Kind: ioa.KindInternal, Param: dvs.CreateViewParam{View: v}}}
}

// runToCompletion is the runtime's schedule, as exploreTO's after-hook: the
// node an input has just reached fires its enabled locally-controlled
// actions at once, in Step's drain order, and what it sends and registers
// goes to the DVS automaton. The DVS-level interleaving stays free. It is
// what makes three processes and two view changes explorable, at the price
// of the schedules in which a process dawdles over its own enabled actions.
func runToCompletion(im *Impl, act ioa.Action) error {
	var p types.ProcID
	switch param := act.Param.(type) {
	case to.BCastParam:
		p = param.P
	case dvs.NewViewParam:
		p = param.P
	case dvs.RcvParam:
		p = param.To
	default:
		return nil
	}
	n, out := im.nodes[p], Outbox{}
	_ = im.recordDrops(n, func() error { drain(n, true, &out); return nil })
	for _, fx := range out.Effects {
		var err error
		switch fx.Kind {
		case FxSend:
			err = im.dvs.Perform(ioa.Action{Name: dvs.ActGpSnd, Kind: ioa.KindInternal, Param: dvs.SndParam{M: fx.M, P: p}})
		case FxRegister:
			err = im.dvs.Perform(ioa.Action{Name: dvs.ActRegister, Kind: ioa.KindInternal, Param: dvs.RegisterParam{P: p}})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// exploreTO visits every state of im reachable under env, depth first with
// a set of fingerprints for memory (ioa.Explore keeps a level of whole
// states: 560 MB for the largest space here), and checks Invariants at each.
// after, if not nil, runs after every action: a schedule, or the seam for a
// seeded bad edit.
func exploreTO(im *Impl, env ioa.Environment, after func(*Impl, ioa.Action) error) (states, edges int, err error) {
	seen, invs := map[ioa.Fp]struct{}{ioa.FpOf(im): {}}, Invariants()
	for stack := []*Impl{im}; len(stack) > 0; {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		states++
		for _, inv := range invs {
			if err := inv.Check(cur); err != nil {
				return states, edges, err
			}
		}
		for _, act := range append(cur.Enabled(), env.Inputs(cur)...) {
			next := cur.Clone().(*Impl)
			if err := next.Perform(act); err != nil {
				return states, edges, err
			}
			if after != nil {
				if err := after(next, act); err != nil {
					return states, edges, err
				}
			}
			edges++
			if fp := ioa.FpOf(next); !seenAdd(seen, fp) {
				stack = append(stack, next)
			}
		}
	}
	return states, edges, nil
}

func seenAdd(seen map[ioa.Fp]struct{}, fp ioa.Fp) (had bool) {
	_, had = seen[fp]
	seen[fp] = struct{}{}
	return had
}

// TestTruncationExplored is the proof obligation of truncation, discharged
// by exhaustion: Invariants 6.1–6.3 and confirmed-prefix agreement over
// base ⧺ suffix and the truncation invariant hold at every state of awayEnv's
// scenario, with the nodes truncating and every DVS-level interleaving free.
// On two processes every schedule of the locally-controlled actions is
// explored too. On three they run to completion (runToCompletion; the
// random executions of Theorem 6.4 cover the schedules that dawdle): under
// the literal DVS specification through the whole scenario; under the
// amended, drained one — where a safe indication can overtake a client's
// delivery, the case the rule's "or will hold before its next dvs-newview"
// is about — as far as the excluding view, one exchange among three members
// being 101,850 states there on its own.
func TestTruncationExplored(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n             int
		dvs           DVSVariant
		env           awayEnv
		states, edges int
	}{
		{"literal/n=2", 2, DVSLiteral, awayEnv{small: types.NewProcSet(0), early: 1, rejoin: true}, 8799, 25026},
		{"drained/n=2", 2, DVSAmendedDrained, awayEnv{small: types.NewProcSet(0), early: 1, rejoin: true}, 28433, 87286},
		{"literal/n=3", 3, DVSLiteral, awayEnv{small: types.NewProcSet(0, 1), early: 1, rejoin: true}, 56097, 191666},
		{"drained/n=3", 3, DVSAmendedDrained, awayEnv{small: types.NewProcSet(0, 1), early: 2}, 11871, 43688},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.states > 30000 {
				t.Skip("larger exploration")
			}
			universe := types.RangeProcSet(tc.n)
			var schedule func(*Impl, ioa.Action) error
			if tc.n > 2 {
				schedule = runToCompletion
			}
			im := NewImpl(universe, types.InitialView(universe), Config{DVS: tc.dvs, Universe: true})
			states, edges, err := exploreTO(im, tc.env, schedule)
			if err != nil {
				t.Fatalf("after %d states / %d edges: %v", states, edges, err)
			}
			if states != tc.states || edges != tc.edges {
				t.Errorf("%d states / %d edges, pinned %d / %d", states, edges, tc.states, tc.edges)
			}
		})
	}
}

// TestTruncationBadEditsCaught seeds the two edits that make truncation
// unsound into the two-process exploration — each is node.go's confirm with
// one condition dropped, applied where confirm has just fired — and expects
// the truncation invariant to name it.
func TestTruncationBadEditsCaught(t *testing.T) {
	// badTruncate is truncate without its nextreport bound.
	badTruncate := func(im *Impl, n *Node) {
		held, base := n.order, n.base
		for n.base < n.stable && n.hist.drop(n.order[0]) {
			n.digest = types.Roll(n.digest, n.order[0])
			n.order = n.order[1:]
			n.base++
		}
		im.dropped[n.p] = append(im.dropped[n.p], held[:n.base-base]...)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*Impl, *Node)
	}{
		{"truncate past nextreport", "with stable", badTruncate},
		{"stable advanced in a view that is not the universe", "could not align", func(im *Impl, n *Node) {
			if n.status == StatusNormal {
				n.stable = n.nextConfirm - 1
				_ = im.recordDrops(n, func() error { n.truncate(); return nil })
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			universe := types.RangeProcSet(2)
			im := NewImpl(universe, types.InitialView(universe), Config{DVS: DVSLiteral, Universe: true})
			states, _, err := exploreTO(im, awayEnv{small: types.NewProcSet(0), early: 1, rejoin: true}, func(im *Impl, act ioa.Action) error {
				if p, ok := act.Param.(ConfirmParam); ok {
					tc.edit(im, im.nodes[p.P])
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%d states explored, want a truncation violation mentioning %q, got %v", states, tc.want, err)
			}
			t.Logf("caught after %d states: %v", states, err)
		})
	}
}
