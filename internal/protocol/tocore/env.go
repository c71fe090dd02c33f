package tocore

import (
	"math/rand"
	"strconv"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	"repro/internal/spec/to"
	"repro/internal/types"
)

// Env drives TO-IMPL executions: it supplies bcast inputs and proposes
// dvs-createview candidates that satisfy the DVS creation precondition
// (random membership, increasing ids).
type Env struct {
	rng      *rand.Rand
	procs    []types.ProcID
	msgSeq   int
	proposed int
	MaxViews int // cap on proposed views (0 = unlimited)
}

var _ ioa.Environment = (*Env)(nil)

// NewEnv returns an environment over the given universe.
func NewEnv(seed int64, universe types.ProcSet) *Env {
	return &Env{
		rng:      rand.New(rand.NewSource(seed)),
		procs:    universe.Sorted(),
		MaxViews: 32,
	}
}

// Inputs implements ioa.Environment.
func (e *Env) Inputs(a ioa.Automaton) []ioa.Action {
	im, ok := a.(*Impl)
	if !ok {
		return nil
	}
	var acts []ioa.Action

	p := types.RandomMember(e.rng, e.procs)
	e.msgSeq++
	acts = append(acts, ioa.Action{
		Name:  to.ActBCast,
		Kind:  ioa.KindInput,
		Param: to.BCastParam{A: "a" + strconv.Itoa(e.msgSeq), P: p},
	})

	if e.MaxViews == 0 || e.proposed < e.MaxViews {
		members := types.RandomSubset(e.rng, e.procs)
		maxID := im.DVS().MaxCreatedID()
		v := types.View{ID: maxID.Next(members.First()), Members: members}
		if im.DVS().CreateViewCandidateOK(v) {
			e.proposed++
			acts = append(acts, ioa.Action{Name: dvs.ActCreateView, Kind: ioa.KindInternal, Param: dvs.CreateViewParam{View: v}})
		}
	}
	return acts
}

// BoundedEnv is a finitely-branching, stateless environment for exhaustive
// exploration of TO-IMPL (ioa.Explore). Broadcasts are bounded by a
// monotone state measure (a client message is either still in a delay
// buffer or has been labeled, and the originator's history counts the labels
// it has made, held or dropped), and view proposals come from a fixed
// candidate list.
type BoundedEnv struct {
	MaxMsgs  int
	MaxViews int
	Views    []types.ProcSet
}

var _ ioa.Environment = (*BoundedEnv)(nil)

// Inputs implements ioa.Environment.
func (e *BoundedEnv) Inputs(a ioa.Automaton) []ioa.Action {
	im, ok := a.(*Impl)
	if !ok {
		return nil
	}
	var acts []ioa.Action
	if countClientCommands(im) < e.MaxMsgs {
		for _, p := range im.procs {
			acts = append(acts, ioa.Action{Name: to.ActBCast, Kind: ioa.KindInput,
				Param: to.BCastParam{A: "a", P: p}})
		}
	}
	if im.DVS().CreatedCount() < e.MaxViews {
		maxID := im.DVS().MaxCreatedID()
		for _, members := range e.Views {
			v := types.View{ID: maxID.Next(members.First()), Members: members}
			if im.DVS().CreateViewCandidateOK(v) {
				acts = append(acts, ioa.Action{Name: dvs.ActCreateView, Kind: ioa.KindInternal,
					Param: dvs.CreateViewParam{View: v}})
			}
		}
	}
	return acts
}

// countClientCommands is a monotone measure of broadcasts in the state:
// commands still in delay buffers plus labels each node created itself
// (a label with the node's own origin leaves its content relation only by
// truncation, which the run's base goes on counting).
func countClientCommands(im *Impl) int {
	total := 0
	for _, p := range im.procs {
		n := im.nodes[p]
		total += len(n.delay) + n.hist.labeled(p)
	}
	return total
}
