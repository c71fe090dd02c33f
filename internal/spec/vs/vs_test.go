package vs

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

func setup() (*VS, types.ProcSet, types.View) {
	universe := types.RangeProcSet(4)
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	return New(universe, v0), universe, v0
}

func act(name string, kind ioa.Kind, param any) ioa.Action {
	return ioa.Action{Name: name, Kind: kind, Param: param}
}

func mustPerform(t *testing.T, a ioa.Automaton, actions ...ioa.Action) {
	t.Helper()
	for _, x := range actions {
		if err := a.Perform(x); err != nil {
			t.Fatalf("perform %s: %v", x, err)
		}
	}
}

func TestInitialState(t *testing.T) {
	a, _, v0 := setup()
	created := a.Created()
	if len(created) != 1 || created[0] != v0 {
		t.Fatalf("created = %v", created)
	}
	if g, ok := a.CurrentViewID(0); !ok || g != types.ViewIDZero {
		t.Error("member of P0 must start in g0")
	}
	if _, ok := a.CurrentViewID(3); ok {
		t.Error("non-member of P0 must start at ⊥")
	}
}

func TestCreateViewRequiresIncreasingID(t *testing.T) {
	a, _, _ := setup()
	v1 := types.NewView(types.ViewID{Seq: 1}, 0, 1)
	mustPerform(t, a, act(ActCreateView, ioa.KindInternal, CreateViewParam{View: v1}))
	// Same id again must fail.
	if err := a.Perform(act(ActCreateView, ioa.KindInternal, CreateViewParam{View: v1})); err == nil {
		t.Error("duplicate id accepted")
	}
	// Smaller id must fail.
	smaller := types.NewView(types.ViewID{Seq: 0, Origin: 3}, 2, 3)
	if err := a.Perform(act(ActCreateView, ioa.KindInternal, CreateViewParam{View: smaller})); err == nil {
		t.Error("non-increasing id accepted")
	}
	// Empty membership must fail.
	if a.CreateViewCandidateOK(types.View{ID: types.ViewID{Seq: 5}}) {
		t.Error("empty membership accepted")
	}
}

func TestNewViewMonotoneAndMembersOnly(t *testing.T) {
	a, _, _ := setup()
	v1 := types.NewView(types.ViewID{Seq: 1}, 0, 3)
	mustPerform(t, a,
		act(ActCreateView, ioa.KindInternal, CreateViewParam{View: v1}),
		act(ActNewView, ioa.KindOutput, NewViewParam{View: v1, P: 0}),
		act(ActNewView, ioa.KindOutput, NewViewParam{View: v1, P: 3}),
	)
	if g, _ := a.CurrentViewID(3); g != v1.ID {
		t.Error("newview must set current-viewid")
	}
	// Repeating for the same process must fail (id not greater).
	if err := a.Perform(act(ActNewView, ioa.KindOutput, NewViewParam{View: v1, P: 0})); err == nil {
		t.Error("repeated newview accepted")
	}
	// Non-member must fail.
	if err := a.Perform(act(ActNewView, ioa.KindOutput, NewViewParam{View: v1, P: 2})); err == nil {
		t.Error("newview at non-member accepted")
	}
}

func TestSendOrderReceiveSafeFlow(t *testing.T) {
	a, _, v0 := setup()
	m := types.ClientMsg("hello")
	mustPerform(t, a, act(ActGpSnd, ioa.KindInput, SndParam{M: m, P: 0}))
	if got := a.PendingShared(0, v0.ID); len(got) != 1 || got[0].MsgKey() != m.MsgKey() {
		t.Fatalf("pending = %v", got)
	}

	mustPerform(t, a, act(ActOrder, ioa.KindInternal, OrderParam{M: m, P: 0, G: v0.ID}))
	if q := a.QueueShared(v0.ID); len(q) != 1 || q[0].P != 0 {
		t.Fatalf("queue = %v", q)
	}
	// Safe before anyone received must be disabled.
	if err := a.Perform(act(ActSafe, ioa.KindOutput, RcvParam{M: m, From: 0, To: 0})); err == nil {
		t.Error("safe before receipt accepted")
	}
	// All three members receive.
	for _, p := range []types.ProcID{0, 1, 2} {
		mustPerform(t, a, act(ActGpRcv, ioa.KindOutput, RcvParam{M: m, From: 0, To: p}))
	}
	if a.Next(1, v0.ID) != 2 {
		t.Error("next must advance")
	}
	// Now safe is enabled for each member.
	mustPerform(t, a, act(ActSafe, ioa.KindOutput, RcvParam{M: m, From: 0, To: 2}))
	if a.NextSafe(2, v0.ID) != 2 {
		t.Error("next-safe must advance")
	}
}

func TestSendWithoutViewIsDropped(t *testing.T) {
	a, _, _ := setup()
	mustPerform(t, a, act(ActGpSnd, ioa.KindInput, SndParam{M: types.ClientMsg("x"), P: 3}))
	for _, v := range a.Created() {
		if len(a.PendingShared(3, v.ID)) != 0 {
			t.Error("send at ⊥ must be a no-op")
		}
	}
}

func TestMessagesStayInTheirView(t *testing.T) {
	a, _, v0 := setup()
	m := types.ClientMsg("old")
	mustPerform(t, a,
		act(ActGpSnd, ioa.KindInput, SndParam{M: m, P: 0}),
		act(ActOrder, ioa.KindInternal, OrderParam{M: m, P: 0, G: v0.ID}),
	)
	v1 := types.NewView(types.ViewID{Seq: 1}, 0, 1, 2)
	mustPerform(t, a,
		act(ActCreateView, ioa.KindInternal, CreateViewParam{View: v1}),
		act(ActNewView, ioa.KindOutput, NewViewParam{View: v1, P: 0}),
	)
	// Process 0 has moved to v1; m is queued in v0 and must not be
	// receivable by 0 anymore.
	if err := a.Perform(act(ActGpRcv, ioa.KindOutput, RcvParam{M: m, From: 0, To: 0})); err == nil {
		t.Error("message delivered outside its view")
	}
	// Process 1 (still in v0) can receive it.
	mustPerform(t, a, act(ActGpRcv, ioa.KindOutput, RcvParam{M: m, From: 0, To: 1}))
}

func TestPrefixDelivery(t *testing.T) {
	a, _, v0 := setup()
	for _, payload := range []string{"a", "b", "c"} {
		m := types.ClientMsg(payload)
		mustPerform(t, a,
			act(ActGpSnd, ioa.KindInput, SndParam{M: m, P: 0}),
			act(ActOrder, ioa.KindInternal, OrderParam{M: m, P: 0, G: v0.ID}),
		)
	}
	// Receiving out of order must fail: process 1's next is position 1
	// ("a"), not "b".
	if err := a.Perform(act(ActGpRcv, ioa.KindOutput, RcvParam{M: types.ClientMsg("b"), From: 0, To: 1})); err == nil {
		t.Error("gap in delivery accepted")
	}
	mustPerform(t, a,
		act(ActGpRcv, ioa.KindOutput, RcvParam{M: types.ClientMsg("a"), From: 0, To: 1}),
		act(ActGpRcv, ioa.KindOutput, RcvParam{M: types.ClientMsg("b"), From: 0, To: 1}),
	)
}

func TestEnabledSortedAndComplete(t *testing.T) {
	a, _, v0 := setup()
	m := types.ClientMsg("m")
	mustPerform(t, a,
		act(ActGpSnd, ioa.KindInput, SndParam{M: m, P: 1}),
		act(ActOrder, ioa.KindInternal, OrderParam{M: m, P: 1, G: v0.ID}),
	)
	acts := a.Enabled()
	for i := 1; i < len(acts); i++ {
		if acts[i].Key() < acts[i-1].Key() && acts[i].Name == acts[i-1].Name {
			t.Fatalf("Enabled not sorted: %v", acts)
		}
	}
	// gprcv for all three members must be enabled.
	n := 0
	for _, x := range acts {
		if x.Name == ActGpRcv {
			n++
		}
	}
	if n != 3 {
		t.Errorf("expected 3 enabled gprcv actions, got %d", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _, v0 := setup()
	m := types.ClientMsg("m")
	mustPerform(t, a, act(ActGpSnd, ioa.KindInput, SndParam{M: m, P: 0}))
	b := a.Clone().(*VS)
	mustPerform(t, b, act(ActOrder, ioa.KindInternal, OrderParam{M: m, P: 0, G: v0.ID}))
	if len(a.QueueShared(v0.ID)) != 0 {
		t.Error("clone mutation leaked into original")
	}
	if ioa.FpOf(a) == ioa.FpOf(b) {
		t.Error("diverged states must have different fingerprints")
	}
}

func TestFingerprintStable(t *testing.T) {
	a, _, _ := setup()
	if ioa.FpOf(a) != ioa.FpOf(a) {
		t.Error("fingerprint not deterministic")
	}
	b, _, _ := setup()
	if ioa.FpOf(a) != ioa.FpOf(b) {
		t.Error("equal states must fingerprint equally")
	}
}

func TestUnknownActionAndBadParams(t *testing.T) {
	a, _, _ := setup()
	if err := a.Perform(ioa.Action{Name: "nope"}); err == nil {
		t.Error("unknown action accepted")
	}
	if err := a.Perform(act(ActGpSnd, ioa.KindInput, "wrong")); err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Errorf("bad param not rejected: %v", err)
	}
}

func TestRandomExecutionsKeepInvariants(t *testing.T) {
	universe := types.RangeProcSet(5)
	v0 := types.InitialView(types.NewProcSet(0, 1, 4))
	ex := &ioa.Executor{Steps: 400, Seed: 11}
	_, err := ex.RunSeeds(10,
		func() ioa.Automaton { return New(universe, v0) },
		func(int64) ioa.Environment { return NewEnv(99, universe) },
		Invariants())
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecutionDeterminism(t *testing.T) {
	universe := types.RangeProcSet(4)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	run := func() string {
		ex := &ioa.Executor{Steps: 200, Seed: 5}
		res, err := ex.Run(New(universe, v0), NewEnv(7, universe), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ioa.Render(res.Final)
	}
	if run() != run() {
		t.Error("seeded executions must be reproducible")
	}
}

// Two distinct batches can render the same key (payloads may contain the
// delimiters): ordering the one that is not the pending head must fail.
func TestSpecRejectsKeyCollidingMessage(t *testing.T) {
	a, _, v0 := setup()
	head := types.Batch{Msgs: []types.Msg{types.ClientMsg("x|c:y")}}
	other := types.Batch{Msgs: []types.Msg{types.ClientMsg("x"), types.ClientMsg("y")}}
	if head.MsgKey() != other.MsgKey() {
		t.Fatalf("fixture no longer collides: %q vs %q", head.MsgKey(), other.MsgKey())
	}
	mustPerform(t, a, act(ActGpSnd, ioa.KindInput, SndParam{M: head, P: 0}))
	err := a.Perform(act(ActOrder, ioa.KindInternal, OrderParam{M: other, P: 0, G: v0.ID}))
	if err == nil || !strings.Contains(err.Error(), "not head of pending") {
		t.Fatalf("vs-order of a message that only renders like the head: err = %v", err)
	}
	mustPerform(t, a, act(ActOrder, ioa.KindInternal, OrderParam{M: head, P: 0, G: v0.ID}))
}
