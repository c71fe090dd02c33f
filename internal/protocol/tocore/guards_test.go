package tocore

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestGuardsRejectNonEnabledActions drives every take*/perform* of the
// Figure 5 node with an action that is not enabled and requires the
// action's error and an untouched node; the enabled action must still fire
// afterwards. drain does not go through these methods, so nothing else
// exercises their failing branch.
func TestGuardsRejectNonEnabledActions(t *testing.T) {
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	l1 := types.Label{ID: v0.ID, Seqno: 1, Origin: 1}
	recvSafe := func(n *Node) {
		n.onDVSGpRcv(LabelMsg{L: l1, A: "x"}, 1)
		n.onDVSSafe(LabelMsg{L: l1, A: "x"}, 1)
	}
	own := func(seq int, a string) LabelMsg {
		return LabelMsg{L: types.Label{ID: v0.ID, Seqno: seq, Origin: 0}, A: a}
	}
	for _, tc := range []struct {
		name    string
		setup   func(*Node)
		bad     func(*Node) error
		wantErr string
		good    func(*Node) error
	}{
		{
			name:    "label: nothing delayed",
			bad:     func(n *Node) error { return n.performLabel("a") },
			wantErr: "label(a)_0: not enabled",
		},
		{
			name:    "label: not the head of delay",
			setup:   func(n *Node) { n.onBCast("a"); n.onBCast("b") },
			bad:     func(n *Node) error { return n.performLabel("b") },
			wantErr: "label(b)_0: not enabled",
			good:    func(n *Node) error { return n.performLabel("a") },
		},
		{
			name:    "label: during recovery",
			setup:   func(n *Node) { n.onBCast("a"); n.onDVSNewView(v(1, 0, 1)) },
			bad:     func(n *Node) error { return n.performLabel("a") },
			wantErr: "label(a)_0: not enabled",
		},
		{
			name:    "gpsnd label: nothing buffered",
			bad:     func(n *Node) error { return n.takeGpSndLabel(own(1, "a")) },
			wantErr: "dvs-gpsnd(lbl:0.0/1@0=a)_0: not enabled",
		},
		{
			name:    "gpsnd label: wrong payload",
			setup:   func(n *Node) { n.onBCast("a"); n.performLabel("a") },
			bad:     func(n *Node) error { return n.takeGpSndLabel(own(1, "b")) },
			wantErr: "not enabled",
			good:    func(n *Node) error { return n.takeGpSndLabel(own(1, "a")) },
		},
		{
			name:    "gpsnd label: second in buffer",
			setup:   func(n *Node) { n.onBCast("a"); n.onBCast("b"); n.performLabel("a"); n.performLabel("b") },
			bad:     func(n *Node) error { return n.takeGpSndLabel(own(2, "b")) },
			wantErr: "not enabled",
			good:    func(n *Node) error { return n.takeGpSndLabel(own(1, "a")) },
		},
		{
			name:    "gpsnd label: during recovery",
			setup:   func(n *Node) { n.onBCast("a"); n.performLabel("a"); n.onDVSNewView(v(1, 0, 1)) },
			bad:     func(n *Node) error { return n.takeGpSndLabel(own(1, "a")) },
			wantErr: "not enabled",
		},
		{
			name:    "gpsnd summary: status normal",
			bad:     func(n *Node) error { return n.takeGpSndSummary(SummaryMsg{X: n.Summary()}) },
			wantErr: "dvs-gpsnd(summary)_0: not enabled",
		},
		{
			name:  "gpsnd summary: not this node's summary",
			setup: func(n *Node) { recvSafe(n); n.onDVSNewView(v(1, 0, 1)) },
			bad: func(n *Node) error {
				x := n.Summary()
				x.Con[l1] = "y"
				return n.takeGpSndSummary(SummaryMsg{X: x})
			},
			wantErr: "dvs-gpsnd(summary)_0: not enabled",
			good:    func(n *Node) error { return n.takeGpSndSummary(SummaryMsg{X: n.Summary()}) },
		},
		{
			name:    "gpsnd summary: already sent",
			setup:   func(n *Node) { n.onDVSNewView(v(1, 0, 1)); n.takeGpSndSummary(SummaryMsg{X: n.Summary()}) },
			bad:     func(n *Node) error { return n.takeGpSndSummary(SummaryMsg{X: n.Summary()}) },
			wantErr: "dvs-gpsnd(summary)_0: not enabled",
		},
		{
			name:    "confirm: nothing ordered",
			bad:     func(n *Node) error { return n.performConfirm() },
			wantErr: "confirm_0: not enabled",
		},
		{
			name:    "confirm: ordered but not safe",
			setup:   func(n *Node) { n.onDVSGpRcv(LabelMsg{L: l1, A: "x"}, 1) },
			bad:     func(n *Node) error { return n.performConfirm() },
			wantErr: "confirm_0: not enabled",
		},
		{
			name:    "brcv: not yet confirmed",
			setup:   recvSafe,
			bad:     func(n *Node) error { return n.performBRcv("x", 1) },
			wantErr: "brcv(x)_1,0: not enabled",
			good:    func(n *Node) error { return n.performConfirm() },
		},
		{
			name:    "brcv: wrong payload",
			setup:   func(n *Node) { recvSafe(n); n.performConfirm() },
			bad:     func(n *Node) error { return n.performBRcv("y", 1) },
			wantErr: "brcv(y)_1,0: not enabled",
			good:    func(n *Node) error { return n.performBRcv("x", 1) },
		},
		{
			name:    "brcv: wrong origin",
			setup:   func(n *Node) { recvSafe(n); n.performConfirm() },
			bad:     func(n *Node) error { return n.performBRcv("x", 2) },
			wantErr: "brcv(x)_2,0: not enabled",
			good:    func(n *Node) error { return n.performBRcv("x", 1) },
		},
		{
			name:    "register: initial view is registered from the start",
			bad:     func(n *Node) error { return n.performRegister() },
			wantErr: "dvs-register_0: not enabled",
		},
		{
			name:    "register: view not yet established",
			setup:   func(n *Node) { n.onDVSNewView(v(1, 0, 1)) },
			bad:     func(n *Node) error { return n.performRegister() },
			wantErr: "dvs-register_0: not enabled",
		},
		{
			name:    "gprcv: not a TO message",
			bad:     func(n *Node) error { return n.onDVSGpRcv(types.ClientMsg("raw"), 1) },
			wantErr: "unexpected message c:raw",
		},
		{
			name:    "safe: not a TO message",
			bad:     func(n *Node) error { return n.onDVSSafe(types.ClientMsg("raw"), 1) },
			wantErr: "unexpected safe message c:raw",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newTONode(t)
			if tc.setup != nil {
				tc.setup(n)
			}
			before := n.Clone()
			err := tc.bad(n)
			if err == nil {
				t.Fatal("non-enabled action accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(n.Clone(), before) {
				t.Error("rejected action changed the node")
			}
			if tc.good != nil {
				if err := tc.good(n); err != nil {
					t.Errorf("enabled action refused after the rejected one: %v", err)
				}
			}
		})
	}
}

// drainByName is drain's policy with every action fired through its
// guard-plus-apply method, the way Impl.Perform fires them: the reference
// TestDrainMatchesExportedActions holds drain to.
func drainByName(n *Node, register bool, out *Outbox) {
	for progress := true; progress; {
		progress = false
		if a, ok := n.labelHead(); ok && n.performLabel(a) == nil {
			out.add(Effect{Kind: FxLabel, A: a})
			progress = true
		}
		if m, ok := n.gpSndSummary(); ok && n.takeGpSndSummary(m) == nil {
			out.add(Effect{Kind: FxSend, M: m})
			progress = true
		}
		if m, ok := n.gpSndLabel(); ok && n.takeGpSndLabel(m) == nil {
			out.add(Effect{Kind: FxSend, M: m})
			progress = true
		}
		if n.confirmEnabled() && n.performConfirm() == nil {
			out.add(Effect{Kind: FxConfirm})
			progress = true
		}
		if a, origin, ok := n.brcvNext(); ok && n.performBRcv(a, origin) == nil {
			out.add(Effect{Kind: FxDeliver, A: a, Origin: origin})
			progress = true
		}
		if register && n.registerEnabled() && n.performRegister() == nil {
			cur, _ := n.Current()
			out.add(Effect{Kind: FxRegister, View: cur})
			progress = true
		}
	}
}

// TestDrainMatchesExportedActions runs one node through a long random life —
// broadcasts, its own and its peers' labels looped back as deliveries and
// safe indications, view changes with a full summary exchange — twice: once
// through Step, once applying the same inputs and draining action by action
// through the validating methods. The effects of every event and the node
// state (sampled, and at the end) must agree, with REGISTER on and off.
func TestDrainMatchesExportedActions(t *testing.T) {
	for _, register := range []bool{true, false} {
		rng := rand.New(rand.NewSource(15))
		v0 := types.InitialView(types.NewProcSet(0, 1, 2))
		a, b := NewNode(0, v0, true, false), NewNode(0, v0, true, false)
		cur := v0
		peerSeq := map[types.ProcID]int{}
		var inflight []Event // deliveries and safe indications not yet handed up
		counts := map[string]int{}
		for step := 0; step < 3000; step++ {
			var ev Event
			switch k := rng.Intn(40); {
			case k == 0:
				members := []types.ProcID{0, 1, 2}[:2+rng.Intn(2)]
				cur = types.NewView(cur.ID.Next(0), members...)
				ev = Event{Kind: EvNewView, View: cur}
				inflight = nil // DVS hands up nothing from a view the client has left
				for _, q := range members[1:] {
					m := SummaryMsg{X: types.Summary{Next: 1}}
					inflight = append(inflight, Event{Kind: EvRecv, M: m, From: q}, Event{Kind: EvSafe, M: m, From: q})
				}
			case k < 12:
				ev = Event{Kind: EvBroadcast, A: strings.Repeat("p", rng.Intn(4)) + string(rune('a'+rng.Intn(26)))}
			case k < 20 && a.Status() == StatusNormal:
				q := types.ProcID(1 + rng.Intn(cur.Members.Len()-1))
				peerSeq[q]++
				m := LabelMsg{L: types.Label{ID: cur.ID, Seqno: peerSeq[q], Origin: q}, A: "peer"}
				inflight = append(inflight, Event{Kind: EvRecv, M: m, From: q}, Event{Kind: EvSafe, M: m, From: q})
				continue
			case len(inflight) > 0:
				ev, inflight = inflight[0], inflight[1:]
			default:
				continue
			}

			var got, want Outbox
			errA := Step(a, ev, register, &got)
			errB := applyInput(b, ev)
			if errB == nil {
				drainByName(b, register, &want)
			}
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: Step error %v, reference %v", step, errA, errB)
			}
			if !reflect.DeepEqual(got.Effects, want.Effects) {
				t.Fatalf("step %d (%#v): effects diverge\nDrain:     %#v\nby action: %#v", step, ev, got.Effects, want.Effects)
			}
			if step%25 == 0 && !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d (%#v): node states diverge", step, ev)
			}
			for _, fx := range got.Effects {
				counts[fx.Kind.String()]++
				if fx.Kind == FxSend { // loop the node's own sends back
					inflight = append(inflight, Event{Kind: EvRecv, M: fx.M, From: 0}, Event{Kind: EvSafe, M: fx.M, From: 0})
				}
			}
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("register=%v: final node states diverge", register)
		}
		for _, kind := range []string{"FxLabel", "FxSend", "FxConfirm", "FxDeliver", "FxRegister"} {
			if counts[kind] < 5 && (register || kind != "FxRegister") {
				t.Errorf("register=%v: only %d %s effects in the run; the comparison does not cover that action", register, counts[kind], kind)
			}
		}
	}
}

func applyInput(n *Node, ev Event) error {
	switch ev.Kind {
	case EvBroadcast:
		n.onBCast(ev.A)
	case EvNewView:
		n.onDVSNewView(ev.View)
	case EvRecv:
		return n.onDVSGpRcv(ev.M, ev.From)
	case EvSafe:
		return n.onDVSSafe(ev.M, ev.From)
	}
	return nil
}

// TestStepLabelAllocsConstant pins the cost of the step that finishes a
// label's life — the safe indication that confirms and reports it: one boxed
// FxDeliver (the safe-label map's growth amortizes below one), whatever the
// payload size and however much history the node holds.
func TestStepLabelAllocsConstant(t *testing.T) {
	measure := func(history, payload int) float64 {
		v0 := types.InitialView(types.NewProcSet(0, 1, 2))
		n := NewNode(0, v0, true, false)
		const runs = 200
		a := strings.Repeat("p", payload)
		msg := func(i int) LabelMsg { return LabelMsg{L: types.Label{ID: v0.ID, Seqno: i + 1, Origin: 1}, A: a} }
		var out Outbox
		for i := 0; i < history+runs+1; i++ {
			if err := Step(n, Event{Kind: EvRecv, M: msg(i), From: 1}, true, &out); err != nil {
				t.Fatal(err)
			}
			if i < history {
				Step(n, Event{Kind: EvSafe, M: msg(i), From: 1}, true, &out)
			}
		}
		i := history
		return testing.AllocsPerRun(runs, func() {
			out.Effects = out.Effects[:0]
			if err := Step(n, Event{Kind: EvSafe, M: msg(i), From: 1}, true, &out); err != nil {
				t.Fatal(err)
			}
			if len(out.Effects) != 2 {
				t.Fatalf("label %d: %d effects, want confirm + deliver", i, len(out.Effects))
			}
			i++
		})
	}
	base := measure(0, 8)
	if base > 3 {
		t.Errorf("confirming and reporting one label allocates %.0f times, want a constant ≤ 3", base)
	}
	for _, tc := range []struct{ history, payload int }{{0, 4096}, {20000, 8}} {
		if got := measure(tc.history, tc.payload); got != base {
			t.Errorf("with %d labels of history and %d B payloads the step allocates %.0f times, %.0f without: the cost is not constant", tc.history, tc.payload, got, base)
		}
	}
}
