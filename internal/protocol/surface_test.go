// Package protocol_test pins what the cores export. The transitions of the
// three protocol cores are unexported, so the compiler keeps every shell on
// Step; what it cannot say is that the methods which ARE exported on a core
// state type stay read-only. This table is that statement: exporting a new
// method fails the test until the table is edited, and that edit is the
// review point — an accessor may join, a method that mutates the receiver or
// reports an enabling condition may not.
package protocol_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

func TestExportedSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf((*dvscore.Node)(nil)), []string{
			"Act", "Amb", "Attempted", "AttemptedShared", "ClientCur", "Clone",
			"Cur", "HasAttempted", "P", "Reg", "RegisteredIDs",
		}},
		{reflect.TypeOf((*dvscore.StaticNode)(nil)), []string{"Amb", "ClientCur", "P", "Quorum"}},
		{reflect.TypeOf((*dvscore.Filter)(nil)).Elem(), []string{"Amb", "ClientCur"}},
		{reflect.TypeOf((*tocore.Node)(nil)), []string{
			"Base", "BaseMismatches", "Clone", "ConfirmedShared", "Current", "Established",
			"GotState", "NextConfirm", "NextReport", "Order", "P", "Retained", "Status", "Summary",
		}},
		{reflect.TypeOf((*mcastcore.Node)(nil)), []string{
			"Clock", "Clone", "Delivered", "DeliveredCount", "Groups", "P", "PendingCount",
		}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumMethod(); i++ {
			// reflect lists an interface's unexported methods too; a struct
			// pointer's method set holds exported ones only.
			if m := tc.typ.Method(i); m.IsExported() {
				got = append(got, m.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s exports\n  %v, the pinned surface is\n  %v", tc.typ, got, tc.want)
		}
	}
}

// TestStepRejectsUnknownKind holds the seal of both cores' event unions: an
// event whose kind Step does not know — the zero value, or one past the last
// — is refused with an error, and neither the node nor the outbox changes.
func TestStepRejectsUnknownKind(t *testing.T) {
	v0 := types.InitialView(types.RangeProcSet(3))
	m := tocore.LabelMsg{L: types.Label{ID: v0.ID, Seqno: 1, Origin: 1}, A: "a"}
	var to, toTwin [2]*tocore.Node // stepped alike, and only to[i] given the bad event
	var dv, dvTwin [2]*dvscore.Node
	for i := range to {
		to[i], toTwin[i] = tocore.NewNode(0, v0, true, false), tocore.NewNode(0, v0, true, false)
		dv[i], dvTwin[i] = dvscore.NewNode(0, v0, true), dvscore.NewNode(0, v0, true)
		for _, n := range []*tocore.Node{to[i], toTwin[i]} {
			if err := tocore.Step(n, tocore.Event{Kind: tocore.EvBroadcast, A: "b"}, true, &tocore.Outbox{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []*dvscore.Node{dv[i], dvTwin[i]} {
			if err := dvscore.Step(n, dvscore.Event{Kind: dvscore.EvVSRecv, M: m, From: 1}, true, &dvscore.Outbox{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, kind := range []uint8{0, 255} {
		var tout tocore.Outbox
		ev := tocore.Event{Kind: tocore.EventKind(kind), A: "x", M: m, From: 1, View: v0, Set: v0.Members}
		if err := tocore.Step(to[i], ev, true, &tout); err == nil || len(tout.Effects) > 0 || !reflect.DeepEqual(to[i], toTwin[i]) {
			t.Errorf("tocore: kind %d gave error %v, effects %v, node changed %v", kind, err, tout.Effects, !reflect.DeepEqual(to[i], toTwin[i]))
		}
		var dout dvscore.Outbox
		dev := dvscore.Event{Kind: dvscore.EventKind(kind), M: m, From: 1, View: v0}
		if err := dvscore.Step(dv[i], dev, true, &dout); err == nil || len(dout.Effects) > 0 || !reflect.DeepEqual(dv[i], dvTwin[i]) {
			t.Errorf("dvscore: kind %d gave error %v, effects %v, node changed %v", kind, err, dout.Effects, !reflect.DeepEqual(dv[i], dvTwin[i]))
		}
	}
}
