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
)

func TestExportedSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf((*dvscore.Node)(nil)), []string{
			"Act", "Amb", "Attempted", "AttemptedShared", "ClientCur", "Clone",
			"Cur", "HasAttempted", "P", "Permute", "Reg", "RegisteredIDs",
		}},
		{reflect.TypeOf((*dvscore.StaticNode)(nil)), []string{"Amb", "ClientCur", "P", "Quorum"}},
		{reflect.TypeOf((*dvscore.Filter)(nil)).Elem(), []string{"Amb", "ClientCur"}},
		{reflect.TypeOf((*tocore.Node)(nil)), []string{
			"Base", "BaseMismatches", "Clone", "ConfirmedShared", "Current", "Established",
			"GotState", "NextConfirm", "NextReport", "Order", "P", "Permute", "Retained", "Status", "Summary",
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
