// Package badwire is the trace codec's effect encoder (internal/conform
// wire.go, appendDVSEffect) after the edit effectcomplete must catch: one
// variant's case deleted, so FxGC falls into the error default and the
// first garbage collection ends every recorded trace.
package badwire

import (
	"errors"

	"repro/internal/protocol/dvscore"
)

// AppendDVSEffect tags every DVS effect but FxGC.
func AppendDVSEffect(b []byte, fx dvscore.Effect) ([]byte, error) {
	switch fx.(type) {
	case dvscore.FxSendVS:
		return append(b, 0x20), nil
	case dvscore.FxDeliver:
		return append(b, 0x21), nil
	case dvscore.FxSafeInd:
		return append(b, 0x22), nil
	case dvscore.FxNewPrimary:
		return append(b, 0x23), nil
	default:
		return b, errors.New("no wire tag")
	}
}
