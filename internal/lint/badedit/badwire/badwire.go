// Package badwire is the trace codec's effect encoders (internal/conform
// wire.go, appendDVSEffect and appendMcastEffect) after the edit
// effectcomplete must catch: one variant's case deleted from each, so FxGC
// and the multicast FxDeliver fall into the error default and the first
// garbage collection, or the first cross-group delivery, ends every recorded
// trace.
package badwire

import (
	"errors"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
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

// AppendMcastEffect tags every multicast effect but FxDeliver.
func AppendMcastEffect(b []byte, fx mcastcore.Effect) ([]byte, error) {
	switch fx.(type) {
	case mcastcore.FxSendData:
		return append(b, 0x70), nil
	case mcastcore.FxSendProp:
		return append(b, 0x71), nil
	default:
		return b, errors.New("no wire tag")
	}
}
