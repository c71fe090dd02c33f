// Package badmcast consumes mcastcore.Effect with a switch that drops
// variants behind default: effectcomplete must report it.
package badmcast

import "repro/internal/protocol/mcastcore"

// Apply handles the send effects but silently swallows FxDeliver — the
// variant-dropping switch that loses finalized multicast deliveries when a
// shell drifts from its core.
func Apply(fx mcastcore.Effect) string {
	switch fx := fx.(type) {
	case mcastcore.FxSendData:
		return "data>" + fx.To.String()
	case mcastcore.FxSendProp:
		return "prop>" + fx.To.String()
	default:
		return ""
	}
}
