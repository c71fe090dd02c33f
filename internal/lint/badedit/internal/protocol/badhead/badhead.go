// Package badhead is a core's dvs-gprcv head check (dvscore
// TakeDVSGpRcvHead) after the edit keyequal must catch: the structural
// comparison reverted to comparing rendered keys, which formats both
// messages on every delivery and accepts any message that merely renders
// like the head. It sits under the bad-edit module's own internal/protocol/
// so the analyzer's core scope covers it.
package badhead

import (
	"fmt"

	"repro/internal/protocol/dvscore"
)

// Node holds one view's msgs-from-vs queue.
type Node struct{ msgsFromVS []dvscore.MsgFrom }

// TakeDVSGpRcvHead removes the head if e renders like it.
func (n *Node) TakeDVSGpRcvHead(e dvscore.MsgFrom) error {
	if len(n.msgsFromVS) == 0 || n.msgsFromVS[0].M.MsgKey() != e.M.MsgKey() || n.msgsFromVS[0].Q != e.Q {
		return fmt.Errorf("dvs-gprcv(%s): not head of msgs-from-vs", e.M.MsgKey())
	}
	n.msgsFromVS = n.msgsFromVS[1:]
	return nil
}
