package dvscore

import (
	"slices"
	"strings"

	"repro/internal/types"
)

// The message universe of the implementation is
// M = M_c ∪ ({"info"} × V × 2^V) ∪ {"registered"}.

// InfoMsg is an ⟨"info", act, amb⟩ message, carrying the sender's active
// view and ambiguous-view set. Amb is kept sorted by view id.
type InfoMsg struct {
	Act types.View
	Amb []types.View
}

// NewInfoMsg builds an info message, copying and sorting the ambiguous set.
func NewInfoMsg(act types.View, amb []types.View) InfoMsg {
	cp := slices.Clone(amb)
	types.SortViews(cp)
	return InfoMsg{Act: act, Amb: cp}
}

// MsgKey implements types.Msg.
func (m InfoMsg) MsgKey() string {
	var b strings.Builder
	b.WriteString("info:")
	b.WriteString(m.Act.String())
	b.WriteByte(';')
	for i, v := range m.Amb {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// EqualMsg implements types.Msg: same active view and, position by
// position (Amb is sorted), the same ambiguous views.
func (m InfoMsg) EqualMsg(o types.Msg) bool {
	om, ok := o.(InfoMsg)
	return ok && m.Act == om.Act && slices.Equal(m.Amb, om.Amb)
}

// ServiceMsg marks InfoMsg as internal to the group-communication layer.
func (InfoMsg) ServiceMsg() {}

// RegisteredMsg is the ⟨"registered"⟩ message.
type RegisteredMsg struct{}

// MsgKey implements types.Msg.
func (RegisteredMsg) MsgKey() string { return "registered" }

// EqualMsg implements types.Msg.
func (RegisteredMsg) EqualMsg(o types.Msg) bool {
	_, ok := o.(RegisteredMsg)
	return ok
}

// ServiceMsg marks RegisteredMsg as internal to the group-communication
// layer.
func (RegisteredMsg) ServiceMsg() {}

var (
	_ types.ServiceMsg = InfoMsg{}
	_ types.ServiceMsg = RegisteredMsg{}
)

// Purge deletes every non-client ("info" or "registered") message from q,
// per the refinement of Figure 4.
func Purge(q []types.Msg) []types.Msg {
	out := make([]types.Msg, 0, len(q))
	for _, m := range q {
		if types.IsClient(m) {
			out = append(out, m)
		}
	}
	return out
}

// PurgeSize counts the non-client messages in q.
func PurgeSize(q []types.Msg) int {
	n := 0
	for _, m := range q {
		if !types.IsClient(m) {
			n++
		}
	}
	return n
}
