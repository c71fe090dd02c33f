package types

import "strings"

// Msg is a message in the universe M. MsgKey is the canonical rendering
// (traces, error text, the fingerprint fallback); EqualMsg is equality —
// structural, allocation-free, and injective where the rendering is not
// (payloads may contain the delimiters MsgKey joins with).
type Msg interface {
	MsgKey() string
	EqualMsg(Msg) bool
}

// ClientMsg is a client message in M_c, the set of messages clients may use
// for communication. In the specification layer client payloads are strings.
type ClientMsg string

// MsgKey implements Msg.
func (m ClientMsg) MsgKey() string { return "c:" + string(m) }

// EqualMsg implements Msg.
func (m ClientMsg) EqualMsg(o Msg) bool {
	om, ok := o.(ClientMsg)
	return ok && om == m
}

// String renders the message.
func (m ClientMsg) String() string { return string(m) }

// Batch groups several client messages into one wire unit. The tob shell
// coalesces the label/summary messages drained from adjacent macro-steps
// into a Batch before handing them to DVS, and expands a received Batch
// back into individual messages before they reach the protocol core — so
// the verified cores never see the type. A Batch is deliberately NOT a
// ServiceMsg: the VS-TO-DVS automaton treats client messages opaquely
// (queued, sent, delivered and safe-indicated as single units), which is
// exactly the transparency batching needs.
type Batch struct{ Msgs []Msg }

// MsgKey implements Msg: the concatenation of the member keys, so batches
// fingerprint and render canonically wherever single messages do.
func (b Batch) MsgKey() string {
	var sb strings.Builder
	sb.WriteString("batch[")
	for i, m := range b.Msgs {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(m.MsgKey())
	}
	sb.WriteByte(']')
	return sb.String()
}

// EqualMsg implements Msg: same length and member-wise equal.
func (b Batch) EqualMsg(o Msg) bool {
	ob, ok := o.(Batch)
	if !ok || len(ob.Msgs) != len(b.Msgs) {
		return false
	}
	for i, m := range b.Msgs {
		if !m.EqualMsg(ob.Msgs[i]) {
			return false
		}
	}
	return true
}

// ServiceMsg marks messages that are internal to a group-communication
// layer (e.g. the "info" and "registered" messages of VS-TO-DVS) and hence
// not members of M_c.
type ServiceMsg interface {
	Msg
	// ServiceMsg is a marker method.
	ServiceMsg()
}

// IsClient reports whether m is a client message (member of M_c): any
// message that is not marked as service-internal.
func IsClient(m Msg) bool {
	_, svc := m.(ServiceMsg)
	return !svc
}
