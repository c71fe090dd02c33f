// Package spec stands in for a specification automaton: the second default
// scope segment, /internal/spec/. A spec that accepts an action by rendered key accepts ordering a
// message that is not the head, so its head checks are findings too.
package spec

type Msg interface {
	MsgKey() string
	EqualMsg(Msg) bool
}

func orderPre(pending []Msg, m Msg) bool {
	if len(pending) == 0 || pending[0].MsgKey() != m.MsgKey() { // want `MsgKey\(\) != MsgKey\(\): equality by rendering`
		return false
	}
	return pending[0].EqualMsg(m)
}
