// Package wire holds the golden cases for effectcomplete's RequireFuncs
// rule: the test names Encode, Decode, DecodePartial, NoSwitch and Gone as
// functions that must each cover the core union.
package wire // want `function linttest/src/effectcomplete/wire.Gone is required to cover linttest/src/effectcomplete/core.Effect but is not declared`

import "linttest/src/effectcomplete/core"

// Encode names every variant as a case type: clean.
func Encode(fx core.Effect) byte {
	switch fx.(type) {
	case core.FxA:
		return 1
	case core.FxB:
		return 2
	case core.FxC:
		return 3
	}
	return 0
}

// Decode names every variant as a composite literal under a tag: clean.
func Decode(tag byte) core.Effect {
	switch tag {
	case 1:
		return core.FxA{N: 1}
	case 2:
		return core.FxB{}
	case 3:
		return core.FxC{}
	default:
		return nil
	}
}

// DecodePartial constructs FxC only behind default, which credits nothing.
func DecodePartial(tag byte) core.Effect { // want `DecodePartial must name every variant of linttest/src/effectcomplete/core.Effect in the clauses of one switch .* but none names FxC`
	switch tag {
	case 1:
		return core.FxA{}
	case 2:
		return core.FxB{}
	default:
		return core.FxC{}
	}
}

// NoSwitch constructs every variant, but not under a switch.
func NoSwitch(tag byte) core.Effect { // want `NoSwitch must name every variant .* but none names FxA, FxB, FxC`
	if tag == 1 {
		return core.FxA{}
	}
	if tag == 2 {
		return core.FxB{}
	}
	return core.FxC{}
}

// Audited is required too, and deliberately partial behind an escape: clean.
//
//lint:effectcomplete golden case: this decoder handles one variant by design
func Audited(tag byte) core.Effect {
	switch tag {
	case 1:
		return core.FxA{}
	}
	return nil
}
