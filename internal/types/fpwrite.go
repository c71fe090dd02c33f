package types

// FpWriter is the value-writing subset of ioa.Fingerprinter's API, declared
// here structurally so the foundational types package stays free of checker
// imports. The WriteFp methods below let automata stream canonical value
// renderings straight into a fingerprint digest without building the
// intermediate strings the String methods produce.
type FpWriter interface {
	Str(s string)
	Byte(c byte)
	Int(v int)
	Uint(v uint64)
}

// FpValue is implemented by values that can write their canonical form into
// a fingerprint digest.
type FpValue interface {
	WriteFp(w FpWriter)
}

// WriteFp writes the decimal process id (matches ProcID.String).
func (p ProcID) WriteFp(w FpWriter) { w.Int(int(p)) }

// WriteFp writes "seq.origin" (matches ViewID.String).
func (a ViewID) WriteFp(w FpWriter) {
	w.Uint(a.Seq)
	w.Byte('.')
	w.Int(int(a.Origin))
}

// WriteFp writes "{p1,p2,...}" in increasing order (matches ProcSet.String)
// without allocating the sorted slice for small sets.
func (s ProcSet) WriteFp(w FpWriter) {
	w.Byte('{')
	var stack [16]ProcID
	ids := stack[:0]
	if len(s) > len(stack) {
		ids = make([]ProcID, 0, len(s))
	}
	for p := range s {
		ids = append(ids, p)
	}
	// Insertion sort even for large sets: passing ids to sort.Slice would
	// force the stack buffer to escape on every call, and process universes
	// are small enough that O(n²) never bites.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for i, p := range ids {
		if i > 0 {
			w.Byte(',')
		}
		w.Int(int(p))
	}
	w.Byte('}')
}

// WriteFp writes "<seq.origin,{members}>" (matches View.String).
func (v View) WriteFp(w FpWriter) {
	w.Byte('<')
	v.ID.WriteFp(w)
	w.Byte(',')
	v.Members.WriteFp(w)
	w.Byte('>')
}

// WriteFp writes "id/seqno@origin" (matches Label.String).
func (a Label) WriteFp(w FpWriter) {
	a.ID.WriteFp(w)
	w.Byte('/')
	w.Int(a.Seqno)
	w.Byte('@')
	w.Int(int(a.Origin))
}

// WriteFp writes the content relation canonically in label order (matches
// Content.String).
func (c Content) WriteFp(w FpWriter) {
	w.Byte('{')
	for i, l := range c.Labels() {
		if i > 0 {
			w.Byte(' ')
		}
		l.WriteFp(w)
		w.Byte('=')
		w.Str(c[l])
	}
	w.Byte('}')
}

// WriteFp writes the summary canonically (matches Summary.String).
func (x Summary) WriteFp(w FpWriter) {
	w.Str("sum{con=")
	x.Con.WriteFp(w)
	if x.Base > 0 {
		w.Str(" base=")
		w.Int(x.Base)
		w.Byte('#')
		w.Uint(x.Digest)
	}
	w.Str(" ord=[")
	for i, l := range x.Ord {
		if i > 0 {
			w.Byte(' ')
		}
		l.WriteFp(w)
	}
	w.Str("] next=")
	w.Int(x.Next)
	w.Str(" high=")
	x.High.WriteFp(w)
	w.Byte('}')
}

// WriteFp writes "c:payload" (matches ClientMsg.MsgKey).
func (m ClientMsg) WriteFp(w FpWriter) {
	w.Str("c:")
	w.Str(string(m))
}

// WriteMsgFp writes m's canonical key into w, streaming it via WriteFp when
// the concrete message supports it and falling back to the MsgKey string.
func WriteMsgFp(w FpWriter, m Msg) {
	if v, ok := m.(FpValue); ok {
		v.WriteFp(w)
		return
	}
	w.Str(m.MsgKey())
}
