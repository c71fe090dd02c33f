package ioa

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Render is the text of a value for error messages and tests: render's
// text of the whole of it, which holds more than FpOf (see render).
func Render(v any) string { return render(reflect.ValueOf(v)) }

// render is the audit's text of a state: the whole value by reflection,
// unexported fields included, map entries sorted and nil the same as empty.
// It shares no code with FpOf, so it holds what FpOf skips (ioa:"shared"
// fields, map entries with zero values) and what a Clone or the permuting
// copier (Permute, and the FixImage methods it calls) forgot.
func render(v reflect.Value) string {
	var b strings.Builder
	renderTo(&b, v)
	return b.String()
}

func renderTo(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		if v.Kind() == reflect.Interface {
			b.WriteString(v.Elem().Type().String())
		}
		renderTo(b, v.Elem())
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(" " + v.Type().Field(i).Name + ":")
			renderTo(b, v.Field(i))
		}
		b.WriteString(" }")
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			b.WriteByte(' ')
			renderTo(b, v.Index(i))
		}
		b.WriteString(" ]")
	case reflect.Map:
		var entries []string
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, render(it.Key())+": "+render(it.Value()))
		}
		sort.Strings(entries)
		b.WriteString("map[" + strings.Join(entries, ", ") + "]")
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		b.WriteString(v.Kind().String()) // an address, not automaton state
	default:
		fmt.Fprintf(b, "%#v", v) // bools, floats, complex numbers
	}
}

// sharedRef returns the path of the first map, slice or pointer that x and
// its clone y both hold, or "". Interfaces hold messages, immutable by
// convention, and a field tagged ioa:"shared" is shared by design.
func sharedRef(x, y reflect.Value, path string) (p string) {
	switch k := x.Kind(); k {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if x.IsNil() || y.IsNil() {
			return ""
		}
		if x.Pointer() == y.Pointer() && (k != reflect.Slice || x.Cap() > 0) {
			return path
		}
		switch k {
		case reflect.Pointer:
			return sharedRef(x.Elem(), y.Elem(), path)
		case reflect.Map:
			for it := x.MapRange(); it.Next() && p == ""; {
				if yv := y.MapIndex(it.Key()); yv.IsValid() {
					p = sharedRef(it.Value(), yv, path+"["+render(it.Key())+"]")
				}
			}
			return p
		}
		fallthrough // a slice: its elements
	case reflect.Array:
		for i := 0; i < min(x.Len(), y.Len()) && p == ""; i++ {
			p = sharedRef(x.Index(i), y.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		for i := 0; i < x.NumField() && p == ""; i++ {
			if f := x.Type().Field(i); f.Tag.Get("ioa") != "shared" {
				p = sharedRef(x.Field(i), y.Field(i), path+"."+f.Name)
			}
		}
	}
	return p
}

// firstDiff quotes two renderings around the first byte where they differ.
func firstDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	from := max(0, i-120)
	return fmt.Sprintf("\n  …%s\n  vs\n  …%s", a[from:min(len(a), i+60)], b[from:min(len(b), i+60)])
}
