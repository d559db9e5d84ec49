// Package emit holds the append-only text primitives the compiler's C,
// Promela and IR emitters write with. Emitters append into one []byte,
// sub-expressions in place, and format their lines and fragments with
// Appendf, a format-string writer that never reflects and knows only
// the verbs the emitters use. String hands the finished buffer out as a
// string without copying it.
package emit

import (
	"strconv"
	"strings"
	"unsafe"
)

// String returns the bytes of b as a string without copying them, the
// way strings.Builder does. The caller must not write to b afterwards.
func String(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Appendf appends the formatted text to dst and returns the extended
// buffer. It knows these verbs, with fmt's meaning:
//
//	%d %+d %4d  a signed or unsigned integer (with sign, or padded to a width)
//	%x %b       an integer in hex or binary
//	%s %q       a string, plain or as a Go string literal
//	%t          a bool
//	%%          a literal percent sign
//
// Arguments must be int, int32, int64, uint64, bool or string. Any other
// verb or argument type is an emitter bug and panics.
func Appendf(dst []byte, format string, args ...any) []byte {
	argi := 0
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			dst = append(dst, format...)
			break
		}
		dst = append(dst, format[:i]...)
		i++
		if format[i] == '%' {
			dst = append(dst, '%')
			format = format[i+1:]
			continue
		}
		plus := format[i] == '+'
		if plus {
			i++
		}
		width := 0
		for ; format[i] >= '0' && format[i] <= '9'; i++ {
			width = width*10 + int(format[i]-'0')
		}
		dst = appendArg(dst, format[i], plus, width, args[argi])
		argi++
		format = format[i+1:]
	}
	if argi != len(args) {
		panic("emit: " + strconv.Itoa(len(args)-argi) + " extra arguments")
	}
	return dst
}

func appendArg(dst []byte, verb byte, plus bool, width int, arg any) []byte {
	switch verb {
	case 'd', 'x', 'b':
		var buf [66]byte
		num := appendInt(buf[:0], verb, plus, arg)
		for i := len(num); i < width; i++ {
			dst = append(dst, ' ')
		}
		return append(dst, num...)
	case 's', 'q':
		s, ok := arg.(string)
		if !ok {
			panic("emit: %" + string(verb) + " of a non-string")
		}
		if verb == 'q' {
			return strconv.AppendQuote(dst, s)
		}
		return append(dst, s...)
	case 't':
		v, ok := arg.(bool)
		if !ok {
			panic("emit: %t of a non-bool")
		}
		return strconv.AppendBool(dst, v)
	}
	panic("emit: unknown verb %" + string(verb))
}

// appendInt appends an integer argument in the base the verb names, led
// by '+' when plus is set and the value is not negative.
func appendInt(dst []byte, verb byte, plus bool, arg any) []byte {
	base := 10
	switch verb {
	case 'x':
		base = 16
	case 'b':
		base = 2
	}
	var v int64
	switch a := arg.(type) {
	case int:
		v = int64(a)
	case int32:
		v = int64(a)
	case int64:
		v = a
	case uint64:
		if plus {
			dst = append(dst, '+')
		}
		return strconv.AppendUint(dst, a, base)
	default:
		panic("emit: %" + string(verb) + " of a non-integer")
	}
	if plus && v >= 0 {
		dst = append(dst, '+')
	}
	return strconv.AppendInt(dst, v, base)
}
