// Package types defines the semantic types of ESP programs.
//
// ESP has int, bool, and three composite kinds — record, union, array —
// each in a mutable ('#') and an immutable flavor (§4.1). Types are
// structural: two record types with the same field names, field types and
// mutability are the same type. A Universe interns types so identity can
// be compared by pointer and every distinct type gets a small integer ID,
// which the IR, VM heap, and both back ends use.
package types

import (
	"fmt"
	"strings"
)

// Kind classifies a type.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Int
	Bool
	Record
	Union
	Array
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Bool:
		return "bool"
	case Record:
		return "record"
	case Union:
		return "union"
	case Array:
		return "array"
	}
	return "invalid"
}

// Field is a named member of a record or union.
type Field struct {
	Name string
	Type *Type
}

// Type is an interned ESP type. Compare types with ==; they are canonical
// within one Universe.
type Type struct {
	Kind    Kind
	Mutable bool
	Fields  []Field // record, union
	Elem    *Type   // array
	Bound   int64   // array: fixed size for verification back ends (0 = use default)

	id   int
	name string // first declared name, for diagnostics and code generation
	sig  string // Signature, stored by Universe.Intern
}

// ID returns the dense type id assigned by the Universe (0-based).
func (t *Type) ID() int { return t.id }

// Name returns the declared name of the type, or "" for anonymous types.
func (t *Type) Name() string { return t.name }

// IsRef reports whether values of this type are heap references
// (records, unions, arrays) rather than scalars.
func (t *Type) IsRef() bool {
	return t.Kind == Record || t.Kind == Union || t.Kind == Array
}

// IsScalar reports whether the type is int or bool.
func (t *Type) IsScalar() bool { return t.Kind == Int || t.Kind == Bool }

// FieldIndex returns the index of the named field, or -1.
func (t *Type) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// DeeplyImmutable reports whether the type and everything reachable from
// it is immutable — the requirement for channel payloads (§4.2).
func (t *Type) DeeplyImmutable() bool {
	if t == nil {
		return false
	}
	if t.Mutable {
		return false
	}
	switch t.Kind {
	case Record, Union:
		for _, f := range t.Fields {
			if !f.Type.DeeplyImmutable() {
				return false
			}
		}
	case Array:
		return t.Elem.DeeplyImmutable()
	}
	return true
}

// String renders the type for diagnostics, preferring the declared name.
func (t *Type) String() string {
	if t == nil {
		return "<nil type>"
	}
	if t.name != "" {
		return t.name
	}
	return t.Signature()
}

// Signature renders the full structural spelling of the type. It doubles
// as the interning key, and an interned type returns the spelling Intern
// stored.
func (t *Type) Signature() string {
	if t == nil {
		return "<nil>"
	}
	if t.sig != "" {
		return t.sig
	}
	var b strings.Builder
	t.writeSig(&b)
	return b.String()
}

func (t *Type) writeSig(b *strings.Builder) {
	if t.sig != "" {
		b.WriteString(t.sig)
		return
	}
	if t.Mutable {
		b.WriteByte('#')
	}
	switch t.Kind {
	case Int:
		b.WriteString("int")
	case Bool:
		b.WriteString("bool")
	case Record, Union:
		if t.Kind == Record {
			b.WriteString("record of { ")
		} else {
			b.WriteString("union of { ")
		}
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteString(": ")
			f.Type.writeSig(b)
		}
		b.WriteString(" }")
	case Array:
		b.WriteString("array of ")
		t.Elem.writeSig(b)
		if t.Bound > 0 {
			fmt.Fprintf(b, "[%d]", t.Bound)
		}
	default:
		b.WriteString("invalid")
	}
}

// Universe interns types for one program.
type Universe struct {
	bySig map[string]*Type
	all   []*Type

	IntType  *Type
	BoolType *Type
}

// NewUniverse returns an empty universe with int and bool pre-interned.
func NewUniverse() *Universe {
	u := &Universe{bySig: make(map[string]*Type)}
	u.IntType = u.Intern(&Type{Kind: Int})
	u.BoolType = u.Intern(&Type{Kind: Bool})
	return u
}

// Intern canonicalizes t, returning the unique *Type with the same
// structure. The argument must not be mutated afterwards.
func (u *Universe) Intern(t *Type) *Type {
	sig := t.Signature()
	if got, ok := u.bySig[sig]; ok {
		return got
	}
	t.id = len(u.all)
	t.sig = sig
	u.bySig[sig] = t
	u.all = append(u.all, t)
	return t
}

// SetName records the declared name of a type if it does not already have
// one (the first declaration wins, so diagnostics stay stable).
func (u *Universe) SetName(t *Type, name string) {
	if t.name == "" {
		t.name = name
	}
}

// All returns every interned type in ID order. The caller must not mutate
// the returned slice.
func (u *Universe) All() []*Type { return u.all }

// ByID returns the type with the given dense id.
func (u *Universe) ByID(id int) *Type { return u.all[id] }

// Record interns an immutable or mutable record type.
func (u *Universe) Record(mutable bool, fields []Field) *Type {
	return u.Intern(&Type{Kind: Record, Mutable: mutable, Fields: fields})
}

// Union interns a union type.
func (u *Universe) Union(mutable bool, fields []Field) *Type {
	return u.Intern(&Type{Kind: Union, Mutable: mutable, Fields: fields})
}

// Array interns an array type.
func (u *Universe) Array(mutable bool, elem *Type, bound int64) *Type {
	return u.Intern(&Type{Kind: Array, Mutable: mutable, Elem: elem, Bound: bound})
}

// WithMutability returns the counterpart of t with the given outer
// mutability (the type produced by the mutable()/immutable() casts, §4.2).
// Scalars are returned unchanged.
func (u *Universe) WithMutability(t *Type, mutable bool) *Type {
	if t.IsScalar() || t.Mutable == mutable {
		return t
	}
	nt := &Type{Kind: t.Kind, Mutable: mutable, Fields: t.Fields, Elem: t.Elem, Bound: t.Bound}
	return u.Intern(nt)
}
