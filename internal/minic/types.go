// Package minic implements the MiniC source language used as the test-subject
// language of the reproduction: a small, C-like language with globals
// (optionally volatile), multi-dimensional arrays, pointers, loops with
// induction variables, goto/labels, and calls to opaque external functions.
//
// MiniC deliberately has no undefined behaviour: integer arithmetic wraps at
// the declared width, shifts are masked, and division by zero yields zero.
// This removes the UB-validation step of the paper's pipeline (which used
// compile-time checks plus compcert) by construction.
package minic

import (
	"fmt"
	"strings"
)

// Machine memory layout in words, shared by the IR interpreter, the code
// generator and the VM. The checker rejects arrays and globals that do not
// fit in it.
const (
	// GlobalBase is the address of the first global (0 is the null page).
	GlobalBase = 16
	// StackBase is where the first stack frame is allocated. The globals
	// live in [GlobalBase, StackBase).
	StackBase = 1 << 16
	// MemWords is the total simulated memory size in words.
	MemWords = 1<<16 + 1<<14
)

// Type is the interface implemented by all MiniC types.
type Type interface {
	// String renders the type in MiniC source syntax.
	String() string
	// Size returns the size of a value of this type in abstract words.
	Size() int
	typ()
}

// IntType is a fixed-width integer type. Width is in bits (8, 16, 32 or 64).
type IntType struct {
	Width    int
	Unsigned bool
}

// PointerType is a pointer to Elem.
type PointerType struct {
	Elem Type
}

// ArrayType is a fixed-length array of Elem.
type ArrayType struct {
	Elem Type
	Len  int
}

// VoidType is the type of functions that return no value.
type VoidType struct{}

func (t *IntType) typ()     {}
func (t *PointerType) typ() {}
func (t *ArrayType) typ()   {}
func (t *VoidType) typ()    {}

// Predefined types shared across the toolchain. They are canonical: the
// parser and the fuzzer always hand out these pointers for scalar types, so
// identity comparison is safe for them (composite types still require Equal).
var (
	Int8   = &IntType{Width: 8}
	Int16  = &IntType{Width: 16}
	Int32  = &IntType{Width: 32}
	Int64  = &IntType{Width: 64}
	Uint8  = &IntType{Width: 8, Unsigned: true}
	Uint16 = &IntType{Width: 16, Unsigned: true}
	Uint32 = &IntType{Width: 32, Unsigned: true}
	Uint64 = &IntType{Width: 64, Unsigned: true}
	Void   = &VoidType{}
)

func (t *IntType) String() string {
	// Allocation-free for the canonical widths: type names appear in every
	// rendered declaration and every per-function dependency digest, so
	// this is one of the frontend's hottest string paths.
	switch t.Width {
	case 8:
		if t.Unsigned {
			return "unsigned char"
		}
		return "char"
	case 16:
		if t.Unsigned {
			return "unsigned short"
		}
		return "short"
	case 32:
		if t.Unsigned {
			return "unsigned int"
		}
		return "int"
	case 64:
		if t.Unsigned {
			return "unsigned long"
		}
		return "long"
	}
	name := fmt.Sprintf("int%d", t.Width)
	if t.Unsigned {
		return "unsigned " + name
	}
	return name
}

func (t *IntType) Size() int { return 1 }

func (t *PointerType) String() string { return t.Elem.String() + "*" }
func (t *PointerType) Size() int      { return 1 }

func (t *ArrayType) String() string {
	// Arrays print inner-to-outer: int[2][3] is an array of 2 arrays of 3.
	dims := []string{}
	var elem Type = t
	for {
		at, ok := elem.(*ArrayType)
		if !ok {
			break
		}
		dims = append(dims, fmt.Sprintf("[%d]", at.Len))
		elem = at.Elem
	}
	return elem.String() + strings.Join(dims, "")
}

func (t *ArrayType) Size() int { return t.Len * t.Elem.Size() }

// wordSize is Size for a type that fits in MemWords words; it reports
// false for any other type. Unlike Size it cannot overflow, so it is safe
// on any parsed array length.
func wordSize(t Type) (int, bool) {
	at, ok := t.(*ArrayType)
	if !ok {
		return t.Size(), true
	}
	elem, ok := wordSize(at.Elem)
	if !ok || at.Len < 0 || (elem > 0 && at.Len > MemWords/elem) {
		return 0, false
	}
	return at.Len * elem, true
}

func (t *VoidType) String() string { return "void" }
func (t *VoidType) Size() int      { return 0 }

// Equal reports whether two types are structurally identical.
func Equal(a, b Type) bool {
	switch at := a.(type) {
	case *IntType:
		bt, ok := b.(*IntType)
		return ok && at.Width == bt.Width && at.Unsigned == bt.Unsigned
	case *PointerType:
		bt, ok := b.(*PointerType)
		return ok && Equal(at.Elem, bt.Elem)
	case *ArrayType:
		bt, ok := b.(*ArrayType)
		return ok && at.Len == bt.Len && Equal(at.Elem, bt.Elem)
	case *VoidType:
		_, ok := b.(*VoidType)
		return ok
	}
	return false
}

// IsInt reports whether t is an integer type.
func IsInt(t Type) bool { _, ok := t.(*IntType); return ok }

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool { _, ok := t.(*PointerType); return ok }

// IsArray reports whether t is an array type.
func IsArray(t Type) bool { _, ok := t.(*ArrayType); return ok }

// ElemType returns the element type of an array or pointer, or nil.
func ElemType(t Type) Type {
	switch tt := t.(type) {
	case *ArrayType:
		return tt.Elem
	case *PointerType:
		return tt.Elem
	}
	return nil
}

// Truncate wraps v to the width and signedness of t. MiniC arithmetic is
// performed in 64 bits and truncated on store and on expression evaluation,
// giving fully defined two's-complement semantics.
func (t *IntType) Truncate(v int64) int64 {
	if t.Width == 64 {
		return v
	}
	bits := uint(t.Width)
	mask := int64(1)<<bits - 1
	v &= mask
	if !t.Unsigned && v&(1<<(bits-1)) != 0 {
		v -= 1 << bits
	}
	return v
}
