package minic

import (
	"fmt"
)

// Check type-checks prog, filling in the Typ fields of expressions and
// validating name resolution, lvalue-ness, label targets and return types.
// It returns the first error found, or nil.
func Check(prog *Program) error {
	c := &checker{prog: prog, globals: map[string]*GlobalDecl{}, funcs: map[string]*FuncDecl{}}
	end := GlobalBase
	for _, g := range prog.Globals {
		if c.globals[g.Name] != nil {
			return fmt.Errorf("minic: line %d: duplicate global %q", g.Line, g.Name)
		}
		size, ok := wordSize(g.Type)
		if !ok {
			return tooLarge(g.Name, g.Line)
		}
		if end += size; end > StackBase {
			return fmt.Errorf("minic: line %d: globals exceed the %d-word global area", g.Line, StackBase-GlobalBase)
		}
		if err := checkInit(g.Type, g.Init, g.Line); err != nil {
			return err
		}
		c.globals[g.Name] = g
	}
	for _, f := range prog.Funcs {
		if c.funcs[f.Name] != nil {
			return fmt.Errorf("minic: line %d: duplicate function %q", f.Line, f.Name)
		}
		c.funcs[f.Name] = f
	}
	for _, f := range prog.Funcs {
		if f.Opaque {
			continue
		}
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

func tooLarge(name string, line int) error {
	return fmt.Errorf("minic: line %d: %q does not fit in the %d-word machine memory", line, name, MemWords)
}

func checkInit(t Type, iv *InitValue, line int) error {
	if iv == nil {
		return nil
	}
	switch tt := t.(type) {
	case *ArrayType:
		if iv.List == nil {
			return fmt.Errorf("minic: line %d: scalar initialiser for array", line)
		}
		if len(iv.List) > tt.Len {
			return fmt.Errorf("minic: line %d: too many initialisers (%d > %d)", line, len(iv.List), tt.Len)
		}
		for _, sub := range iv.List {
			if err := checkInit(tt.Elem, sub, line); err != nil {
				return err
			}
		}
	case *IntType:
		if iv.List != nil {
			return fmt.Errorf("minic: line %d: aggregate initialiser for scalar", line)
		}
	case *PointerType:
		if iv.List != nil || iv.Scalar != 0 {
			return fmt.Errorf("minic: line %d: pointer globals may only be zero-initialised", line)
		}
	}
	return nil
}

// promote applies C-style usual arithmetic conversions, simplified: the
// result width is the wider of the operands but at least 32 bits, and the
// result is unsigned if either promoted operand is unsigned.
func promote(a, b Type) Type {
	at, aok := a.(*IntType)
	bt, bok := b.(*IntType)
	if !aok || !bok {
		// Pointer arithmetic yields the pointer operand's type.
		if IsPointer(a) {
			return a
		}
		if IsPointer(b) {
			return b
		}
		return Int64
	}
	w := at.Width
	if bt.Width > w {
		w = bt.Width
	}
	if w < 32 {
		w = 32
	}
	unsigned := (at.Unsigned && at.Width >= w) || (bt.Unsigned && bt.Width >= w)
	switch {
	case w == 32 && !unsigned:
		return Int32
	case w == 32:
		return Uint32
	case w == 64 && !unsigned:
		return Int64
	default:
		return Uint64
	}
}

type checker struct {
	prog    *Program
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl

	fn     *FuncDecl
	scopes []map[string]Type
	labels map[string]bool
	gotos  []*GotoStmt
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]Type{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, t Type, line int) error {
	top := c.scopes[len(c.scopes)-1]
	if top[name] != nil {
		return fmt.Errorf("minic: line %d: duplicate local %q", line, name)
	}
	if _, ok := wordSize(t); !ok {
		return tooLarge(name, line)
	}
	top[name] = t
	return nil
}

func (c *checker) lookup(name string) Type {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t := c.scopes[i][name]; t != nil {
			return t
		}
	}
	if g := c.globals[name]; g != nil {
		return g.Type
	}
	return nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn = f
	c.scopes = nil
	c.labels = map[string]bool{}
	c.gotos = nil
	c.push()
	for _, p := range f.Params {
		if err := c.declare(p.Name, p.Type, f.Line); err != nil {
			return err
		}
	}
	// Collect labels first so forward gotos resolve.
	WalkStmt(f.Body, func(s Stmt) bool {
		if ls, ok := s.(*LabeledStmt); ok {
			c.labels[ls.Label] = true
		}
		return true
	})
	if err := c.checkBlock(f.Body); err != nil {
		return err
	}
	c.pop()
	for _, g := range c.gotos {
		if !c.labels[g.Label] {
			return fmt.Errorf("minic: line %d: goto to undefined label %q", g.Line, g.Label)
		}
	}
	return nil
}

func (c *checker) checkBlock(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch x := s.(type) {
	case *Block:
		return c.checkBlock(x)
	case *DeclStmt:
		for _, v := range x.Vars {
			if v.Init != nil {
				if _, err := c.checkExpr(v.Init); err != nil {
					return err
				}
			}
			if err := c.declare(v.Name, v.Type, v.Line); err != nil {
				return err
			}
		}
	case *AssignStmt:
		lt, err := c.checkExpr(x.LHS)
		if err != nil {
			return err
		}
		if !isLValue(x.LHS) {
			return fmt.Errorf("minic: line %d: assignment to non-lvalue", x.Line)
		}
		if IsArray(lt) {
			return fmt.Errorf("minic: line %d: assignment to array", x.Line)
		}
		if _, err := c.checkExpr(x.RHS); err != nil {
			return err
		}
	case *IfStmt:
		if _, err := c.checkExpr(x.Cond); err != nil {
			return err
		}
		if err := c.checkBlock(x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			return c.checkBlock(x.Else)
		}
	case *ForStmt:
		c.push()
		defer c.pop()
		if x.Init != nil {
			if err := c.checkStmt(x.Init); err != nil {
				return err
			}
		}
		if x.Cond != nil {
			if _, err := c.checkExpr(x.Cond); err != nil {
				return err
			}
		}
		if x.Post != nil {
			if err := c.checkStmt(x.Post); err != nil {
				return err
			}
		}
		return c.checkBlock(x.Body)
	case *WhileStmt:
		if _, err := c.checkExpr(x.Cond); err != nil {
			return err
		}
		return c.checkBlock(x.Body)
	case *ExprStmt:
		_, err := c.checkExpr(x.X)
		return err
	case *ReturnStmt:
		if x.X != nil {
			if Equal(c.fn.Ret, Void) {
				return fmt.Errorf("minic: line %d: return with value in void function %q", x.Line, c.fn.Name)
			}
			_, err := c.checkExpr(x.X)
			return err
		}
	case *GotoStmt:
		c.gotos = append(c.gotos, x)
	case *LabeledStmt:
		return c.checkStmt(x.Stmt)
	case *BreakStmt, *ContinueStmt:
		// Loop-nesting validity is enforced by the parser's grammar users;
		// the IR lowering rejects stray break/continue.
	default:
		return fmt.Errorf("minic: unknown statement %T", s)
	}
	return nil
}

func (c *checker) checkExpr(e Expr) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		if x.Typ == nil {
			x.Typ = Int32
		}
		return x.Typ, nil
	case *VarRef:
		t := c.lookup(x.Name)
		if t == nil {
			return nil, fmt.Errorf("minic: line %d: undefined variable %q", x.Line, x.Name)
		}
		x.Typ = t
		return t, nil
	case *IndexExpr:
		bt, err := c.checkExpr(x.Base)
		if err != nil {
			return nil, err
		}
		et := ElemType(bt)
		if et == nil {
			return nil, fmt.Errorf("minic: line %d: indexing non-array", x.Line)
		}
		if _, err := c.checkExpr(x.Index); err != nil {
			return nil, err
		}
		x.Typ = et
		return et, nil
	case *UnaryExpr:
		xt, err := c.checkExpr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case Addr:
			if !isLValue(x.X) {
				return nil, fmt.Errorf("minic: line %d: address of non-lvalue", x.Line)
			}
			x.Typ = &PointerType{Elem: xt}
		case Deref:
			pt, ok := xt.(*PointerType)
			if !ok {
				return nil, fmt.Errorf("minic: line %d: dereference of non-pointer", x.Line)
			}
			x.Typ = pt.Elem
		case LogNot:
			x.Typ = Int32
		default:
			if !IsInt(xt) {
				return nil, fmt.Errorf("minic: line %d: unary %s on non-integer", x.Line, x.Op)
			}
			x.Typ = xt
		}
		return x.Typ, nil
	case *BinaryExpr:
		xt, err := c.checkExpr(x.X)
		if err != nil {
			return nil, err
		}
		if _, err := c.checkExpr(x.Y); err != nil {
			return nil, err
		}
		if x.Op.IsComparison() || x.Op.IsLogical() {
			x.Typ = Int32
		} else {
			x.Typ = promote(xt, x.Y.ExprType())
		}
		return x.Typ, nil
	case *AssignExpr:
		lt, err := c.checkExpr(x.LHS)
		if err != nil {
			return nil, err
		}
		if !isLValue(x.LHS) {
			return nil, fmt.Errorf("minic: line %d: assignment to non-lvalue", x.Line)
		}
		if _, err := c.checkExpr(x.RHS); err != nil {
			return nil, err
		}
		x.Typ = lt
		return lt, nil
	case *CallExpr:
		f := c.funcs[x.Name]
		if f == nil {
			return nil, fmt.Errorf("minic: line %d: call to undefined function %q", x.Line, x.Name)
		}
		if !f.Opaque && len(x.Args) != len(f.Params) {
			return nil, fmt.Errorf("minic: line %d: call to %q with %d args, want %d",
				x.Line, x.Name, len(x.Args), len(f.Params))
		}
		for _, a := range x.Args {
			if _, err := c.checkExpr(a); err != nil {
				return nil, err
			}
		}
		x.Typ = f.Ret
		return f.Ret, nil
	}
	return nil, fmt.Errorf("minic: unknown expression %T", e)
}

// MustParse parses, lays out and checks src, panicking on error. It is a
// convenience for tests and examples.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	AssignLines(prog)
	if err := Check(prog); err != nil {
		panic(err)
	}
	return prog
}
