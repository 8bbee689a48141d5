package minic

import (
	"strings"
	"testing"
	"testing/quick"
)

const paperExample = `
int b[10][2];
int a;
extern void opaque(int x);
int main(void) {
  int i = 0, j, k;
  for (; i < 10; i = i + 1) {
    j = 0;
    k = 0;
    for (; k < 1; k = k + 1) {
      a = b[i][j * k];
    }
  }
  return 0;
}
`

func TestParsePaperExample(t *testing.T) {
	prog, err := Parse(paperExample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Globals) != 2 {
		t.Fatalf("globals = %d, want 2", len(prog.Globals))
	}
	if prog.Globals[0].Name != "b" || !IsArray(prog.Globals[0].Type) {
		t.Errorf("global b wrong: %+v", prog.Globals[0])
	}
	at := prog.Globals[0].Type.(*ArrayType)
	if at.Len != 10 {
		t.Errorf("outer array len = %d, want 10", at.Len)
	}
	inner, ok := at.Elem.(*ArrayType)
	if !ok || inner.Len != 2 {
		t.Errorf("inner array wrong: %v", at.Elem)
	}
	f := prog.Func("opaque")
	if f == nil || !f.Opaque {
		t.Fatalf("opaque function not parsed as opaque: %+v", f)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := LexAll("int x = 0x1F; // comment\n x = x << 2;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	want := []string{"int", "x", "=", "0x1F", ";", "x", "=", "x", "<<", "2", ";"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
	if toks[3].Val != 0x1F {
		t.Errorf("hex literal = %d, want 31", toks[3].Val)
	}
}

func TestLexerBlockComment(t *testing.T) {
	toks, err := LexAll("int /* hi\nthere */ y;")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1].Text != "y" {
		t.Errorf("tokens = %v", toks)
	}
	if toks[1].Line != 2 {
		t.Errorf("y on line %d, want 2", toks[1].Line)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := LexAll("int x = @;"); err == nil {
		t.Error("expected error for bad character")
	}
	if _, err := LexAll("/* unterminated"); err == nil {
		t.Error("expected error for unterminated comment")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	prog := MustParse(paperExample)
	src := Render(prog)
	prog2, err := Parse(src)
	if err != nil {
		t.Fatalf("reparse: %v\nsource:\n%s", err, src)
	}
	AssignLines(prog2)
	if err := Check(prog2); err != nil {
		t.Fatalf("recheck: %v", err)
	}
	src2 := Render(prog2)
	if src != src2 {
		t.Errorf("render not idempotent:\n--- first ---\n%s\n--- second ---\n%s", src, src2)
	}
}

func TestAssignLinesMatchesRender(t *testing.T) {
	// The line numbers stored by AssignLines must equal those a parser sees
	// in the rendered text.
	prog := MustParse(paperExample)
	src := Render(prog)
	prog2, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog2); err != nil {
		t.Fatal(err)
	}
	// Collect (statement kind, line) pairs from both and compare.
	collect := func(p *Program) []int {
		var lines []int
		for _, f := range p.Funcs {
			if f.Body == nil {
				continue
			}
			WalkStmt(f.Body, func(s Stmt) bool {
				lines = append(lines, s.Pos())
				return true
			})
		}
		return lines
	}
	a, b := collect(prog), collect(prog2)
	if len(a) != len(b) {
		t.Fatalf("statement count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("statement %d: line %d (assigned) vs %d (parsed)", i, a[i], b[i])
		}
	}
}

func TestCheckerRejects(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"undefined var", "int main(void) { x = 1; return 0; }"},
		{"undefined func", "int main(void) { f(1); return 0; }"},
		{"dup global", "int a; int a; int main(void) { return 0; }"},
		{"dup local", "int main(void) { int a; int a; return 0; }"},
		{"goto nowhere", "int main(void) { goto nope; return 0; }"},
		{"index scalar", "int a; int main(void) { a[0] = 1; return 0; }"},
		{"deref int", "int a; int main(void) { int x; x = *a; return 0; }"},
		{"addr of literal", "int main(void) { int* p; p = &3; return 0; }"},
		{"return in void", "void f(void) { return 3; } int main(void) { return 0; }"},
		{"wrong argc", "void f(int a) { } int main(void) { f(1, 2); return 0; }"},
		{"array overflows int", "int g[9223372036854775807]; int main(void) { return g[0]; }"},
		{"negative array length", "int g[18446744073709551615]; int main(void) { return 0; }"},
		{"array of arrays overflows int", "int g[4294967296][4294967296]; int main(void) { return 0; }"},
		{"local array past memory", "int main(void) { int a[100000]; a[0] = 1; return a[0]; }"},
		{"globals past memory", "int a[50000]; int b[50000]; int c[50000]; int main(void) { return a[0] + b[0] + c[0]; }"},
		{"globals into the stack", "int g[65521]; int main(void) { return g[0]; }"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				return // parse error is also acceptable rejection
			}
			if err := Check(prog); err == nil {
				t.Errorf("Check accepted invalid program %q", tc.src)
			}
		})
	}
}

// TestCheckerAcceptsArraysThatFit is the boundary of the oversized-array
// cases of TestCheckerRejects: globals that exactly fill the global area,
// and a local array of all of memory (a run-time stack overflow, not a
// type error).
func TestCheckerAcceptsArraysThatFit(t *testing.T) {
	for _, src := range []string{
		"int g[65520]; int main(void) { return g[0]; }",
		"int main(void) { int a[81920]; return 0; }",
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := Check(prog); err != nil {
			t.Errorf("Check rejected %q: %v", src, err)
		}
	}
}

func TestTruncate(t *testing.T) {
	cases := []struct {
		t    *IntType
		in   int64
		want int64
	}{
		{Int8, 200, -56},
		{Uint8, 200, 200},
		{Uint8, 256, 0},
		{Int8, -129, 127},
		{Int16, 40000, -25536},
		{Uint16, 70000, 4464},
		{Int32, 1 << 40, 0},
		{Int64, -5, -5},
		{Uint32, -1, 4294967295},
	}
	for _, tc := range cases {
		if got := tc.t.Truncate(tc.in); got != tc.want {
			t.Errorf("%v.Truncate(%d) = %d, want %d", tc.t, tc.in, got, tc.want)
		}
	}
}

func TestTruncateProperties(t *testing.T) {
	// Truncate is idempotent and stays within range for all widths.
	for _, it := range []*IntType{Int8, Int16, Int32, Uint8, Uint16, Uint32} {
		it := it
		f := func(v int64) bool {
			once := it.Truncate(v)
			if it.Truncate(once) != once {
				return false
			}
			if it.Unsigned {
				return once >= 0 && once < 1<<uint(it.Width)
			}
			lo := -(int64(1) << uint(it.Width-1))
			hi := int64(1)<<uint(it.Width-1) - 1
			return once >= lo && once <= hi
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", it, err)
		}
	}
}

func TestTypeString(t *testing.T) {
	cases := []struct {
		typ  Type
		want string
	}{
		{Int32, "int"},
		{Int16, "short"},
		{Uint16, "unsigned short"},
		{&PointerType{Elem: Int32}, "int*"},
		{&ArrayType{Elem: &ArrayType{Elem: Int32, Len: 4}, Len: 2}, "int[2][4]"},
		{Void, "void"},
	}
	for _, tc := range cases {
		if got := tc.typ.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !Equal(&IntType{Width: 32}, Int32) {
		t.Error("structurally equal ints not Equal")
	}
	if Equal(Int32, Uint32) {
		t.Error("signed/unsigned should differ")
	}
	a := &ArrayType{Elem: Int32, Len: 3}
	b := &ArrayType{Elem: Int32, Len: 3}
	c := &ArrayType{Elem: Int32, Len: 4}
	if !Equal(a, b) || Equal(a, c) {
		t.Error("array equality wrong")
	}
	if !Equal(&PointerType{Elem: a}, &PointerType{Elem: b}) {
		t.Error("pointer equality wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	prog := MustParse(paperExample)
	cp := Clone(prog)
	// Mutate the clone and ensure the original is untouched.
	cp.Globals[0].Name = "zzz"
	main := cp.Func("main")
	main.Body.Stmts = nil
	if prog.Globals[0].Name != "b" {
		t.Error("clone shares global decls")
	}
	if len(prog.Func("main").Body.Stmts) == 0 {
		t.Error("clone shares statement slices")
	}
	// A fresh clone renders identically.
	cp2 := Clone(prog)
	if Render(cp2) != Render(prog) {
		t.Error("clone renders differently")
	}
}

func TestGotoLabelRoundTrip(t *testing.T) {
	src := `
int a;
int main(void) {
  int x = 0;
f: if (a) {
    goto f;
  }
  x = x + 1;
  return x;
}
`
	prog := MustParse(src)
	text := Render(prog)
	if !strings.Contains(text, "f: if (a)") {
		t.Errorf("label not rendered inline:\n%s", text)
	}
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if err := Check(prog2); err != nil {
		t.Fatal(err)
	}
}

func TestExprPrecedenceRoundTrip(t *testing.T) {
	srcs := []string{
		"int a; int b; int c; int main(void) { a = b + c * 2; return 0; }",
		"int a; int b; int main(void) { a = (b + 1) * 2; return 0; }",
		"int a; int b; int c; int main(void) { a = b << 2 | c & 3; return 0; }",
		"int a; int b; int main(void) { a = -b + ~a; return 0; }",
		"int a; int b; int main(void) { if ((a = b) == 0 && b > 1) { a = 2; } return 0; }",
	}
	for _, src := range srcs {
		prog := MustParse(src)
		text := Render(prog)
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q: %v\n%s", src, err, text)
		}
		AssignLines(prog2)
		if err := Check(prog2); err != nil {
			t.Fatal(err)
		}
		if Render(prog2) != text {
			t.Errorf("precedence round trip changed:\n%s\nvs\n%s", text, Render(prog2))
		}
	}
}

func TestWalkExprStops(t *testing.T) {
	prog := MustParse("int a; int main(void) { a = 1 + 2 * 3; return 0; }")
	var count int
	stmts := prog.Func("main").Body.Stmts
	as := stmts[0].(*AssignStmt)
	WalkExpr(as.RHS, func(e Expr) bool {
		count++
		return false // do not descend
	})
	if count != 1 {
		t.Errorf("walk visited %d nodes with early stop, want 1", count)
	}
	count = 0
	WalkExpr(as.RHS, func(e Expr) bool { count++; return true })
	if count != 5 { // (+ 1 (* 2 3)) = 5 nodes
		t.Errorf("walk visited %d nodes, want 5", count)
	}
}

func TestVolatileGlobal(t *testing.T) {
	prog := MustParse("volatile int a; int main(void) { a = 1; return 0; }")
	if !prog.Globals[0].Volatile {
		t.Error("volatile not parsed")
	}
	if !strings.Contains(Render(prog), "volatile int a;") {
		t.Error("volatile not rendered")
	}
}

func TestGlobalInitializers(t *testing.T) {
	src := "int a[2][2] = {{1, 2}, {3, 4}};\nshort b = -7;\nint main(void) { return 0; }\n"
	prog := MustParse(src)
	g := prog.Global("a")
	if g.Init == nil || len(g.Init.List) != 2 || g.Init.List[1].List[0].Scalar != 3 {
		t.Errorf("array init wrong: %+v", g.Init)
	}
	if prog.Global("b").Init.Scalar != -7 {
		t.Error("negative scalar init wrong")
	}
	// Over-long initialisers are rejected.
	if _, err := Parse("int a[1] = {1, 2}; int main(void) { return 0; }"); err == nil {
		prog, _ := Parse("int a[1] = {1, 2}; int main(void) { return 0; }")
		if err := Check(prog); err == nil {
			t.Error("oversized initialiser accepted")
		}
	}
}
