// Package check implements the ESP type checker.
//
// Beyond conventional type checking, the checker enforces the language
// rules the paper leans on (PLDI 2001):
//
//   - every variable is initialized at declaration; per-statement type
//     inference fills in omitted types (§4.1);
//   - no recursive types (§4.1) — they cannot be translated to SPIN;
//   - channel payloads are deeply immutable (§4.2);
//   - the receive patterns on a channel are pairwise disjoint across
//     processes and exhaustive where statically decidable, so a channel
//     plus a pattern forms a single-reader port (§4.2);
//   - external channels have exactly one external side, and internal
//     processes only use the other side (§4.5).
package check

import (
	"fmt"
	"sort"

	"esplang/internal/ast"
	"esplang/internal/diag"
	"esplang/internal/token"
	"esplang/internal/types"
)

// Error is a semantic error with its source position — the shared
// compiler diagnostic, so semantic errors render with caret excerpts.
type Error = diag.Diagnostic

// ErrorList is a list of semantic errors implementing error.
type ErrorList = diag.List

// Var is a process-local variable (declared with $name or bound in a
// pattern). Slot is its dense index in the owning process frame.
type Var struct {
	Name string
	Type *types.Type
	Slot int
	Proc *Process
}

// Channel is a checked channel declaration.
type Channel struct {
	ID    int
	Name  string
	Elem  *types.Type
	Ext   ast.ExtDir
	Decl  *ast.ChannelDecl
	Iface *Interface // non-nil when an interface declaration names this channel
}

// Process is a checked process declaration. Vars lists every variable in
// frame-slot order.
type Process struct {
	ID   int
	Name string
	Decl *ast.ProcessDecl
	Vars []*Var
}

// IfaceParam is one $binding of an interface case pattern: a parameter of
// the generated C function.
type IfaceParam struct {
	Name string
	Type *types.Type
}

// IfaceCase is a checked case of an external interface.
type IfaceCase struct {
	Name    string
	Pattern ast.Expr
	Shape   *Shape
	Params  []IfaceParam
}

// Interface is a checked external interface declaration.
type Interface struct {
	Name  string
	Chan  *Channel
	Dir   token.Kind // token.IN or token.OUT (the external side's operation)
	Cases []IfaceCase
}

// Port is the registration of one receive pattern: (channel, process,
// pattern shape). Each distinct shape per process is one port.
type Port struct {
	Chan  *Channel
	Proc  *Process
	Shape *Shape
	Pos   token.Pos
}

// Info is the result of checking: the resolved program.
type Info struct {
	Universe  *types.Universe
	Types     map[ast.Expr]*types.Type // type of every expression and pattern node
	Consts    map[string]int64
	Channels  []*Channel
	Processes []*Process
	Ifaces    []*Interface
	Uses      map[*ast.Ident]*Var // identifier use -> variable
	Defs      map[*ast.Ident]*Var // $decl or $binding name -> variable
	CommChan  map[*ast.Comm]*Channel
	Shapes    map[*ast.Comm]*Shape // receive comm -> pattern shape
	Ports     []*Port

	ChannelByName map[string]*Channel
	ProcessByName map[string]*Process
}

// Check type-checks prog and returns the resolved Info, or an ErrorList.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Universe:      types.NewUniverse(),
			Types:         make(map[ast.Expr]*types.Type),
			Consts:        make(map[string]int64),
			Uses:          make(map[*ast.Ident]*Var),
			Defs:          make(map[*ast.Ident]*Var),
			CommChan:      make(map[*ast.Comm]*Channel),
			Shapes:        make(map[*ast.Comm]*Shape),
			ChannelByName: make(map[string]*Channel),
			ProcessByName: make(map[string]*Process),
		},
		typeDecls: make(map[string]*ast.TypeDecl),
		resolved:  make(map[string]*types.Type),
		resolving: make(map[string]bool),
	}
	c.program(prog)
	if len(c.errs) > 0 {
		sort.SliceStable(c.errs, func(i, j int) bool {
			a, b := c.errs[i].Pos, c.errs[j].Pos
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return a.Column < b.Column
		})
		return c.info, c.errs
	}
	return c.info, nil
}

type checker struct {
	info *Info
	errs ErrorList

	typeDecls map[string]*ast.TypeDecl
	resolved  map[string]*types.Type
	resolving map[string]bool // cycle detection

	// per-process state
	proc      *Process
	scopes    []map[string]*Var
	loopDepth int
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Program structure

func (c *checker) program(prog *ast.Program) {
	// Pass 1: collect type declarations so names can resolve forward.
	for _, d := range prog.Decls {
		if td, ok := d.(*ast.TypeDecl); ok {
			if _, dup := c.typeDecls[td.Name.Name]; dup {
				c.errorf(td.Pos(), "type %s redeclared", td.Name.Name)
				continue
			}
			c.typeDecls[td.Name.Name] = td
		}
	}
	// Pass 2: constants (in order; later consts may use nothing, they are
	// plain literals).
	for _, d := range prog.Decls {
		if cd, ok := d.(*ast.ConstDecl); ok {
			if _, dup := c.info.Consts[cd.Name.Name]; dup {
				c.errorf(cd.Pos(), "constant %s redeclared", cd.Name.Name)
				continue
			}
			c.info.Consts[cd.Name.Name] = cd.Value
		}
	}
	// Pass 3: resolve all named types (detects recursion). Declaration
	// order, not map order: interning assigns the dense type IDs here, and
	// they must be stable run to run (the IR disassembly and both backends
	// print them).
	for _, d := range prog.Decls {
		if td, ok := d.(*ast.TypeDecl); ok {
			if _, known := c.typeDecls[td.Name.Name]; known {
				c.resolveNamed(td.Name.Name, td.Pos())
			}
		}
	}
	// Pass 4: channels.
	for _, d := range prog.Decls {
		if ch, ok := d.(*ast.ChannelDecl); ok {
			c.channelDecl(ch)
		}
	}
	// Pass 5: interfaces (need channels).
	for _, d := range prog.Decls {
		if id, ok := d.(*ast.InterfaceDecl); ok {
			c.interfaceDecl(id)
		}
	}
	// Pass 6: processes.
	for _, d := range prog.Decls {
		if pd, ok := d.(*ast.ProcessDecl); ok {
			c.processDecl(pd)
		}
	}
	if len(c.info.Processes) == 0 {
		c.errorf(prog.Pos(), "program declares no processes")
	}
	// Pass 7: channel-wide pattern rules.
	c.checkPorts()
}

// ---------------------------------------------------------------------------
// Types

func (c *checker) resolveNamed(name string, pos token.Pos) *types.Type {
	if t, ok := c.resolved[name]; ok {
		return t
	}
	td, ok := c.typeDecls[name]
	if !ok {
		c.errorf(pos, "undefined type %s", name)
		return c.info.Universe.IntType
	}
	if c.resolving[name] {
		c.errorf(td.Pos(), "recursive type %s (ESP has no recursive data types, §4.1)", name)
		t := c.info.Universe.IntType
		c.resolved[name] = t
		return t
	}
	c.resolving[name] = true
	t := c.typeExpr(td.Type)
	delete(c.resolving, name)
	c.info.Universe.SetName(t, name)
	c.resolved[name] = t
	return t
}

func (c *checker) typeExpr(te ast.TypeExpr) *types.Type {
	u := c.info.Universe
	switch x := te.(type) {
	case *ast.PrimType:
		if x.Kind == token.INTTYPE {
			return u.IntType
		}
		return u.BoolType
	case *ast.NamedType:
		return c.resolveNamed(x.Name, x.Pos())
	case *ast.RecordType:
		fields := c.fieldDefs(x.Fields, x.Pos(), "record")
		return u.Record(x.Mutable, fields)
	case *ast.UnionType:
		fields := c.fieldDefs(x.Fields, x.Pos(), "union")
		if len(fields) == 0 {
			c.errorf(x.Pos(), "union type must have at least one field")
		}
		return u.Union(x.Mutable, fields)
	case *ast.ArrayType:
		elem := c.typeExpr(x.Elem)
		if elem.IsRef() {
			// Keep the model SPIN-translatable: arrays of scalars only,
			// like Promela. Arrays of references would also defeat the
			// objectId aliasing scheme (§5.2).
			c.errorf(x.Pos(), "array element type must be int or bool, got %s", elem)
			elem = u.IntType
		}
		return u.Array(x.Mutable, elem, x.Bound)
	}
	c.errorf(te.Pos(), "invalid type expression")
	return u.IntType
}

func (c *checker) fieldDefs(fds []ast.FieldDef, pos token.Pos, what string) []types.Field {
	seen := make(map[string]bool, len(fds))
	fields := make([]types.Field, 0, len(fds))
	for _, fd := range fds {
		if seen[fd.Name.Name] {
			c.errorf(fd.Name.Pos(), "duplicate %s field %s", what, fd.Name.Name)
			continue
		}
		seen[fd.Name.Name] = true
		fields = append(fields, types.Field{Name: fd.Name.Name, Type: c.typeExpr(fd.Type)})
	}
	return fields
}

// ---------------------------------------------------------------------------
// Channels and interfaces

func (c *checker) channelDecl(d *ast.ChannelDecl) {
	if _, dup := c.info.ChannelByName[d.Name.Name]; dup {
		c.errorf(d.Pos(), "channel %s redeclared", d.Name.Name)
		return
	}
	elem := c.typeExpr(d.Elem)
	if !elem.DeeplyImmutable() {
		c.errorf(d.Pos(), "channel %s: payload type %s must be deeply immutable (§4.2); use immutable() to cast before sending", d.Name.Name, elem)
	}
	ch := &Channel{ID: len(c.info.Channels), Name: d.Name.Name, Elem: elem, Ext: d.Ext, Decl: d}
	c.info.Channels = append(c.info.Channels, ch)
	c.info.ChannelByName[ch.Name] = ch
}

func (c *checker) interfaceDecl(d *ast.InterfaceDecl) {
	ch, ok := c.info.ChannelByName[d.Chan.Name]
	if !ok {
		c.errorf(d.Chan.Pos(), "interface %s: undefined channel %s", d.Name.Name, d.Chan.Name)
		return
	}
	wantExt := ast.ExtWriter
	if d.Dir == token.IN {
		wantExt = ast.ExtReader
	}
	switch ch.Ext {
	case ast.ExtNone:
		ch.Ext = wantExt // the interface declaration establishes the external side
	case wantExt:
		// consistent
	default:
		c.errorf(d.Pos(), "interface %s: channel %s is declared %s but the interface implies %s",
			d.Name.Name, ch.Name, ch.Ext, wantExt)
	}
	if ch.Iface != nil {
		c.errorf(d.Pos(), "channel %s already has interface %s", ch.Name, ch.Iface.Name)
		return
	}
	iface := &Interface{Name: d.Name.Name, Chan: ch, Dir: d.Dir}
	for _, ic := range d.Cases {
		params := &[]IfaceParam{}
		shape := c.ifacePattern(ic.Pattern, ch.Elem, params)
		iface.Cases = append(iface.Cases, IfaceCase{
			Name:    ic.Name.Name,
			Pattern: ic.Pattern,
			Shape:   shape,
			Params:  *params,
		})
	}
	// External-writer interface cases must be pairwise disjoint so IsReady
	// can name which one is ready (§4.5).
	for i := 0; i < len(iface.Cases); i++ {
		for j := i + 1; j < len(iface.Cases); j++ {
			if Overlap(iface.Cases[i].Shape, iface.Cases[j].Shape) {
				c.errorf(d.Pos(), "interface %s: cases %s and %s overlap",
					d.Name.Name, iface.Cases[i].Name, iface.Cases[j].Name)
			}
		}
	}
	ch.Iface = iface
	c.info.Ifaces = append(c.info.Ifaces, iface)
}

// ifacePattern types an interface case pattern. Its bindings become C
// function parameters, not process variables.
func (c *checker) ifacePattern(p ast.Expr, expected *types.Type, params *[]IfaceParam) *Shape {
	switch x := p.(type) {
	case *ast.Binding:
		*params = append(*params, IfaceParam{Name: x.Name.Name, Type: expected})
		c.info.Types[p] = expected
		return &Shape{Kind: ShapeAny}
	case *ast.Wildcard:
		c.info.Types[p] = expected
		return &Shape{Kind: ShapeAny}
	case *ast.IntLit:
		if expected.Kind != types.Int {
			c.errorf(p.Pos(), "pattern literal %d where %s expected", x.Value, expected)
		}
		c.info.Types[p] = c.info.Universe.IntType
		return &Shape{Kind: ShapeConst, Int: x.Value}
	case *ast.BoolLit:
		if expected.Kind != types.Bool {
			c.errorf(p.Pos(), "pattern literal %t where %s expected", x.Value, expected)
		}
		c.info.Types[p] = c.info.Universe.BoolType
		v := int64(0)
		if x.Value {
			v = 1
		}
		return &Shape{Kind: ShapeConst, Int: v}
	case *ast.RecordLit:
		if expected.Kind != types.Record {
			c.errorf(p.Pos(), "record pattern where %s expected", expected)
			return &Shape{Kind: ShapeAny}
		}
		if len(x.Elems) != len(expected.Fields) {
			c.errorf(p.Pos(), "record pattern has %d elements, type %s has %d fields",
				len(x.Elems), expected, len(expected.Fields))
			return &Shape{Kind: ShapeAny}
		}
		sh := &Shape{Kind: ShapeRecord}
		for i, el := range x.Elems {
			sh.Elems = append(sh.Elems, c.ifacePattern(el, expected.Fields[i].Type, params))
		}
		c.info.Types[p] = expected
		return sh
	case *ast.UnionLit:
		if expected.Kind != types.Union {
			c.errorf(p.Pos(), "union pattern where %s expected", expected)
			return &Shape{Kind: ShapeAny}
		}
		idx := expected.FieldIndex(x.Field.Name)
		if idx < 0 {
			c.errorf(x.Field.Pos(), "type %s has no field %s", expected, x.Field.Name)
			return &Shape{Kind: ShapeAny}
		}
		inner := c.ifacePattern(x.Value, expected.Fields[idx].Type, params)
		c.info.Types[p] = expected
		return &Shape{Kind: ShapeUnion, Tag: idx, Elems: []*Shape{inner}}
	default:
		c.errorf(p.Pos(), "invalid interface pattern element (want $binding, _, literal, record, or union pattern)")
		return &Shape{Kind: ShapeAny}
	}
}

// ---------------------------------------------------------------------------
// Processes

func (c *checker) processDecl(d *ast.ProcessDecl) {
	if _, dup := c.info.ProcessByName[d.Name.Name]; dup {
		c.errorf(d.Pos(), "process %s redeclared", d.Name.Name)
		return
	}
	p := &Process{ID: len(c.info.Processes), Name: d.Name.Name, Decl: d}
	c.info.Processes = append(c.info.Processes, p)
	c.info.ProcessByName[p.Name] = p

	c.proc = p
	c.scopes = []map[string]*Var{make(map[string]*Var)}
	c.loopDepth = 0
	c.blockInner(d.Body)
	c.proc = nil
	c.scopes = nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*Var)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declareVar(name *ast.Ident, t *types.Type) *Var {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name.Name]; dup {
		c.errorf(name.Pos(), "variable %s redeclared in the same scope", name.Name)
	}
	v := &Var{Name: name.Name, Type: t, Slot: len(c.proc.Vars), Proc: c.proc}
	c.proc.Vars = append(c.proc.Vars, v)
	top[name.Name] = v
	c.info.Defs[name] = v
	return v
}

func (c *checker) lookupVar(name string) *Var {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statements

func (c *checker) blockInner(b *ast.Block) {
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

func (c *checker) block(b *ast.Block) {
	c.pushScope()
	c.blockInner(b)
	c.popScope()
}

func (c *checker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.Block:
		c.block(x)
	case *ast.VarDecl:
		var t *types.Type
		if x.Type != nil {
			t = c.typeExpr(x.Type)
			got := c.expr(x.Init, t)
			if got != t {
				c.errorf(x.Init.Pos(), "cannot initialize %s (type %s) with value of type %s",
					x.Name.Name, t, got)
			}
		} else {
			t = c.expr(x.Init, nil)
		}
		c.declareVar(x.Name, t)
	case *ast.Assign:
		if ast.IsPattern(x.LHS) {
			rhsT := c.expr(x.RHS, nil)
			if rhsT == nil {
				// The untyped right-hand side was already reported; a
				// pattern cannot supply the type.
				return
			}
			c.pattern(x.LHS, rhsT)
			return
		}
		lhsT := c.lvalue(x.LHS)
		got := c.expr(x.RHS, lhsT)
		if lhsT != nil && got != lhsT {
			c.errorf(x.RHS.Pos(), "cannot assign value of type %s to %s", got, lhsT)
		}
	case *ast.While:
		if x.Cond != nil {
			if t := c.expr(x.Cond, c.info.Universe.BoolType); t.Kind != types.Bool {
				c.errorf(x.Cond.Pos(), "while condition must be bool, got %s", t)
			}
		}
		c.loopDepth++
		c.block(x.Body)
		c.loopDepth--
	case *ast.If:
		if t := c.expr(x.Cond, c.info.Universe.BoolType); t.Kind != types.Bool {
			c.errorf(x.Cond.Pos(), "if condition must be bool, got %s", t)
		}
		c.block(x.Then)
		if x.Else != nil {
			c.stmt(x.Else)
		}
	case *ast.Comm:
		c.comm(x, nil)
	case *ast.Alt:
		c.altStmt(x)
	case *ast.Link:
		t := c.expr(x.X, nil)
		if t != nil && !t.IsRef() {
			c.errorf(x.X.Pos(), "link() requires a record, union, or array value, got %s", t)
		}
	case *ast.Unlink:
		t := c.expr(x.X, nil)
		if t != nil && !t.IsRef() {
			c.errorf(x.X.Pos(), "unlink() requires a record, union, or array value, got %s", t)
		}
	case *ast.Assert:
		if t := c.expr(x.X, c.info.Universe.BoolType); t.Kind != types.Bool {
			c.errorf(x.X.Pos(), "assert condition must be bool, got %s", t)
		}
	case *ast.Skip:
	case *ast.BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(x.Pos(), "break outside of while loop")
		}
	}
}

func (c *checker) altStmt(x *ast.Alt) {
	for _, cs := range x.Cases {
		if cs.Guard != nil {
			if t := c.expr(cs.Guard, c.info.Universe.BoolType); t.Kind != types.Bool {
				c.errorf(cs.Guard.Pos(), "alt guard must be bool, got %s", t)
			}
		}
		c.pushScope() // bindings in the case pattern scope to the case body
		c.comm(cs.Comm, cs)
		c.blockInner(cs.Body)
		c.popScope()
	}
}

// comm checks an in/out operation, standalone or as an alt case.
func (c *checker) comm(x *ast.Comm, altCase *ast.AltCase) {
	ch, ok := c.info.ChannelByName[x.Chan.Name]
	if !ok {
		c.errorf(x.Chan.Pos(), "undefined channel %s", x.Chan.Name)
		return
	}
	c.info.CommChan[x] = ch
	if x.Dir == ast.Recv {
		if ch.Ext == ast.ExtReader {
			c.errorf(x.Pos(), "channel %s has an external reader; processes cannot receive on it", ch.Name)
		}
		if altCase == nil {
			c.pushScope()
			defer func() {
				// Hoist the bindings into the enclosing scope: the paper's
				// style uses them after the in statement.
				top := c.scopes[len(c.scopes)-1]
				c.popScope()
				outer := c.scopes[len(c.scopes)-1]
				for name, v := range top {
					if _, dup := outer[name]; dup {
						c.errorf(x.Pos(), "pattern binding %s shadows a variable in the same scope", name)
						continue
					}
					outer[name] = v
				}
			}()
		}
		shape := c.pattern(x.Arg, ch.Elem)
		c.info.Shapes[x] = shape
		c.info.Ports = append(c.info.Ports, &Port{Chan: ch, Proc: c.proc, Shape: shape, Pos: x.Pos()})
		return
	}
	// Send.
	if ch.Ext == ast.ExtWriter {
		c.errorf(x.Pos(), "channel %s has an external writer; processes cannot send on it", ch.Name)
	}
	got := c.expr(x.Arg, ch.Elem)
	if got != ch.Elem {
		c.errorf(x.Arg.Pos(), "out on channel %s requires %s, got %s", ch.Name, ch.Elem, got)
	}
}

// ---------------------------------------------------------------------------
// Patterns

// pattern checks p against the expected type, declaring bound variables,
// and returns its dispatch shape.
func (c *checker) pattern(p ast.Expr, expected *types.Type) *Shape {
	c.info.Types[p] = expected
	switch x := p.(type) {
	case *ast.Binding:
		c.declareVar(x.Name, expected)
		return &Shape{Kind: ShapeAny}
	case *ast.Wildcard:
		return &Shape{Kind: ShapeAny}
	case *ast.Self:
		if expected.Kind != types.Int {
			c.errorf(p.Pos(), "@ pattern requires int position, got %s", expected)
		}
		return &Shape{Kind: ShapeSelf, ProcID: c.proc.ID}
	case *ast.IntLit:
		if expected.Kind != types.Int {
			c.errorf(p.Pos(), "pattern literal %d where %s expected", x.Value, expected)
		}
		return &Shape{Kind: ShapeConst, Int: x.Value}
	case *ast.BoolLit:
		if expected.Kind != types.Bool {
			c.errorf(p.Pos(), "pattern literal %t where %s expected", x.Value, expected)
		}
		v := int64(0)
		if x.Value {
			v = 1
		}
		return &Shape{Kind: ShapeConst, Int: v}
	case *ast.Ident:
		// Equality test against an existing variable or constant.
		if cv, ok := c.info.Consts[x.Name]; ok {
			if expected.Kind != types.Int {
				c.errorf(p.Pos(), "constant %s in pattern requires int position, got %s", x.Name, expected)
			}
			return &Shape{Kind: ShapeConst, Int: cv}
		}
		v := c.lookupVar(x.Name)
		if v == nil {
			c.errorf(p.Pos(), "undefined variable %s in pattern", x.Name)
			return &Shape{Kind: ShapeAny}
		}
		c.info.Uses[x] = v
		if v.Type == nil {
			return &Shape{Kind: ShapeDyn} // its declaration already failed
		}
		if !v.Type.IsScalar() {
			c.errorf(p.Pos(), "pattern equality test requires a scalar variable, %s has type %s", x.Name, v.Type)
			return &Shape{Kind: ShapeAny}
		}
		if v.Type != expected {
			c.errorf(p.Pos(), "pattern variable %s has type %s, position requires %s", x.Name, v.Type, expected)
		}
		return &Shape{Kind: ShapeDyn}
	case *ast.RecordLit:
		if x.Mutable {
			c.errorf(p.Pos(), "patterns cannot be mutable ('#')")
		}
		if expected.Kind != types.Record {
			c.errorf(p.Pos(), "record pattern where %s expected", expected)
			return &Shape{Kind: ShapeAny}
		}
		if len(x.Elems) != len(expected.Fields) {
			c.errorf(p.Pos(), "record pattern has %d elements, type %s has %d fields",
				len(x.Elems), expected, len(expected.Fields))
			return &Shape{Kind: ShapeAny}
		}
		sh := &Shape{Kind: ShapeRecord}
		for i, el := range x.Elems {
			sh.Elems = append(sh.Elems, c.pattern(el, expected.Fields[i].Type))
		}
		return sh
	case *ast.UnionLit:
		if x.Mutable {
			c.errorf(p.Pos(), "patterns cannot be mutable ('#')")
		}
		if expected.Kind != types.Union {
			c.errorf(p.Pos(), "union pattern where %s expected", expected)
			return &Shape{Kind: ShapeAny}
		}
		idx := expected.FieldIndex(x.Field.Name)
		if idx < 0 {
			c.errorf(x.Field.Pos(), "type %s has no field %s", expected, x.Field.Name)
			return &Shape{Kind: ShapeAny}
		}
		inner := c.pattern(x.Value, expected.Fields[idx].Type)
		return &Shape{Kind: ShapeUnion, Tag: idx, Elems: []*Shape{inner}}
	default:
		c.errorf(p.Pos(), "invalid pattern element (want $binding, _, @, literal, variable, record, or union pattern)")
		return &Shape{Kind: ShapeAny}
	}
}

// ---------------------------------------------------------------------------
// Expressions

// lvalue checks an assignment target and returns its type.
func (c *checker) lvalue(e ast.Expr) *types.Type {
	switch x := e.(type) {
	case *ast.Ident:
		if _, isConst := c.info.Consts[x.Name]; isConst {
			c.errorf(e.Pos(), "cannot assign to constant %s", x.Name)
			return c.info.Universe.IntType
		}
		v := c.lookupVar(x.Name)
		if v == nil {
			c.errorf(e.Pos(), "undefined variable %s (declare with $%s = ...)", x.Name, x.Name)
			return nil
		}
		c.info.Uses[x] = v
		c.info.Types[e] = v.Type
		return v.Type
	case *ast.Index:
		xt := c.expr(x.X, nil)
		if xt == nil {
			return nil
		}
		if xt.Kind != types.Array {
			c.errorf(x.X.Pos(), "indexing requires an array, got %s", xt)
			return nil
		}
		if !xt.Mutable {
			c.errorf(e.Pos(), "cannot assign to element of immutable array (cast with mutable() first)")
		}
		if it := c.expr(x.I, c.info.Universe.IntType); it.Kind != types.Int {
			c.errorf(x.I.Pos(), "array index must be int, got %s", it)
		}
		c.info.Types[e] = xt.Elem
		return xt.Elem
	case *ast.FieldSel:
		xt := c.expr(x.X, nil)
		if xt == nil {
			return nil
		}
		if xt.Kind != types.Record {
			c.errorf(x.X.Pos(), "field assignment requires a record, got %s", xt)
			return nil
		}
		if !xt.Mutable {
			c.errorf(e.Pos(), "cannot assign to field of immutable record (cast with mutable() first)")
		}
		idx := xt.FieldIndex(x.Name.Name)
		if idx < 0 {
			c.errorf(x.Name.Pos(), "type %s has no field %s", xt, x.Name.Name)
			return nil
		}
		c.info.Types[e] = xt.Fields[idx].Type
		return xt.Fields[idx].Type
	default:
		c.errorf(e.Pos(), "invalid assignment target")
		return nil
	}
}

// expr type-checks e with an optional expected type (used to type
// composite literals) and returns its type. A nil type means e's type is
// unknown because an error was already reported: a composite literal
// that cannot be inferred, or an expression built on one, such as a
// variable declared from it. In a context that expects a type, such an
// expression takes the expected type, so the one diagnostic does not
// cascade; without an expected type, nil is returned and callers skip
// their own checks on it.
func (c *checker) expr(e ast.Expr, expected *types.Type) *types.Type {
	t := c.exprInner(e, expected)
	if t == nil {
		return expected
	}
	c.info.Types[e] = t
	return t
}

func (c *checker) exprInner(e ast.Expr, expected *types.Type) *types.Type {
	u := c.info.Universe
	switch x := e.(type) {
	case *ast.IntLit:
		return u.IntType
	case *ast.BoolLit:
		return u.BoolType
	case *ast.Self:
		return u.IntType
	case *ast.Ident:
		if _, ok := c.info.Consts[x.Name]; ok {
			return u.IntType
		}
		v := c.lookupVar(x.Name)
		if v == nil {
			c.errorf(e.Pos(), "undefined variable %s", x.Name)
			return u.IntType
		}
		c.info.Uses[x] = v
		return v.Type
	case *ast.Binding:
		c.errorf(e.Pos(), "$%s binding is only allowed in patterns", x.Name.Name)
		return u.IntType
	case *ast.Wildcard:
		c.errorf(e.Pos(), "_ is only allowed in patterns")
		return u.IntType
	case *ast.Unary:
		switch x.Op {
		case token.NOT:
			if t := c.expr(x.X, u.BoolType); t.Kind != types.Bool {
				c.errorf(x.X.Pos(), "! requires bool, got %s", t)
			}
			return u.BoolType
		case token.SUB:
			if t := c.expr(x.X, u.IntType); t.Kind != types.Int {
				c.errorf(x.X.Pos(), "unary - requires int, got %s", t)
			}
			return u.IntType
		}
		c.errorf(e.Pos(), "invalid unary operator %s", x.Op)
		return u.IntType
	case *ast.Binary:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
			lt := c.expr(x.X, u.IntType)
			rt := c.expr(x.Y, u.IntType)
			if lt.Kind != types.Int || rt.Kind != types.Int {
				c.errorf(e.Pos(), "%s requires int operands, got %s and %s", x.Op, lt, rt)
			}
			return u.IntType
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			lt := c.expr(x.X, u.IntType)
			rt := c.expr(x.Y, u.IntType)
			if lt.Kind != types.Int || rt.Kind != types.Int {
				c.errorf(e.Pos(), "%s requires int operands, got %s and %s", x.Op, lt, rt)
			}
			return u.BoolType
		case token.EQL, token.NEQ:
			lt := c.expr(x.X, nil)
			rt := c.expr(x.Y, lt)
			if lt == nil || rt == nil {
				return u.BoolType
			}
			if lt != rt {
				c.errorf(e.Pos(), "%s requires operands of the same type, got %s and %s", x.Op, lt, rt)
			} else if !lt.IsScalar() {
				c.errorf(e.Pos(), "%s compares scalars only; %s values have no equality", x.Op, lt)
			}
			return u.BoolType
		case token.LAND, token.LOR:
			lt := c.expr(x.X, u.BoolType)
			rt := c.expr(x.Y, u.BoolType)
			if lt.Kind != types.Bool || rt.Kind != types.Bool {
				c.errorf(e.Pos(), "%s requires bool operands, got %s and %s", x.Op, lt, rt)
			}
			return u.BoolType
		}
		c.errorf(e.Pos(), "invalid binary operator %s", x.Op)
		return u.IntType
	case *ast.Index:
		xt := c.expr(x.X, nil)
		if xt == nil {
			return nil
		}
		if xt.Kind != types.Array {
			c.errorf(x.X.Pos(), "indexing requires an array, got %s", xt)
			return u.IntType
		}
		if it := c.expr(x.I, u.IntType); it.Kind != types.Int {
			c.errorf(x.I.Pos(), "array index must be int, got %s", it)
		}
		return xt.Elem
	case *ast.FieldSel:
		xt := c.expr(x.X, nil)
		if xt == nil {
			return nil
		}
		if xt.Kind != types.Record {
			c.errorf(x.X.Pos(), "field selection requires a record, got %s", xt)
			return u.IntType
		}
		idx := xt.FieldIndex(x.Name.Name)
		if idx < 0 {
			c.errorf(x.Name.Pos(), "type %s has no field %s", xt, x.Name.Name)
			return u.IntType
		}
		return xt.Fields[idx].Type
	case *ast.RecordLit:
		if expected == nil {
			c.errorf(e.Pos(), "cannot infer type of record literal; add a type annotation")
			return nil
		}
		if expected.Kind != types.Record {
			c.errorf(e.Pos(), "record literal where %s expected", expected)
			return expected
		}
		if expected.Mutable != x.Mutable {
			c.errorf(e.Pos(), "literal mutability ('#') does not match type %s", expected)
		}
		if len(x.Elems) != len(expected.Fields) {
			c.errorf(e.Pos(), "record literal has %d elements, type %s has %d fields",
				len(x.Elems), expected, len(expected.Fields))
			return expected
		}
		for i, el := range x.Elems {
			got := c.expr(el, expected.Fields[i].Type)
			if got != expected.Fields[i].Type {
				c.errorf(el.Pos(), "field %s of %s requires %s, got %s",
					expected.Fields[i].Name, expected, expected.Fields[i].Type, got)
			}
		}
		return expected
	case *ast.UnionLit:
		if expected == nil {
			c.errorf(e.Pos(), "cannot infer type of union literal; add a type annotation")
			return nil
		}
		if expected.Kind != types.Union {
			c.errorf(e.Pos(), "union literal where %s expected", expected)
			return expected
		}
		if expected.Mutable != x.Mutable {
			c.errorf(e.Pos(), "literal mutability ('#') does not match type %s", expected)
		}
		idx := expected.FieldIndex(x.Field.Name)
		if idx < 0 {
			c.errorf(x.Field.Pos(), "type %s has no field %s", expected, x.Field.Name)
			return expected
		}
		got := c.expr(x.Value, expected.Fields[idx].Type)
		if got != expected.Fields[idx].Type {
			c.errorf(x.Value.Pos(), "field %s of %s requires %s, got %s",
				x.Field.Name, expected, expected.Fields[idx].Type, got)
		}
		return expected
	case *ast.ArrayLit:
		if expected == nil {
			c.errorf(e.Pos(), "cannot infer type of array literal; add a type annotation")
			return nil
		}
		if expected.Kind != types.Array {
			c.errorf(e.Pos(), "array literal where %s expected", expected)
			return expected
		}
		if expected.Mutable != x.Mutable {
			c.errorf(e.Pos(), "literal mutability ('#') does not match type %s", expected)
		}
		if ct := c.expr(x.Count, u.IntType); ct.Kind != types.Int {
			c.errorf(x.Count.Pos(), "array size must be int, got %s", ct)
		}
		if got := c.expr(x.Init, expected.Elem); got != expected.Elem {
			c.errorf(x.Init.Pos(), "array element initializer requires %s, got %s", expected.Elem, got)
		}
		return expected
	case *ast.Cast:
		var xt *types.Type
		if expected != nil {
			xt = c.expr(x.X, u.WithMutability(expected, !x.ToMutable))
		} else {
			xt = c.expr(x.X, nil)
		}
		if xt == nil {
			return nil
		}
		if !xt.IsRef() {
			c.errorf(e.Pos(), "mutability cast requires a record, union, or array value, got %s", xt)
			return xt
		}
		return u.WithMutability(xt, x.ToMutable)
	}
	c.errorf(e.Pos(), "invalid expression")
	return u.IntType
}

// ---------------------------------------------------------------------------
// Channel-wide pattern rules (§4.2)

func (c *checker) checkPorts() {
	byChan := make(map[*Channel][]*Port)
	for _, p := range c.info.Ports {
		byChan[p.Chan] = append(byChan[p.Chan], p)
	}
	for _, ch := range c.info.Channels {
		ports := byChan[ch]
		// Disjointness across processes: a channel+pattern is a port with a
		// single reader.
		for i := 0; i < len(ports); i++ {
			for j := i + 1; j < len(ports); j++ {
				a, b := ports[i], ports[j]
				if a.Proc == b.Proc {
					continue // a process may re-use its own pattern at several points
				}
				if Overlap(a.Shape, b.Shape) {
					c.errorf(b.Pos, "receive pattern on channel %s in process %s overlaps pattern in process %s at %s (patterns on a channel must be disjoint, §4.2)",
						ch.Name, b.Proc.Name, a.Proc.Name, a.Pos)
				}
			}
		}
		// Exhaustiveness where statically decidable.
		if len(ports) > 0 {
			shapes := make([]*Shape, len(ports))
			static := true
			for i, p := range ports {
				shapes[i] = p.Shape
				if p.Shape.HasDynamicTest() {
					static = false
				}
			}
			if static && !Exhaustive(shapes, ch.Elem) {
				c.errorf(ports[0].Pos, "receive patterns on channel %s are not exhaustive over %s (§4.2)", ch.Name, ch.Elem)
			}
		}
	}
}
