// Package promela translates type-checked ESP programs into Promela, the
// input language of the SPIN model checker — the pgm.SPIN output of
// Figure 4 in the paper.
//
// Following §5.2, the translation happens right after type checking (no
// compiler-introduced temporaries inflate the state vector) and encodes
// ESP's pointer-based heap with the objectId scheme:
//
//   - every composite type gets fixed-size parallel arrays (one slot per
//     objectId) holding its fields, a reference count, and a live bit;
//   - allocation scans for a free objectId inside d_step; running out of
//     ids is asserted against — which is how leaks surface (§5.2);
//   - every access asserts the live bit — the memory-safety check;
//   - channel payloads are flattened: a record payload becomes one
//     channel field per record field, a union payload becomes a tag field
//     plus payload fields (the §6.1 record-allocation fusion, applied at
//     the model level);
//   - unlink is emitted per type, recursively unlinking reference fields
//     (ESP has no recursive types, so the inline nesting terminates).
//
// Known, documented simplification: a boolean alt guard is emitted as the
// leading condition of its option (":: guard -> c?msg"), which in Promela
// commits to the option once the guard holds. The bundled model checker
// (internal/mc) implements the exact ESP semantics and is the verification
// engine actually used by this repository's tests; the Promela output is
// the interoperability artifact.
package promela

import (
	"strconv"

	"esplang/internal/ast"
	"esplang/internal/check"
	"esplang/internal/emit"
	"esplang/internal/token"
	"esplang/internal/types"
)

// Options configures generation.
type Options struct {
	// DefaultBound is the objectId-table size for composite types without
	// an explicit array bound (0 = 16).
	DefaultBound int
	// Instances is the number of program copies a hand-written SPIN test
	// driver intends to run (0 or 1 = one). It only sets the INSTANCES
	// constant for that driver; the emitted model itself is one copy,
	// with one table per type and one channel per declaration.
	Instances int
	// File, when set, annotates every emitted statement with its ESP
	// source location ("/* file.esp:12 */") so SPIN counterexamples can
	// be traced back to the ESP text.
	File string
}

// Generate renders the Promela specification for a checked program.
func Generate(prog *ast.Program, info *check.Info, opts Options) string {
	if opts.DefaultBound <= 0 {
		opts.DefaultBound = 16
	}
	if opts.Instances < 1 {
		opts.Instances = 1
	}
	g := &gen{info: info, opts: opts}
	for _, t := range info.Universe.All() {
		name := t.Name()
		if name == "" {
			name = "anon" + strconv.Itoa(t.ID())
		}
		g.names = append(g.names, name)
	}
	return g.run(prog)
}

// gen appends the Promela text to b. Expressions are appended in place
// to the scratch buffer e, in a stack discipline: a caller notes len(e),
// appends, copies e[mark:] into its line and truncates e back to mark.
// An allocating literal writes its statements to b while an enclosing
// expression is still being built in e, so they land before the line
// that uses it.
type gen struct {
	b      []byte
	body   []byte // a process body, which must follow its declarations
	e      []byte // expressions under construction
	post   []byte // the statements a receive emits after it
	path   []field
	names  []string // Promela identifier prefix of each type, by type ID
	info   *check.Info
	opts   Options
	indent int

	temps int // tmp<n> variables the current process uses
}

// field is one level of a destructuring access path: field i of the
// composite type t, rendered <t>_f<i>[<inner>].
type field struct {
	t *types.Type
	i int
}

// tname returns the Promela identifier prefix of a composite type.
func (g *gen) tname(t *types.Type) string { return g.names[t.ID()] }

// w appends one statement line at the current indentation.
func (g *gen) w(format string, args ...any) { g.stmtTo(&g.b, format, args...) }

// stmtTo appends one statement line at the current indentation to *out.
func (g *gen) stmtTo(out *[]byte, format string, args ...any) {
	*out = emit.Appendf(g.indentTo(*out), format, args...)
	*out = append(*out, '\n')
}

func (g *gen) raw(format string, args ...any) {
	g.b = emit.Appendf(g.b, format, args...)
	g.b = append(g.b, '\n')
}

func (g *gen) indentTo(b []byte) []byte {
	for i := 0; i < g.indent; i++ {
		b = append(b, "    "...)
	}
	return b
}

// ef appends formatted text to the expression under construction.
func (g *gen) ef(format string, args ...any) { g.e = emit.Appendf(g.e, format, args...) }

// flush appends the expression text e[mark:] and then suffix to the
// output, and pops the expression.
func (g *gen) flush(mark int, suffix string) {
	g.b = append(append(g.b, g.e[mark:]...), suffix...)
	g.e = g.e[:mark]
}

// start begins a statement line in the output: the indentation, then
// the formatted text.
func (g *gen) start(format string, args ...any) {
	g.b = emit.Appendf(g.indentTo(g.b), format, args...)
}

func (g *gen) bound(t *types.Type) int {
	if t.Kind == types.Array && t.Bound > 0 {
		return int(t.Bound)
	}
	return g.opts.DefaultBound
}

// composites returns the composite types in dependency order (children
// before parents), which the per-type unlink inlines require.
func (g *gen) composites() []*types.Type {
	var out []*types.Type
	seen := map[*types.Type]bool{}
	var visit func(t *types.Type)
	visit = func(t *types.Type) {
		if t == nil || seen[t] || !t.IsRef() {
			return
		}
		seen[t] = true
		for _, f := range t.Fields {
			visit(f.Type)
		}
		if t.Elem != nil {
			visit(t.Elem)
		}
		out = append(out, t)
	}
	for _, t := range g.info.Universe.All() {
		visit(t)
	}
	return out
}

// sizeHint estimates the length of the Promela text: about twice the
// source up to the last declaration, plus 800 bytes of tables and
// inlines per type.
func sizeHint(prog *ast.Program, info *check.Info) int {
	n := 1<<10 + 800*len(info.Universe.All())
	if len(prog.Decls) > 0 {
		n += 2 * prog.Decls[len(prog.Decls)-1].Pos().Offset
	}
	return n
}

func (g *gen) run(prog *ast.Program) string {
	g.b = make([]byte, 0, sizeHint(prog, g.info))
	g.raw("/* Generated by the ESP compiler: SPIN specification (Figure 4, pgm.SPIN).")
	g.raw(" * Combine with a hand-written test driver (test.SPIN) that produces")
	g.raw(" * external events and asserts the properties to verify (§5.2). */")
	g.raw("")

	for _, v := range sortedConsts(g.info.Consts) {
		g.raw("#define %s %d", v.name, v.val)
	}
	if len(g.info.Consts) > 0 {
		g.raw("")
	}
	g.raw("#define INSTANCES %d", g.opts.Instances)
	g.raw("")

	// Object tables and allocation/refcount inlines (§5.2 objectId scheme).
	comps := g.composites()
	for _, t := range comps {
		g.emitTypeTables(t)
	}
	for _, t := range comps {
		g.emitAllocInline(t)
	}
	for _, t := range comps {
		g.emitUnlinkInline(t)
	}

	// Channels.
	for _, ch := range g.info.Channels {
		g.emitChannel(ch)
	}
	g.raw("")

	// Processes.
	for _, p := range g.info.Processes {
		g.emitProcess(p)
	}

	// init: run every process once.
	g.raw("init {")
	g.raw("    atomic {")
	for _, p := range g.info.Processes {
		g.raw("        run %s();", p.Name)
	}
	g.raw("    }")
	g.raw("}")
	return emit.String(g.b)
}

type constEntry struct {
	name string
	val  int64
}

func sortedConsts(m map[string]int64) []constEntry {
	out := make([]constEntry, 0, len(m))
	for k, v := range m {
		out = append(out, constEntry{k, v})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Types: objectId tables

func (g *gen) emitTypeTables(t *types.Type) {
	n := g.tname(t)
	max := g.opts.DefaultBound
	g.raw("/* objectId tables for %s (handle 0 = null) */", t.String())
	g.raw("#define %s_MAX %d", n, max)
	switch t.Kind {
	case types.Record:
		for i, f := range t.Fields {
			g.raw("%s %s_f%d[%s_MAX+1]; /* %s */", promType(f.Type), n, i, n, f.Name)
		}
	case types.Union:
		g.raw("byte %s_tag[%s_MAX+1];", n, n)
		for i, f := range t.Fields {
			g.raw("%s %s_f%d[%s_MAX+1]; /* %s */", promType(f.Type), n, i, n, f.Name)
		}
	case types.Array:
		g.raw("#define %s_BOUND %d", n, g.bound(t))
		g.raw("typedef %s_row { %s e[%s_BOUND]; byte n };", n, promType(t.Elem), n)
		g.raw("%s_row %s_data[%s_MAX+1];", n, n, n)
	}
	g.raw("byte %s_rc[%s_MAX+1];", n, n)
	g.raw("bit %s_live[%s_MAX+1];", n, n)
	g.raw("")
}

// promType maps a field type to its Promela cell type: scalars inline,
// references as int handles.
func promType(t *types.Type) string {
	switch t.Kind {
	case types.Bool:
		return "bool"
	default:
		return "int"
	}
}

func (g *gen) emitAllocInline(t *types.Type) {
	n := g.tname(t)
	g.raw("inline alloc_%s(h) {", n)
	g.raw("    d_step {")
	g.raw("        h = 0;")
	g.raw("        byte alloc_%s_i;", n)
	g.raw("        for (alloc_%s_i : 1 .. %s_MAX) {", n, n)
	g.raw("            if")
	g.raw("            :: (h == 0 && %s_live[alloc_%s_i] == 0) -> h = alloc_%s_i", n, n, n)
	g.raw("            :: else -> skip")
	g.raw("            fi")
	g.raw("        }")
	g.raw("        assert(h != 0); /* out of objectIds: memory leak (§5.2) */")
	g.raw("        %s_live[h] = 1; %s_rc[h] = 1;", n, n)
	g.raw("    }")
	g.raw("}")
	g.raw("")
}

func (g *gen) emitUnlinkInline(t *types.Type) {
	n := g.tname(t)
	g.raw("inline link_%s(h) {", n)
	g.raw("    assert(%s_live[h]); %s_rc[h]++;", n, n)
	g.raw("}")
	g.raw("inline unlink_%s(h) {", n)
	g.raw("    d_step {")
	g.raw("        assert(%s_live[h]); /* no double free */", n)
	g.raw("        %s_rc[h]--;", n)
	g.raw("        if")
	g.raw("        :: (%s_rc[h] == 0) -> %s_live[h] = 0;", n, n)
	// Recursively unlink reference children.
	for i, f := range t.Fields {
		if f.Type.IsRef() {
			g.raw("            unlink_%s(%s_f%d[h]);", g.tname(f.Type), n, i)
		}
	}
	g.raw("        :: else -> skip")
	g.raw("        fi")
	g.raw("    }")
	g.raw("}")
	g.raw("")
}

// ---------------------------------------------------------------------------
// Channels

// emitChannel declares a channel with its payload flattened into Promela
// fields (§6.1 fusion at the model level): one per record field, or a
// tag and one handle/scalar slot per union field (only the valid one is
// meaningful).
func (g *gen) emitChannel(ch *check.Channel) {
	g.b = emit.Appendf(g.b, "chan %s = [0] of { ", ch.Name)
	elem := ch.Elem
	switch elem.Kind {
	case types.Record:
		for i, f := range elem.Fields {
			if i > 0 {
				g.b = append(g.b, ", "...)
			}
			g.b = append(g.b, promType(f.Type)...)
		}
	case types.Union:
		g.b = append(g.b, "byte"...)
		for range elem.Fields {
			g.b = append(g.b, ", int"...)
		}
	default:
		g.b = append(g.b, promType(elem)...)
	}
	g.b = append(g.b, " };"...)
	switch ch.Ext {
	case ast.ExtReader:
		g.b = append(g.b, " /* external reader: test driver consumes */"...)
	case ast.ExtWriter:
		g.b = append(g.b, " /* external writer: test driver produces */"...)
	}
	g.b = append(g.b, '\n')
}

// ---------------------------------------------------------------------------
// Processes

func (g *gen) emitProcess(p *check.Process) {
	g.temps = 0
	main := g.b
	g.b = g.body[:0]
	g.indent = 1
	g.blockStmts(p.Decl.Body)
	g.indent = 0
	g.body = g.b
	g.b = main

	g.raw("proctype %s() {", p.Name)
	for _, v := range p.Vars {
		g.raw("    %s %s_%d; /* %s */", promType(v.Type), v.Name, v.Slot, v.Type.String())
	}
	for i := 0; i < g.temps; i++ {
		g.raw("    int tmp%d;", i)
	}
	g.b = append(g.b, g.body...)
	g.raw("}")
	g.raw("")
}

func (g *gen) blockStmts(b *ast.Block) {
	for _, s := range b.Stmts {
		g.stmt(s)
	}
}

// exprLine appends the statement line made of the formatted prefix,
// expression e and suffix.
func (g *gen) exprLine(e ast.Expr, suffix, prefix string, args ...any) {
	mark := len(g.e)
	g.expr(e)
	g.start(prefix, args...)
	g.flush(mark, suffix)
}

func (g *gen) stmt(s ast.Stmt) {
	if g.opts.File != "" {
		if pos := s.Pos(); pos.IsValid() {
			if _, isBlock := s.(*ast.Block); !isBlock {
				g.w("/* %s:%d */", g.opts.File, pos.Line)
			}
		}
	}
	switch x := s.(type) {
	case *ast.Block:
		g.blockStmts(x)
	case *ast.VarDecl:
		v := g.info.Defs[x.Name]
		mark := len(g.e)
		g.expr(x.Init)
		g.start("%s_%d = ", v.Name, v.Slot)
		g.flush(mark, ";\n")
	case *ast.Assign:
		mark := len(g.e)
		if ast.IsPattern(x.LHS) {
			g.expr(x.RHS)
			g.destructure(&g.b, x.LHS, mark, len(g.e), g.info.Types[x.RHS])
			g.e = g.e[:mark]
			return
		}
		g.lvalue(x.LHS)
		rhs := len(g.e)
		g.expr(x.RHS)
		g.b = append(g.indentTo(g.b), g.e[mark:rhs]...)
		g.b = append(g.b, " = "...)
		g.flush(rhs, ";\n")
		g.e = g.e[:mark]
	case *ast.While:
		g.w("do")
		if x.Cond == nil {
			g.w(":: true ->")
		} else {
			g.exprLine(x.Cond, ") ->\n", ":: (")
		}
		g.indent++
		g.blockStmts(x.Body)
		g.indent--
		if x.Cond != nil {
			g.w(":: else -> break")
		}
		g.w("od;")
	case *ast.If:
		g.w("if")
		g.exprLine(x.Cond, ") ->\n", ":: (")
		g.indent++
		g.blockStmts(x.Then)
		g.indent--
		if x.Else != nil {
			g.w(":: else ->")
			g.indent++
			g.stmt(x.Else)
			g.indent--
		} else {
			g.w(":: else -> skip")
		}
		g.w("fi;")
	case *ast.Comm:
		g.comm(x)
	case *ast.Alt:
		g.w("if")
		for _, cs := range x.Cases {
			if cs.Guard != nil {
				// Documented simplification: the guard commits the option.
				g.exprLine(cs.Guard, ") ->\n", ":: (")
			} else {
				g.w("::")
			}
			g.indent++
			g.comm(cs.Comm)
			g.blockStmts(cs.Body)
			g.indent--
		}
		g.w("fi;")
	case *ast.Link:
		g.exprLine(x.X, ");\n", "link_%s(", g.tname(g.info.Types[x.X]))
	case *ast.Unlink:
		g.exprLine(x.X, ");\n", "unlink_%s(", g.tname(g.info.Types[x.X]))
	case *ast.Assert:
		g.exprLine(x.X, ");\n", "assert(")
	case *ast.Skip:
		g.w("skip;")
	case *ast.BreakStmt:
		g.w("break;")
	}
}

// comm emits a channel operation with the flattened payload.
func (g *gen) comm(c *ast.Comm) {
	ch := g.info.CommChan[c]
	if c.Dir == ast.Send {
		mark := len(g.e)
		g.sendPayload(c.Arg, ch.Elem)
		g.start("%s!", ch.Name)
		g.flush(mark, ";\n")
		return
	}
	g.recvPattern(c.Arg, ch)
}

// sendPayload appends the flattened send arguments to e.
func (g *gen) sendPayload(arg ast.Expr, elem *types.Type) {
	switch x := arg.(type) {
	case *ast.RecordLit:
		if elem.Kind == types.Record {
			for i, el := range x.Elems {
				if i > 0 {
					g.ef(", ")
				}
				g.expr(el)
			}
			return
		}
	case *ast.UnionLit:
		if elem.Kind == types.Union {
			tag := elem.FieldIndex(x.Field.Name)
			g.ef("%d", tag)
			for i := range elem.Fields {
				if i == tag {
					g.ef(", ")
					g.expr(x.Value)
				} else {
					g.ef(", 0")
				}
			}
			return
		}
	}
	if elem.Kind != types.Record && elem.Kind != types.Union {
		g.expr(arg)
		return
	}
	// A record or union variable: send its cells from the tables. The
	// handle expression h is rendered once and copied into each cell.
	h := len(g.e)
	g.expr(arg)
	end := len(g.e)
	n := g.tname(elem)
	if elem.Kind == types.Union {
		g.ef("%s_tag[", n)
		g.e = append(append(g.e, g.e[h:end]...), "], "...)
	}
	for i := range elem.Fields {
		if i > 0 {
			g.ef(", ")
		}
		g.ef("%s_f%d[", n, i)
		g.e = append(append(g.e, g.e[h:end]...), ']')
	}
	g.e = g.e[:h+copy(g.e[h:], g.e[end:])]
}

// recvPattern emits a receive with pattern tests folded into eval()
// arguments and bindings into plain variables. The receive's fields are
// built in e; the statements that complete the bindings collect in post
// and follow the receive.
func (g *gen) recvPattern(pat ast.Expr, ch *check.Channel) {
	elem := ch.Elem
	n := g.tname(elem)
	mark := len(g.e)
	g.post = g.post[:0]
	// next appends the next receive field.
	next := func(format string, args ...any) {
		if len(g.e) > mark {
			g.ef(", ")
		}
		g.ef(format, args...)
	}
	bindField := func(p ast.Expr, ft *types.Type) {
		switch y := p.(type) {
		case *ast.Binding:
			v := g.info.Defs[y.Name]
			if ft.IsRef() {
				g.stmtTo(&g.post, "link_%s(%s_%d);", g.tname(ft), v.Name, v.Slot)
			}
			next("%s_%d", v.Name, v.Slot)
		case *ast.Wildcard:
			next("_")
		case *ast.Self:
			next("eval(_pid)")
		case *ast.IntLit:
			next("eval(%d)", y.Value)
		case *ast.BoolLit:
			next("eval(%t)", y.Value)
		case *ast.Ident:
			next("eval(")
			g.expr(p)
			g.ef(")")
		default:
			// Nested composite pattern on a handle field: bind to a temp
			// and destructure after the receive.
			next("")
			tmp := len(g.e)
			g.ef("tmp%d", g.temp())
			g.destructure(&g.post, p, tmp, len(g.e), ft)
		}
	}

	switch elem.Kind {
	case types.Record:
		if lit, ok := pat.(*ast.RecordLit); ok {
			for i, el := range lit.Elems {
				bindField(el, elem.Fields[i].Type)
			}
			break
		}
		// Whole-record binding: allocate a fresh record and fill it.
		tmp := g.temp()
		g.stmtTo(&g.post, "alloc_%s(tmp%d);", n, tmp)
		for i := range elem.Fields {
			t := g.temp()
			next("tmp%d", t)
			g.stmtTo(&g.post, "%s_f%d[tmp%d] = tmp%d;", n, i, tmp, t)
		}
		if b, ok := pat.(*ast.Binding); ok {
			v := g.info.Defs[b.Name]
			g.stmtTo(&g.post, "%s_%d = tmp%d;", v.Name, v.Slot, tmp)
		}
	case types.Union:
		if lit, ok := pat.(*ast.UnionLit); ok {
			tag := elem.FieldIndex(lit.Field.Name)
			next("eval(%d)", tag)
			for i := range elem.Fields {
				if i == tag {
					bindField(lit.Value, elem.Fields[i].Type)
				} else {
					next("_")
				}
			}
		} else if b, ok := pat.(*ast.Binding); ok {
			tmp := g.temp()
			g.stmtTo(&g.post, "alloc_%s(tmp%d);", n, tmp)
			tag := g.temp()
			next("tmp%d", tag)
			g.stmtTo(&g.post, "%s_tag[tmp%d] = tmp%d;", n, tmp, tag)
			for i := range elem.Fields {
				t := g.temp()
				next("tmp%d", t)
				g.stmtTo(&g.post, "%s_f%d[tmp%d] = tmp%d;", n, i, tmp, t)
			}
			v := g.info.Defs[b.Name]
			g.stmtTo(&g.post, "%s_%d = tmp%d;", v.Name, v.Slot, tmp)
		} else {
			next("_")
			for range elem.Fields {
				next("_")
			}
		}
	default:
		bindField(pat, elem)
	}

	g.start("%s?", ch.Name)
	g.flush(mark, ";\n")
	g.b = append(g.b, g.post...)
}

// destructure appends to *out the statements binding a local pattern
// match against the handle whose expression is e[root:end], under the
// access path g.path.
func (g *gen) destructure(out *[]byte, pat ast.Expr, root, end int, t *types.Type) {
	// open starts a statement: the formatted text, then the path.
	open := func(format string, args ...any) {
		*out = emit.Appendf(g.indentTo(*out), format, args...)
		*out = g.appendPath(*out, root, end)
	}
	switch x := pat.(type) {
	case *ast.Binding:
		v := g.info.Defs[x.Name]
		open("%s_%d = ", v.Name, v.Slot)
		*out = append(*out, ";\n"...)
	case *ast.Wildcard:
	case *ast.IntLit:
		open("assert(")
		*out = emit.Appendf(*out, " == %d);\n", x.Value)
	case *ast.BoolLit:
		open("assert(")
		*out = emit.Appendf(*out, " == %t);\n", x.Value)
	case *ast.Self:
		open("assert(")
		*out = append(*out, " == _pid);\n"...)
	case *ast.Ident:
		mark := len(g.e)
		g.expr(pat)
		open("assert(")
		*out = append(append(*out, " == "...), g.e[mark:]...)
		*out = append(*out, ");\n"...)
		g.e = g.e[:mark]
	case *ast.RecordLit:
		open("assert(%s_live[", g.tname(t))
		*out = append(*out, "]);\n"...)
		for i, el := range x.Elems {
			g.path = append(g.path, field{t, i})
			g.destructure(out, el, root, end, t.Fields[i].Type)
			g.path = g.path[:len(g.path)-1]
		}
	case *ast.UnionLit:
		tag := t.FieldIndex(x.Field.Name)
		open("assert(%s_live[", g.tname(t))
		*out = append(*out, "]);\n"...)
		open("assert(%s_tag[", g.tname(t))
		*out = emit.Appendf(*out, "] == %d);\n", tag)
		g.path = append(g.path, field{t, tag})
		g.destructure(out, x.Value, root, end, t.Fields[tag].Type)
		g.path = g.path[:len(g.path)-1]
	}
}

// appendPath appends the access path g.path applied to the handle
// e[root:end]: <t>_f<i>[...] for each level, the outermost last.
func (g *gen) appendPath(b []byte, root, end int) []byte {
	for k := len(g.path) - 1; k >= 0; k-- {
		b = emit.Appendf(b, "%s_f%d[", g.tname(g.path[k].t), g.path[k].i)
	}
	b = append(b, g.e[root:end]...)
	for range g.path {
		b = append(b, ']')
	}
	return b
}

// ---------------------------------------------------------------------------
// Expressions

// temp allocates the next tmp<n> variable of the current process.
func (g *gen) temp() int {
	g.temps++
	return g.temps - 1
}

// lvalue appends an assignable expression to e.
func (g *gen) lvalue(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		v := g.info.Uses[x]
		g.ef("%s_%d", v.Name, v.Slot)
	case *ast.Index, *ast.FieldSel:
		g.expr(e)
	default:
		g.ef("/* bad lvalue */")
	}
}

// expr appends an expression to e. Allocations write their statements
// to the output first and leave the handle temp in e.
func (g *gen) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.IntLit:
		g.ef("%d", x.Value)
	case *ast.BoolLit:
		g.ef("%t", x.Value)
	case *ast.Self:
		g.ef("_pid")
	case *ast.Ident:
		if v, ok := g.info.Uses[x]; ok {
			g.ef("%s_%d", v.Name, v.Slot)
		} else {
			g.ef("%s", x.Name) // constant (#define)
		}
	case *ast.Unary:
		if x.Op == token.NOT {
			g.ef("!(")
		} else {
			g.ef("-(")
		}
		g.expr(x.X)
		g.ef(")")
	case *ast.Binary:
		g.ef("(")
		g.expr(x.X)
		g.ef(" %s ", x.Op.String())
		g.expr(x.Y)
		g.ef(")")
	case *ast.Index:
		g.ef("%s_data[", g.tname(g.info.Types[x.X]))
		g.expr(x.X)
		g.ef("].e[")
		g.expr(x.I)
		g.ef("]")
	case *ast.FieldSel:
		recT := g.info.Types[x.X]
		g.ef("%s_f%d[", g.tname(recT), recT.FieldIndex(x.Name.Name))
		g.expr(x.X)
		g.ef("]")
	case *ast.RecordLit:
		t := g.info.Types[e]
		tmp := g.alloc(t)
		for i, el := range x.Elems {
			mark := len(g.e)
			g.expr(el)
			g.start("%s_f%d[tmp%d] = ", g.tname(t), i, tmp)
			g.flush(mark, ";\n")
		}
		g.ef("tmp%d", tmp)
	case *ast.UnionLit:
		t := g.info.Types[e]
		tag := t.FieldIndex(x.Field.Name)
		tmp := g.alloc(t)
		g.w("%s_tag[tmp%d] = %d;", g.tname(t), tmp, tag)
		mark := len(g.e)
		g.expr(x.Value)
		g.start("%s_f%d[tmp%d] = ", g.tname(t), tag, tmp)
		g.flush(mark, ";\n")
		g.ef("tmp%d", tmp)
	case *ast.ArrayLit:
		t := g.info.Types[e]
		n := g.tname(t)
		tmp := g.alloc(t)
		mark := len(g.e)
		g.expr(x.Count)
		g.start("%s_data[tmp%d].n = ", n, tmp)
		g.flush(mark, ";\n")
		g.expr(x.Init)
		g.start("d_step { byte init_i; for (init_i : 0 .. %s_BOUND-1) { %s_data[tmp%d].e[init_i] = ", n, n, tmp)
		g.flush(mark, " } };\n")
		g.ef("tmp%d", tmp)
	case *ast.Cast:
		// Mutability does not exist in the SPIN model (§5.2's objectId
		// aliasing scheme makes every structure updatable); the cast is
		// the identity.
		g.expr(x.X)
	default:
		g.ef("/* bad expr */")
	}
}

// alloc emits the allocation of a fresh object of type t into a new
// temp and returns the temp.
func (g *gen) alloc(t *types.Type) int {
	tmp := g.temp()
	g.w("alloc_%s(tmp%d);", g.tname(t), tmp)
	return tmp
}
