package cbackend

import (
	"strconv"

	"esplang/internal/emit"
	"esplang/internal/ir"
	"esplang/internal/types"
)

// emitBuilders generates, for every external-writer interface case, the
// function that calls the programmer's per-case extern function and
// assembles the message value (the runtime half of §4.5: "by specifying
// the entire pattern ... there is no need for that function to allocate
// any ESP data structure").
func (g *cgen) emitBuilders() {
	for _, ch := range g.prog.Channels {
		if ch.Ext != ir.ExtWriter || len(ch.Cases) == 0 {
			continue
		}
		for ci, c := range ch.Cases {
			g.w("static esp_val esp_build_%s_%d(void) { /* %s.%s */", ch.Name, ci, ch.IfaceName, c.Name)
			// Declare parameter holders and call the extern function.
			for pi, pt := range c.ParamTypes {
				if pt.IsScalar() {
					g.w("    int32_t p%d = 0;", pi)
				} else {
					g.w("    esp_val p%d = 0;", pi)
				}
			}
			g.b = emit.Appendf(g.b, "    %s%s(", ch.IfaceName, c.Name)
			for pi := range c.ParamTypes {
				if pi > 0 {
					g.str(", ")
				}
				g.str("&p")
				g.num(pi)
			}
			g.str(");\n")
			tmp := 0
			v := g.buildExpr(c.Pat, ch.Elem, &tmp)
			g.str("    return ")
			g.value(v)
			g.str(";\n")
			g.w("}")
		}
	}
	g.w("")
}

// builtValue is the C expression of a value buildExpr built: a
// parameter p<n>, a temporary b<n>, or (kind 0) the constant n.
type builtValue struct {
	kind byte
	n    int64
}

func (g *cgen) value(v builtValue) {
	if v.kind != 0 {
		g.b = append(g.b, v.kind)
	}
	g.b = strconv.AppendInt(g.b, v.n, 10)
}

// buildExpr emits statements allocating the wrappers of an interface-case
// pattern and returns the C expression of the built value. Fresh children
// are absorbed (no link): the external code hands over its allocation
// reference, exactly like an ESP literal.
func (g *cgen) buildExpr(p *ir.Pat, t *types.Type, tmp *int) builtValue {
	switch p.Kind {
	case ir.PatBind:
		return builtValue{'p', int64(p.Slot)}
	case ir.PatConst:
		return builtValue{0, p.Val}
	case ir.PatRecord:
		name := *tmp
		*tmp++
		g.w("    esp_val b%d = esp_alloc(%d, 0, %d);", name, t.ID(), len(p.Elems))
		for i, sub := range p.Elems {
			e := g.buildExpr(sub, t.Fields[i].Type, tmp)
			g.b = emit.Appendf(g.b, "    esp_heap[b%d].elems[%d] = ", name, i)
			g.value(e)
			g.str(";\n")
		}
		return builtValue{'b', int64(name)}
	case ir.PatUnion:
		name := *tmp
		*tmp++
		inner := g.buildExpr(p.Elems[0], t.Fields[p.Tag].Type, tmp)
		g.w("    esp_val b%d = esp_alloc(%d, %d, 1);", name, t.ID(), p.Tag)
		g.b = emit.Appendf(g.b, "    esp_heap[b%d].elems[0] = ", name)
		g.value(inner)
		g.str(";\n")
		return builtValue{'b', int64(name)}
	}
	return builtValue{}
}

// emitExtPut generates, for every external-reader channel, the function
// completing a blocked send: it dispatches the outgoing value to the
// matching interface case and calls the programmer's function with the
// extracted components (§4.5: "all the parameters have one less level of
// indirection").
func (g *cgen) emitExtPut() {
	for _, ch := range g.prog.Channels {
		if ch.Ext != ir.ExtReader {
			continue
		}
		g.w("static int esp_extput_%s(int spid) {", ch.Name)
		g.w("    esp_val v = *PV[spid].pending;")
		g.w("    (void)v;")
		if len(ch.Cases) == 0 {
			g.w("    if (!esp_ext_%s_accept()) return 0;", ch.Name)
			g.w("    esp_ext_%s_put(v);", ch.Name)
		} else {
			g.w("    if (!%sIsReady()) return 0;", ch.IfaceName)
			for _, c := range ch.Cases {
				g.str("    if (")
				g.patMatch(c.Pat, "v", -1)
				g.b = emit.Appendf(g.b, ") { %s%s(", ch.IfaceName, c.Name)
				g.paramPaths(c.Pat, "v", len(g.b))
				g.str("); goto done; }\n")
			}
			g.w("    esp_fail(\"value on channel %s matches no interface case\");", ch.Name)
			g.w("done:;")
		}
		g.w("    if ((*PV[spid].pflags & 1) && esp_chan_isref[*PV[spid].wait_chan]) esp_unlink(v);")
		g.w("    return 1;")
		g.w("}")
	}
	g.w("")
}

// paramPaths appends the C access path below root of every parameter an
// interface pattern binds, comma-separated after the text that starts
// at g.b[start:]. The compiler numbers the parameters in pattern order,
// so the walk meets them in slot order.
func (g *cgen) paramPaths(p *ir.Pat, root string, start int) {
	switch p.Kind {
	case ir.PatBind:
		if len(g.b) > start {
			g.str(", ")
		}
		g.accessPath(root)
	case ir.PatRecord:
		for i, sub := range p.Elems {
			g.path = append(g.path, i)
			g.paramPaths(sub, root, start)
			g.path = g.path[:len(g.path)-1]
		}
	case ir.PatUnion:
		g.path = append(g.path, 0)
		g.paramPaths(p.Elems[0], root, start)
		g.path = g.path[:len(g.path)-1]
	}
}

// emitPoll generates the idle-loop polling function (§6.1: "the generated
// code has an idle loop that polls for messages on external channels").
func (g *cgen) emitPoll() {
	g.w("static int esp_inject(int chan, esp_val v) {")
	g.w("    int r, a;")
	g.w("    for (r = 0; r < ESP_NPROCS; r++) {")
	g.w("        if (!(esp_waitmask[r] & (1ull << chan))) continue;")
	g.w("        if (*PV[r].status == ESP_BLOCKED_RECV && *PV[r].wait_chan == chan) {")
	g.w("            if (esp_deliver(v, 1, r, *PV[r].wait_port, esp_chan_isref[chan])) {")
	g.w("                *PV[r].pc = *PV[r].resume_pc;")
	g.w("                esp_make_ready(r);")
	g.w("                return 1;")
	g.w("            }")
	g.w("        } else if (*PV[r].status == ESP_BLOCKED_ALT) {")
	g.w("            const esp_alt_t *alt = &esp_alts[r][*PV[r].alt_idx];")
	g.w("            for (a = 0; a < alt->narms; a++) {")
	g.w("                const esp_arm_t *arm = &alt->arms[a];")
	g.w("                if (arm->is_send || arm->chan != chan || !esp_guard_true(r, arm)) continue;")
	g.w("                if (esp_deliver(v, 1, r, arm->port, esp_chan_isref[chan])) {")
	g.w("                    *PV[r].pc = arm->body_pc;")
	g.w("                    esp_make_ready(r);")
	g.w("                    return 1;")
	g.w("                }")
	g.w("            }")
	g.w("        }")
	g.w("    }")
	g.w("    return 0;")
	g.w("}")
	g.w("")
	g.w("static int esp_recv_waiting(int chan) {")
	g.w("    int r;")
	g.w("    for (r = 0; r < ESP_NPROCS; r++) {")
	g.w("        if (!(esp_waitmask[r] & (1ull << chan))) continue;")
	g.w("        if (*PV[r].status == ESP_BLOCKED_RECV || *PV[r].status == ESP_BLOCKED_ALT) return 1;")
	g.w("    }")
	g.w("    return 0;")
	g.w("}")
	g.w("")
	g.w("static int esp_poll(void) {")
	g.w("    int moved = 0;")
	g.w("    int s, a;")
	g.w("    (void)s; (void)a;")
	for _, ch := range g.prog.Channels {
		switch ch.Ext {
		case ir.ExtWriter:
			g.w("    /* external writer channel %s */", ch.Name)
			g.w("    if (esp_recv_waiting(%d)) {", ch.ID)
			if len(ch.Cases) > 0 {
				g.w("        int c = %sIsReady();", ch.IfaceName)
				for ci := range ch.Cases {
					g.w("        if (c == %d) {", ci+1)
					g.w("            esp_val v = esp_build_%s_%d();", ch.Name, ci)
					g.w("            if (!esp_inject(%d, v)) esp_fail(\"message on %s matches no waiting receiver\");", ch.ID, ch.Name)
					g.w("            moved = 1;")
					g.w("        }")
				}
			} else {
				g.w("        if (esp_ext_%s_ready()) {", ch.Name)
				g.w("            esp_val v = esp_ext_%s_take();", ch.Name)
				g.w("            if (!esp_inject(%d, v)) esp_fail(\"message on %s matches no waiting receiver\");", ch.ID, ch.Name)
				g.w("            moved = 1;")
				g.w("        }")
			}
			g.w("    }")
		case ir.ExtReader:
			g.w("    /* external reader channel %s: complete blocked senders */", ch.Name)
			g.w("    for (s = 0; s < ESP_NPROCS; s++) {")
			g.w("        if (!(esp_waitmask[s] & (1ull << %d))) continue;", ch.ID)
			g.w("        if (*PV[s].status == ESP_BLOCKED_SEND && *PV[s].wait_chan == %d) {", ch.ID)
			g.w("            if (esp_extput_%s(s)) {", ch.Name)
			g.w("                *PV[s].pc = *PV[s].resume_pc;")
			g.w("                esp_make_ready(s);")
			g.w("                moved = 1;")
			g.w("            }")
			g.w("        } else if (*PV[s].status == ESP_BLOCKED_ALT) {")
			g.w("            const esp_alt_t *alt = &esp_alts[s][*PV[s].alt_idx];")
			g.w("            for (a = 0; a < alt->narms; a++) {")
			g.w("                const esp_arm_t *arm = &alt->arms[a];")
			g.w("                if (!arm->is_send || arm->chan != %d || !esp_guard_true(s, arm)) continue;", ch.ID)
			if len(ch.Cases) > 0 {
				g.w("                if (!%sIsReady()) continue;", ch.IfaceName)
			} else {
				g.w("                if (!esp_ext_%s_accept()) continue;", ch.Name)
			}
			g.w("                *PV[s].pc = arm->eval_pc;")
			g.w("                esp_make_ready(s);")
			g.w("                moved = 1;")
			g.w("                break;")
			g.w("            }")
			g.w("        }")
			g.w("    }")
		}
	}
	g.w("    return moved;")
	g.w("}")
	g.w("")
}

// armedMask appends the C expression of the wait bit-mask for an alt's
// statically known arms (guards folded in at run time).
func (g *cgen) armedMask(alt *ir.AltDef, pid int) {
	for ai := range alt.Arms {
		arm := &alt.Arms[ai]
		if ai > 0 {
			g.str(" | ")
		}
		if arm.GuardSlot >= 0 {
			g.b = emit.Appendf(g.b, "(P%d.loc[%d] ? (1ull << %d) : 0u)", pid, arm.GuardSlot, arm.Chan)
		} else {
			g.b = emit.Appendf(g.b, "(1ull << %d)", arm.Chan)
		}
	}
}

// mainLoop emits esp_run: the one big function of §6.1.
func (g *cgen) mainLoop() {
	g.emitBuilders()
	g.emitExtPut()
	g.emitPoll()

	g.w("/* ---- the one big function (§6.1): all process code, the")
	g.w(" * scheduler, and the idle loop ---- */")
	g.w("void esp_run(void) {")
	g.w("    int pid, sp = 0, a;")
	g.w("    (void)a;")
	g.w("    (void)esp_alt_send_ready; (void)esp_chan_ext; (void)esp_recv_waiting;")
	g.w("    (void)esp_inject; (void)esp_try_recv; (void)esp_try_send;")
	g.w("    esp_init_views();")
	g.w("    for (pid = ESP_NPROCS - 1; pid >= 0; pid--) esp_make_ready(pid);")
	g.w("")
	g.w("esp_sched:")
	g.w("    while (esp_nready > 0) {")
	g.w("        pid = esp_ready_stack[--esp_nready];")
	g.w("        if (*PV[pid].status != ESP_READY) continue;")
	g.w("        sp = 0;")
	g.w("        switch (pid) {")
	for _, p := range g.prog.Procs {
		g.w("        case %d: goto P%d_resume;", p.ID, p.ID)
	}
	g.w("        }")
	g.w("    }")
	g.w("    if (esp_poll()) goto esp_sched;")
	g.w("    return; /* idle: all processes blocked, no external input */")
	g.w("")
	for _, p := range g.prog.Procs {
		g.emitProcCode(p)
	}
	g.w("}")
	g.w("")
}

func (g *cgen) emitProcCode(p *ir.Proc) {
	g.w("/* ======== process %s ======== */", p.Name)
	g.w("P%d_resume:", p.ID)
	g.w("    switch (P%d.pc) {", p.ID)
	g.w("    case 0: goto P%d_I0;", p.ID)
	// Emit resume cases for every pc that can be a resumption target:
	// resume_pc of blocking ops, arm body/eval pcs, and jump targets are
	// all direct labels; the resume switch needs every pc that is stored
	// into .pc. Emitting all pcs is simplest and correct.
	for pc := 1; pc < len(p.Code); pc++ {
		g.w("    case %d: goto P%d_I%d;", pc, p.ID, pc)
	}
	g.w("    }")
	g.w("    esp_fail(\"bad pc\");")

	// When the program carries a source path, #line directives map each
	// instruction back to its ESP statement so C-level debuggers and
	// compiler diagnostics point at the .esp file, not the generated C.
	lastLine := -1
	for pc, in := range p.Code {
		if g.prog.File != "" && in.Pos.IsValid() && in.Pos.Line != lastLine {
			g.w("#line %d %q", in.Pos.Line, g.prog.File)
			lastLine = in.Pos.Line
		}
		g.b = emit.Appendf(g.b, "P%d_I%d: /* ", p.ID, pc)
		g.b = ir.AppendInstr(g.b, p, in)
		g.str(" */\n")
		g.instr(p, pc, in)
	}
	g.w("")
}

// cBinOp is the C operator of each binary IR opcode except Div and Mod.
var cBinOp = [...]string{ir.Add: "+", ir.Sub: "-", ir.Mul: "*",
	ir.Eq: "==", ir.Ne: "!=", ir.Lt: "<", ir.Le: "<=", ir.Gt: ">", ir.Ge: ">="}

// instr appends the C of one instruction. P<id>.st[sp-1] is the top of
// the operand stack, and "goto P<id>_I<pc+1>;" falls through to the next
// instruction.
func (g *cgen) instr(p *ir.Proc, pc int, in ir.Instr) {
	id, next := p.ID, pc+1

	switch in.Op {
	case ir.Nop:
		g.w("    goto P%d_I%d;", id, next)
	case ir.Const:
		g.w("    P%d.st[sp++] = %d; goto P%d_I%d;", id, in.Val, id, next)
	case ir.SelfID:
		g.w("    P%d.st[sp++] = %d; goto P%d_I%d;", id, id, id, next)
	case ir.LoadLocal:
		g.w("    P%d.st[sp++] = P%d.loc[%d]; goto P%d_I%d;", id, id, in.A, id, next)
	case ir.StoreLocal:
		g.w("    P%d.loc[%d] = P%d.st[--sp]; goto P%d_I%d;", id, in.A, id, id, next)
	case ir.Dup:
		g.w("    P%d.st[sp] = P%d.st[sp-1]; sp++; goto P%d_I%d;", id, id, id, next)
	case ir.Pop:
		g.w("    sp--; goto P%d_I%d;", id, next)

	case ir.Neg:
		g.w("    P%d.st[sp-1] = -P%d.st[sp-1]; goto P%d_I%d;", id, id, id, next)
	case ir.Not:
		g.w("    P%d.st[sp-1] = !P%d.st[sp-1]; goto P%d_I%d;", id, id, id, next)
	case ir.Add, ir.Sub, ir.Mul, ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
		g.w("    sp--; P%d.st[sp-1] = P%d.st[sp-1] %s P%d.st[sp+0]; goto P%d_I%d;", id, id, cBinOp[in.Op], id, id, next)
	case ir.Div, ir.Mod:
		op := "/"
		if in.Op == ir.Mod {
			op = "%"
		}
		g.w("    if (P%d.st[sp-1] == 0) esp_fail(\"division by zero\");", id)
		g.w("    sp--; P%d.st[sp-1] = P%d.st[sp-1] %s P%d.st[sp+0]; goto P%d_I%d;", id, id, op, id, id, next)

	case ir.Jump:
		g.w("    goto P%d_I%d;", id, in.A)
	case ir.JumpIfFalse:
		g.w("    if (!P%d.st[--sp]) goto P%d_I%d;", id, id, in.A)
		g.w("    goto P%d_I%d;", id, next)
	case ir.JumpIfTrue:
		g.w("    if (P%d.st[--sp]) goto P%d_I%d;", id, id, in.A)
		g.w("    goto P%d_I%d;", id, next)

	case ir.NewRecord:
		t := g.prog.Universe.ByID(in.A)
		g.w("    { esp_val h = esp_alloc(%d, 0, %d);", in.A, in.B)
		for i := in.B - 1; i >= 0; i-- {
			g.w("      esp_heap[h].elems[%d] = P%d.st[--sp];", i, id)
			if t.Fields[i].Type.IsRef() && in.Val&(1<<i) == 0 {
				g.w("      if (esp_heap[h].elems[%d]) esp_link(esp_heap[h].elems[%d]); /* borrowed child */", i, i)
			}
		}
		g.w("      P%d.st[sp++] = h; } goto P%d_I%d;", id, id, next)
	case ir.NewUnion:
		t := g.prog.Universe.ByID(in.A)
		g.w("    { esp_val h = esp_alloc(%d, %d, 1);", in.A, in.B)
		g.w("      esp_heap[h].elems[0] = P%d.st[--sp];", id)
		if t.Fields[in.B].Type.IsRef() && in.Val&1 == 0 {
			g.w("      if (esp_heap[h].elems[0]) esp_link(esp_heap[h].elems[0]);")
		}
		g.w("      P%d.st[sp++] = h; } goto P%d_I%d;", id, id, next)
	case ir.NewArray:
		g.w("    { esp_val init = P%d.st[--sp]; int n = P%d.st[--sp]; int i;", id, id)
		g.w("      esp_val h = esp_alloc(%d, 0, n);", in.A)
		g.w("      for (i = 0; i < n; i++) esp_heap[h].elems[i] = init;")
		g.w("      P%d.st[sp++] = h; } goto P%d_I%d;", id, id, next)

	case ir.GetField:
		g.w("    P%d.st[sp-1] = esp_deref(P%d.st[sp-1])->elems[%d]; goto P%d_I%d;", id, id, in.A, id, next)
	case ir.SetField:
		g.w("    { esp_val v = P%d.st[--sp]; esp_obj_t *o = esp_deref(P%d.st[--sp]);", id, id)
		g.w("      esp_val old = o->elems[%d]; o->elems[%d] = v;", in.A, in.A)
		g.w("      if (esp_ref_mask[o->type] & (1ull << %d)) {", in.A)
		g.w("          if (v) esp_link(v);")
		g.w("          if (old) esp_unlink(old);")
		g.w("      } } goto P%d_I%d;", id, next)
	case ir.GetIndex:
		g.w("    { int i = P%d.st[--sp]; esp_obj_t *o = esp_deref(P%d.st[sp-1]);", id, id)
		g.w("      if (i < 0 || i >= o->n) esp_fail(\"array index out of bounds\");")
		g.w("      P%d.st[sp-1] = o->elems[i]; } goto P%d_I%d;", id, id, next)
	case ir.SetIndex:
		g.w("    { esp_val v = P%d.st[--sp]; int i = P%d.st[--sp]; esp_obj_t *o = esp_deref(P%d.st[--sp]);", id, id, id)
		g.w("      if (i < 0 || i >= o->n) esp_fail(\"array index out of bounds\");")
		g.w("      o->elems[i] = v; } goto P%d_I%d;", id, next)
	case ir.UnionGet:
		g.w("    { esp_obj_t *o = esp_deref(P%d.st[sp-1]);", id)
		g.w("      if (o->tag != %d) esp_fail(\"union tag mismatch\");", in.A)
		g.w("      P%d.st[sp-1] = o->elems[0]; } goto P%d_I%d;", id, id, next)

	case ir.Link:
		g.w("    esp_link(P%d.st[--sp]); goto P%d_I%d;", id, id, next)
	case ir.Unlink:
		g.w("    esp_unlink(P%d.st[--sp]); goto P%d_I%d;", id, id, next)
	case ir.CastCopy:
		g.w("    { esp_obj_t *o = esp_deref(P%d.st[sp-1]); int i;", id)
		g.w("      esp_val h = esp_alloc(%d, o->tag, o->n);", in.A)
		g.w("      for (i = 0; i < o->n; i++) {")
		g.w("          esp_heap[h].elems[i] = o->elems[i];")
		g.w("          if ((esp_ref_mask[%d] & (1ull << i)) && o->elems[i]) esp_link(o->elems[i]);", in.A)
		g.w("      }")
		g.w("      P%d.st[sp-1] = h; } goto P%d_I%d;", id, id, next)
	case ir.CastReuse:
		g.w("    esp_deref(P%d.st[sp-1])->type = %d; goto P%d_I%d;", id, in.A, id, next)

	case ir.Assert:
		info := g.prog.Asserts[in.A]
		g.b = emit.Appendf(g.b, "    if (!P%d.st[--sp]) esp_fail(\"assert(", id)
		g.cstr(info.Expr)
		g.str(") failed at ")
		if info.Pos.IsValid() {
			g.b = emit.Appendf(g.b, "%d:%d", info.Pos.Line, info.Pos.Column)
		} else {
			g.str("-")
		}
		g.w("\"); goto P%d_I%d;", id, next)
	case ir.Halt:
		g.w("    P%d.status = ESP_HALTED; goto esp_sched;", id)

	case ir.Send, ir.SendCommit:
		g.w("    P%d.pending = P%d.st[--sp]; P%d.pflags = %d;", id, id, id, in.B)
		g.w("    P%d.wait_chan = %d; P%d.resume_pc = %d;", id, in.A, id, next)
		g.w("    if (esp_try_send(%d)) goto P%d_I%d;", id, id, next)
		if g.prog.Channels[in.A].Ext == ir.ExtReader {
			g.w("    if (esp_extput_%s(%d)) goto P%d_I%d;", g.prog.Channels[in.A].Name, id, id, next)
		}
		if in.Op == ir.SendCommit {
			g.w("    esp_fail(\"committed send on %s matches no receiver\");", g.prog.Channels[in.A].Name)
		} else {
			g.w("    P%d.status = ESP_BLOCKED_SEND; P%d.pc = %d;", id, id, pc)
			g.w("    esp_waitmask[%d] = 1ull << %d;", id, in.A)
			g.w("    goto esp_sched;")
		}
	case ir.Recv:
		g.w("    P%d.wait_chan = %d; P%d.wait_port = %d; P%d.resume_pc = %d;", id, in.A, id, in.B, id, next)
		g.w("    if (esp_try_recv(%d) == 1) goto P%d_I%d;", id, id, next)
		g.w("    P%d.status = ESP_BLOCKED_RECV; P%d.pc = %d;", id, id, pc)
		g.w("    esp_waitmask[%d] = 1ull << %d;", id, in.A)
		g.w("    goto esp_sched;")
	case ir.Alt:
		alt := &p.Alts[in.A]
		g.w("    P%d.alt_idx = %d;", id, in.A)
		for ai := range alt.Arms {
			arm := &alt.Arms[ai]
			g.str("    ")
			if arm.GuardSlot >= 0 {
				g.b = emit.Appendf(g.b, "if (P%d.loc[%d]) ", id, arm.GuardSlot)
			}
			if arm.IsSend {
				g.b = emit.Appendf(g.b, "{ if (esp_alt_send_ready(%d, &esp_arms_P%d_%d[%d])", id, id, in.A, ai)
				ch := g.prog.Channels[arm.Chan]
				if ch.Ext == ir.ExtReader {
					if len(ch.Cases) > 0 {
						g.b = emit.Appendf(g.b, " || %sIsReady()", ch.IfaceName)
					} else {
						g.b = emit.Appendf(g.b, " || esp_ext_%s_accept()", ch.Name)
					}
				}
				g.w(") { P%d.pc = %d; goto P%d_resume; } }", id, arm.EvalPC, id)
			} else {
				g.w("{")
				g.w("        P%d.wait_chan = %d; P%d.wait_port = %d; P%d.resume_pc = %d;",
					id, arm.Chan, id, arm.Port, id, arm.BodyPC)
				g.w("        int tr = esp_try_recv(%d);", id)
				g.w("        if (tr == 1) { P%d.pc = %d; goto P%d_resume; }", id, arm.BodyPC, id)
				g.w("        if (tr == 2) { /* partner committed: collapse to blocked recv */")
				g.w("            P%d.status = ESP_BLOCKED_RECV; P%d.pc = %d;", id, id, pc)
				g.w("            esp_waitmask[%d] = 1ull << %d;", id, arm.Chan)
				g.w("            goto esp_sched;")
				g.w("        }")
				g.w("    }")
			}
		}
		g.w("    P%d.status = ESP_BLOCKED_ALT; P%d.pc = %d;", id, id, pc)
		g.b = emit.Appendf(g.b, "    esp_waitmask[%d] = ", id)
		g.armedMask(alt, id)
		g.str(";\n")
		g.w("    goto esp_sched;")
	default:
		g.w("    esp_fail(\"bad opcode\");")
	}
}

// cstr appends s escaped for a C string literal.
func (g *cgen) cstr(s string) {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '"' {
			g.b = append(g.b, '\\')
		}
		g.b = append(g.b, s[i])
	}
}

func (g *cgen) mainStub() {
	g.w("#ifdef ESP_MAIN")
	g.w("int main(void) {")
	g.w("    esp_run();")
	g.w("    return 0;")
	g.w("}")
	g.w("#endif")
}
