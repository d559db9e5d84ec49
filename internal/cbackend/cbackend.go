// Package cbackend emits the C target of the ESP compiler — the pgm.C
// output of Figure 4 in the paper, the file that becomes device firmware
// when compiled with the programmer's helper C code.
//
// The generated code follows §6.1:
//
//   - the whole concurrent program lives in one big function (esp_run):
//     every process's code is emitted inline, one label per blocking
//     point, and a context switch saves only the program counter;
//   - processes are stack-less: locals live in static per-process
//     structures, and a small statically-sized operand scratch array
//     stands in for expression evaluation;
//   - blocking uses per-process wait bit-masks, one bit per channel —
//     blocking sets bits, unblocking clears the whole mask — rather than
//     per-pattern wait queues;
//   - messages transfer by reference-count adjustment (§6.2): the
//     semantic deep copy never copies;
//   - the external interface is the paper's §4.5 C contract: for every
//     interface declaration the firmware calls <Iface>IsReady() (0 = not
//     ready, otherwise 1-based pattern index) and then the per-case
//     function, with one level of pointer indirection for external
//     writers and none for external readers;
//   - the idle loop polls external channels and runs ready processes
//     until quiescence.
//
// The output is self-contained C99 plus the extern functions the
// programmer supplies. Defining ESP_MAIN also emits a main() that calls
// esp_run(), which the tests use to compile and execute generated
// firmware with gcc.
package cbackend

import (
	"strconv"

	"esplang/internal/emit"
	"esplang/internal/ir"
	"esplang/internal/types"
)

// Options configures generation.
type Options struct {
	// MaxObjects sizes the static heap (0 = 1024).
	MaxObjects int
	// MaxElems bounds the element count of any object (0 = 64).
	MaxElems int
}

// Generate renders the C translation of a compiled program.
func Generate(prog *ir.Program, opts Options) string {
	if opts.MaxObjects <= 0 {
		opts.MaxObjects = 1024
	}
	if opts.MaxElems <= 0 {
		opts.MaxElems = 64
	}
	g := &cgen{prog: prog, opts: opts}
	return g.run()
}

// cgen appends the C text to one buffer. Boilerplate lines go through
// w; pattern tests, access paths, labels and lists are appended in place.
type cgen struct {
	b    []byte
	prog *ir.Program
	opts Options
	path []int // element indices of the pattern access path being emitted
}

func (g *cgen) w(format string, args ...any) {
	g.b = emit.Appendf(g.b, format, args...)
	g.b = append(g.b, '\n')
}

func (g *cgen) str(s string) { g.b = append(g.b, s...) }

func (g *cgen) num(v int) { g.b = strconv.AppendInt(g.b, int64(v), 10) }

// sizeHint estimates the length of the C text: about 13 KB of runtime
// plus what every process, instruction and table entry adds.
func sizeHint(prog *ir.Program) int {
	n := 13 << 10
	for _, p := range prog.Procs {
		n += 700 + 150*len(p.Code) + 200*(len(p.Ports)+len(p.Alts))
	}
	return n + 400*len(prog.Channels)
}

func (g *cgen) run() string {
	g.b = make([]byte, 0, sizeHint(g.prog))
	g.header()
	g.heap()
	g.procStructs()
	g.externDecls()
	g.portFns()
	g.tables()
	g.runtime()
	g.mainLoop()
	g.mainStub()
	return emit.String(g.b)
}

func (g *cgen) header() {
	g.w("/* Generated by the ESP compiler (pgm.C, Figure 4).")
	g.w(" * Compile together with the programmer-supplied helper C code that")
	g.w(" * implements the extern interface functions declared below (§4.5). */")
	g.w("#include <stdint.h>")
	g.w("#include <stdio.h>")
	g.w("#include <stdlib.h>")
	g.w("")
	g.w("#define ESP_MAX_OBJECTS %d", g.opts.MaxObjects)
	g.w("#define ESP_MAX_ELEMS %d", g.opts.MaxElems)
	g.w("#define ESP_NPROCS %d", len(g.prog.Procs))
	g.w("#define ESP_NCHANS %d", len(g.prog.Channels))
	g.w("")
	g.w("typedef int32_t esp_val; /* scalar value or heap handle (0 = null) */")
	g.w("")
	g.w("static void esp_fail(const char *msg) {")
	g.w("    fprintf(stderr, \"esp: fatal: %%s\\n\", msg);")
	g.w("    exit(1);")
	g.w("}")
	g.w("")
}

func (g *cgen) heap() {
	g.w("/* ---- heap: static object pool with reference counts (§4.4) ---- */")
	g.w("typedef struct {")
	g.w("    uint8_t type, tag, live;")
	g.w("    int16_t rc;")
	g.w("    int32_t n;")
	g.w("    esp_val elems[ESP_MAX_ELEMS];")
	g.w("} esp_obj_t;")
	g.w("")
	g.w("static esp_obj_t esp_heap[ESP_MAX_OBJECTS + 1]; /* slot 0 unused */")
	g.w("static int esp_live_count;")
	g.w("")
	// Per-type metadata: which element positions hold references.
	g.w("/* esp_ref_mask[t] bit i set => element i of type t is a reference */")
	all := g.prog.Universe.All()
	g.b = emit.Appendf(g.b, "static const uint64_t esp_ref_mask[%d] = { ", len(all))
	for i, t := range all {
		var mask uint64
		for fi, f := range t.Fields {
			if f.Type.IsRef() {
				mask |= 1 << fi
			}
		}
		if i > 0 {
			g.str(", ")
		}
		g.str("0x")
		g.b = strconv.AppendUint(g.b, mask, 16)
	}
	g.str(" };\n")
	g.w("")
	g.w("static esp_val esp_alloc(int type, int tag, int n) {")
	g.w("    int i;")
	g.w("    if (n > ESP_MAX_ELEMS) esp_fail(\"object too large\");")
	g.w("    for (i = 1; i <= ESP_MAX_OBJECTS; i++) {")
	g.w("        if (!esp_heap[i].live) {")
	g.w("            esp_heap[i].type = (uint8_t)type;")
	g.w("            esp_heap[i].tag = (uint8_t)tag;")
	g.w("            esp_heap[i].live = 1;")
	g.w("            esp_heap[i].rc = 1;")
	g.w("            esp_heap[i].n = n;")
	g.w("            esp_live_count++;")
	g.w("            return i;")
	g.w("        }")
	g.w("    }")
	g.w("    esp_fail(\"out of objects (memory leak?)\");")
	g.w("    return 0;")
	g.w("}")
	g.w("")
	g.w("static void esp_link(esp_val h) {")
	g.w("    if (!esp_heap[h].live) esp_fail(\"link of freed object\");")
	g.w("    esp_heap[h].rc++;")
	g.w("}")
	g.w("")
	g.w("static void esp_unlink(esp_val h) {")
	g.w("    int i;")
	g.w("    if (!esp_heap[h].live) esp_fail(\"unlink of freed object (double free)\");")
	g.w("    if (--esp_heap[h].rc > 0) return;")
	g.w("    esp_heap[h].live = 0;")
	g.w("    esp_live_count--;")
	g.w("    for (i = 0; i < esp_heap[h].n; i++) {")
	g.w("        if (esp_ref_mask[esp_heap[h].type] & (1ull << i)) {")
	g.w("            if (esp_heap[h].elems[i]) esp_unlink(esp_heap[h].elems[i]);")
	g.w("        }")
	g.w("    }")
	g.w("}")
	g.w("")
	g.w("static esp_obj_t *esp_deref(esp_val h) {")
	g.w("    if (h <= 0 || h > ESP_MAX_OBJECTS || !esp_heap[h].live)")
	g.w("        esp_fail(\"access to freed or invalid object\");")
	g.w("    return &esp_heap[h];")
	g.w("}")
	g.w("")
	g.w("/* exported allocation helpers for the programmer's C code (§4.5) */")
	g.w("esp_val esp_alloc_record(int type, int nfields) { return esp_alloc(type, 0, nfields); }")
	g.w("esp_val esp_alloc_union(int type, int tag) { return esp_alloc(type, tag, 1); }")
	g.w("esp_val esp_alloc_array(int type, int n, esp_val init) {")
	g.w("    esp_val h = esp_alloc(type, 0, n);")
	g.w("    int i;")
	g.w("    for (i = 0; i < n; i++) esp_heap[h].elems[i] = init;")
	g.w("    return h;")
	g.w("}")
	g.w("void esp_set_elem(esp_val h, int i, esp_val v) { esp_deref(h)->elems[i] = v; }")
	g.w("esp_val esp_get_elem(esp_val h, int i) { return esp_deref(h)->elems[i]; }")
	g.w("int esp_array_len(esp_val h) { return esp_deref(h)->n; }")
	g.w("")
}

func (g *cgen) procStructs() {
	g.w("/* ---- processes: stack-less state machines (§4.3, §6.1) ---- */")
	g.w("enum { ESP_READY, ESP_BLOCKED_SEND, ESP_BLOCKED_RECV, ESP_BLOCKED_ALT, ESP_HALTED };")
	g.w("")
	for _, p := range g.prog.Procs {
		nloc := p.NumLocals
		if nloc == 0 {
			nloc = 1
		}
		nstk := p.MaxStack
		if nstk == 0 {
			nstk = 1
		}
		g.w("static struct { /* process %s */", p.Name)
		g.w("    int pc, status, sp;")
		g.w("    int wait_chan, wait_port, alt_idx, resume_pc, pflags;")
		g.w("    esp_val pending;")
		g.w("    esp_val loc[%d];", nloc)
		g.w("    esp_val st[%d];", nstk)
		g.w("} P%d;", p.ID)
	}
	g.w("")
	g.w("/* generic per-process views for the runtime helpers */")
	g.w("typedef struct {")
	g.w("    int *pc, *status, *sp;")
	g.w("    int *wait_chan, *wait_port, *alt_idx, *resume_pc, *pflags;")
	g.w("    esp_val *pending, *loc, *st;")
	g.w("} esp_proc_view_t;")
	g.w("static esp_proc_view_t PV[ESP_NPROCS];")
	g.w("")
	g.w("static void esp_init_views(void) {")
	g.w("    /* reference every helper so -Wunused stays quiet when a")
	g.w("     * program does not exercise all of them */")
	g.w("    (void)esp_link; (void)esp_unlink; (void)esp_deref;")
	g.w("    (void)esp_alloc_record; (void)esp_alloc_union; (void)esp_alloc_array;")
	g.w("    (void)esp_set_elem; (void)esp_get_elem; (void)esp_array_len;")
	for _, p := range g.prog.Procs {
		i := p.ID
		g.w("    PV[%d] = (esp_proc_view_t){ &P%d.pc, &P%d.status, &P%d.sp,"+
			" &P%d.wait_chan, &P%d.wait_port, &P%d.alt_idx, &P%d.resume_pc, &P%d.pflags,"+
			" &P%d.pending, P%d.loc, P%d.st };", i, i, i, i, i, i, i, i, i, i, i, i)
	}
	g.w("}")
	g.w("")
	g.w("/* per-process wait bit-masks, one bit per channel (§6.1) */")
	g.w("static uint64_t esp_waitmask[ESP_NPROCS];")
	g.w("")
	g.w("/* ready stack (the stack-based scheduling policy, §6.1) */")
	g.w("static int esp_ready_stack[ESP_NPROCS * 4];")
	g.w("static int esp_nready;")
	g.w("static void esp_make_ready(int pid) {")
	g.w("    *PV[pid].status = ESP_READY;")
	g.w("    esp_waitmask[pid] = 0;")
	g.w("    esp_ready_stack[esp_nready++] = pid;")
	g.w("}")
	g.w("")
}

// paramDecl appends parameter pi of an interface-case extern function:
// external writers get one extra level of indirection (§4.5).
func (g *cgen) paramDecl(t *types.Type, pi int, writer bool) {
	if t.IsScalar() {
		g.str("int32_t")
	} else {
		g.str("esp_val")
	}
	if writer {
		g.str(" *p")
	} else {
		g.str(" p")
	}
	g.num(pi)
}

func (g *cgen) externDecls() {
	g.w("/* ---- external interface (§4.5): supplied by the programmer ---- */")
	for _, ch := range g.prog.Channels {
		if ch.Ext == ir.ExtNone {
			continue
		}
		if len(ch.Cases) > 0 {
			iface := ch.IfaceName
			g.w("extern int %sIsReady(void); /* 0 = not ready, else 1-based pattern index */", iface)
			for _, c := range ch.Cases {
				g.b = emit.Appendf(g.b, "extern void %s%s(", iface, c.Name)
				for pi, pt := range c.ParamTypes {
					if pi > 0 {
						g.str(", ")
					}
					g.paramDecl(pt, pi, ch.Ext == ir.ExtWriter)
				}
				if len(c.ParamTypes) == 0 {
					g.str("void")
				}
				g.str(");\n")
			}
		} else {
			// No interface declaration: generic hooks.
			if ch.Ext == ir.ExtWriter {
				g.w("extern int esp_ext_%s_ready(void);", ch.Name)
				g.w("extern esp_val esp_ext_%s_take(void);", ch.Name)
			} else {
				g.w("extern int esp_ext_%s_accept(void);", ch.Name)
				g.w("extern void esp_ext_%s_put(esp_val);", ch.Name)
			}
		}
	}
	g.w("")
}

// hasTest reports whether matching p tests anything, that is whether
// patMatch renders more than the constant 1.
func hasTest(p *ir.Pat) bool {
	switch p.Kind {
	case ir.PatAny, ir.PatBind:
		return false
	case ir.PatRecord:
		for _, sub := range p.Elems {
			if hasTest(sub) {
				return true
			}
		}
		return false
	}
	return true
}

// accessPath appends the C expression of the value at g.path below root:
// one esp_deref(...)->elems[i] per index, outermost last.
func (g *cgen) accessPath(root string) {
	for range g.path {
		g.str("esp_deref(")
	}
	g.str(root)
	for _, i := range g.path {
		g.str(")->elems[")
		g.num(i)
		g.b = append(g.b, ']')
	}
}

// patMatch appends the match test of pattern p against the value at
// g.path below root, for the owner process pid (PatSelf and PatDynEq
// need it).
func (g *cgen) patMatch(p *ir.Pat, root string, pid int) {
	switch p.Kind {
	case ir.PatAny, ir.PatBind:
		g.str("1")
	case ir.PatConst, ir.PatSelf, ir.PatDynEq:
		g.b = append(g.b, '(')
		g.accessPath(root)
		switch p.Kind {
		case ir.PatConst:
			g.b = emit.Appendf(g.b, " == %d)", p.Val)
		case ir.PatSelf:
			g.b = emit.Appendf(g.b, " == %d)", pid)
		default:
			g.b = emit.Appendf(g.b, " == P%d.loc[%d])", pid, p.Slot)
		}
	case ir.PatRecord:
		if !hasTest(p) {
			g.str("1")
			return
		}
		g.b = append(g.b, '(')
		first := true
		for i, sub := range p.Elems {
			if !hasTest(sub) {
				continue
			}
			if !first {
				g.str(" && ")
			}
			first = false
			g.path = append(g.path, i)
			g.patMatch(sub, root, pid)
			g.path = g.path[:len(g.path)-1]
		}
		g.b = append(g.b, ')')
	case ir.PatUnion:
		g.str("((esp_deref(")
		g.accessPath(root)
		g.b = emit.Appendf(g.b, ")->tag == %d)", p.Tag)
		if hasTest(p.Elems[0]) {
			g.str(" && ")
			g.path = append(g.path, 0)
			g.patMatch(p.Elems[0], root, pid)
			g.path = g.path[:len(g.path)-1]
		}
		g.b = append(g.b, ')')
	default:
		g.str("0")
	}
}

// patBind appends the binding statements of the receiver side of a
// transfer, one line each: the value at g.path below root is stored into
// every bound local, linked first when its type t is a reference.
func (g *cgen) patBind(p *ir.Pat, root string, pid int, t *types.Type) {
	switch p.Kind {
	case ir.PatBind:
		if t.IsRef() {
			g.str("    esp_link(")
			g.accessPath(root)
			g.str(");\n")
		}
		g.b = emit.Appendf(g.b, "    P%d.loc[%d] = ", pid, p.Slot)
		g.accessPath(root)
		g.str(";\n")
	case ir.PatRecord:
		for i, sub := range p.Elems {
			g.path = append(g.path, i)
			g.patBind(sub, root, pid, t.Fields[i].Type)
			g.path = g.path[:len(g.path)-1]
		}
	case ir.PatUnion:
		g.path = append(g.path, 0)
		g.patBind(p.Elems[0], root, pid, t.Fields[p.Tag].Type)
		g.path = g.path[:len(g.path)-1]
	}
}

func (g *cgen) portFns() {
	g.w("/* ---- receive ports: one match + bind function pair per pattern ---- */")
	for _, p := range g.prog.Procs {
		for pi, port := range p.Ports {
			elem := g.prog.Channels[port.Chan].Elem
			g.w("static int esp_match_p%d_%d(esp_val v) {", p.ID, pi)
			g.w("    (void)v;")
			g.str("    return ")
			g.patMatch(port.Pat, "v", p.ID)
			g.str(";\n")
			g.w("}")
			g.w("static void esp_bind_p%d_%d(esp_val v) {", p.ID, pi)
			g.w("    (void)v;")
			g.patBind(port.Pat, "v", p.ID, elem)
			g.w("}")
		}
	}
	g.w("")
}

func (g *cgen) tables() {
	g.w("/* ---- static tables: ports and alt arms ---- */")
	g.w("typedef int (*esp_match_fn)(esp_val);")
	g.w("typedef void (*esp_bind_fn)(esp_val);")
	g.w("typedef struct { int chan; esp_match_fn match; esp_bind_fn bind; } esp_port_t;")
	g.w("typedef struct { int guard_slot, is_send, chan, port, eval_pc, body_pc;")
	g.w("                 const uint8_t *compat; /* send arms: per-(pid,port) static dispatch compatibility */")
	g.w("} esp_arm_t;")
	g.w("typedef struct { int narms; const esp_arm_t *arms; } esp_alt_t;")
	g.w("")
	// Global port numbering: portBase[pid] + local index.
	maxPorts := 1
	for _, p := range g.prog.Procs {
		if len(p.Ports) > maxPorts {
			maxPorts = len(p.Ports)
		}
	}
	g.w("#define ESP_MAXPORTS %d", maxPorts)
	// Emit compat arrays for send arms.
	for _, p := range g.prog.Procs {
		for ai, alt := range p.Alts {
			for armi := range alt.Arms {
				arm := &alt.Arms[armi]
				if !arm.IsSend {
					continue
				}
				g.b = emit.Appendf(g.b, "static const uint8_t esp_compat_P%d_%d_%d[] = { ", p.ID, ai, armi)
				for ri, rp := range g.prog.Procs {
					for pi := 0; pi < maxPorts; pi++ {
						v := "1"
						if pi < len(rp.Ports) {
							if rp.Ports[pi].Chan != arm.Chan ||
								(arm.OutPat != nil && !ir.PatsOverlap(arm.OutPat, rp.Ports[pi].Pat)) {
								v = "0"
							}
						} else {
							v = "0"
						}
						if ri > 0 || pi > 0 {
							g.str(", ")
						}
						g.str(v)
					}
				}
				g.str(" };\n")
			}
		}
	}
	g.w("")
	for _, p := range g.prog.Procs {
		if len(p.Ports) > 0 {
			g.w("static const esp_port_t esp_ports_P%d[] = {", p.ID)
			for pi, port := range p.Ports {
				g.w("    { %d, esp_match_p%d_%d, esp_bind_p%d_%d },", port.Chan, p.ID, pi, p.ID, pi)
			}
			g.w("};")
		} else {
			g.w("static const esp_port_t esp_ports_P%d[1]; /* none */", p.ID)
		}
		for ai, alt := range p.Alts {
			g.w("static const esp_arm_t esp_arms_P%d_%d[] = {", p.ID, ai)
			for armi := range alt.Arms {
				arm := &alt.Arms[armi]
				if arm.IsSend {
					g.w("    { %d, 1, %d, %d, %d, %d, esp_compat_P%d_%d_%d },",
						arm.GuardSlot, arm.Chan, arm.Port, arm.EvalPC, arm.BodyPC, p.ID, ai, armi)
				} else {
					g.w("    { %d, 0, %d, %d, %d, %d, 0 },",
						arm.GuardSlot, arm.Chan, arm.Port, arm.EvalPC, arm.BodyPC)
				}
			}
			g.w("};")
		}
		if len(p.Alts) > 0 {
			g.w("static const esp_alt_t esp_alts_P%d[] = {", p.ID)
			for ai, alt := range p.Alts {
				g.w("    { %d, esp_arms_P%d_%d },", len(alt.Arms), p.ID, ai)
			}
			g.w("};")
		} else {
			g.w("static const esp_alt_t esp_alts_P%d[1]; /* none */", p.ID)
		}
	}
	g.str("static const esp_port_t * const esp_ports[ESP_NPROCS] = { ")
	g.perProc("esp_ports_P")
	g.str(" };\nstatic const esp_alt_t * const esp_alts[ESP_NPROCS] = { ")
	g.perProc("esp_alts_P")
	g.str(" };\n\n")
	// External channel dispatch tables.
	g.str("static const int esp_chan_ext[ESP_NCHANS] = { ")
	for i, ch := range g.prog.Channels {
		if i > 0 {
			g.str(", ")
		}
		g.num(int(ch.Ext))
	}
	g.str(" }; /* 0 none, 1 reader, 2 writer */\n")
	g.w("")
}

// perProc appends the comma-separated names prefix<id> of every process.
func (g *cgen) perProc(prefix string) {
	for i, p := range g.prog.Procs {
		if i > 0 {
			g.str(", ")
		}
		g.str(prefix)
		g.num(p.ID)
	}
}

func (g *cgen) runtime() {
	g.w("/* ---- generic runtime: rendezvous, transfer, polling ---- */")
	g.w("")
	g.w("static int esp_guard_true(int pid, const esp_arm_t *arm) {")
	g.w("    return arm->guard_slot < 0 || PV[pid].loc[arm->guard_slot];")
	g.w("}")
	g.w("")
	g.w("/* deliver: the semantic deep copy as refcount adjustment (§6.2) */")
	g.w("static int esp_deliver(esp_val v, int flags, int rpid, int port, int is_ref) {")
	g.w("    const esp_port_t *pt = &esp_ports[rpid][port];")
	g.w("    if (!pt->match(v)) return 0;")
	g.w("    pt->bind(v);")
	g.w("    if ((flags & 1) && is_ref) esp_unlink(v); /* fresh temporary */")
	g.w("    return 1;")
	g.w("}")
	g.w("")
	g.str("static const int esp_chan_isref[ESP_NCHANS] = { ")
	for i, ch := range g.prog.Channels {
		if i > 0 {
			g.str(", ")
		}
		if ch.Elem.IsRef() {
			g.str("1")
		} else {
			g.str("0")
		}
	}
	g.str(" };\n")
	g.w("")
	g.w("/* esp_try_send: find a waiting receiver via the wait bit-masks */")
	g.w("static int esp_try_send(int spid) {")
	g.w("    int chan = *PV[spid].wait_chan;")
	g.w("    esp_val v = *PV[spid].pending;")
	g.w("    int flags = *PV[spid].pflags;")
	g.w("    int r, a;")
	g.w("    for (r = 0; r < ESP_NPROCS; r++) {")
	g.w("        if (r == spid) continue;")
	g.w("        if (!(esp_waitmask[r] & (1ull << chan))) continue;")
	g.w("        if (*PV[r].status == ESP_BLOCKED_RECV && *PV[r].wait_chan == chan) {")
	g.w("            if (esp_deliver(v, flags, r, *PV[r].wait_port, esp_chan_isref[chan])) {")
	g.w("                *PV[r].pc = *PV[r].resume_pc;")
	g.w("                esp_make_ready(r);")
	g.w("                return 1;")
	g.w("            }")
	g.w("        } else if (*PV[r].status == ESP_BLOCKED_ALT) {")
	g.w("            const esp_alt_t *alt = &esp_alts[r][*PV[r].alt_idx];")
	g.w("            for (a = 0; a < alt->narms; a++) {")
	g.w("                const esp_arm_t *arm = &alt->arms[a];")
	g.w("                if (arm->is_send || arm->chan != chan || !esp_guard_true(r, arm)) continue;")
	g.w("                if (esp_deliver(v, flags, r, arm->port, esp_chan_isref[chan])) {")
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
	g.w("/* esp_try_recv: complete against a blocked sender, or commit a")
	g.w(" * blocked alt's send arm (whose SendCommit then finds us) */")
	g.w("static int esp_try_recv(int rpid) {")
	g.w("    int chan = *PV[rpid].wait_chan;")
	g.w("    int s, a;")
	g.w("    for (s = 0; s < ESP_NPROCS; s++) {")
	g.w("        if (s == rpid) continue;")
	g.w("        if (!(esp_waitmask[s] & (1ull << chan))) continue;")
	g.w("        if (*PV[s].status == ESP_BLOCKED_SEND && *PV[s].wait_chan == chan) {")
	g.w("            if (esp_deliver(*PV[s].pending, *PV[s].pflags, rpid, *PV[rpid].wait_port, esp_chan_isref[chan])) {")
	g.w("                *PV[s].pc = *PV[s].resume_pc;")
	g.w("                esp_make_ready(s);")
	g.w("                return 1;")
	g.w("            }")
	g.w("        }")
	g.w("    }")
	g.w("    for (s = 0; s < ESP_NPROCS; s++) {")
	g.w("        if (s == rpid || *PV[s].status != ESP_BLOCKED_ALT) continue;")
	g.w("        if (!(esp_waitmask[s] & (1ull << chan))) continue;")
	g.w("        const esp_alt_t *alt = &esp_alts[s][*PV[s].alt_idx];")
	g.w("        for (a = 0; a < alt->narms; a++) {")
	g.w("            const esp_arm_t *arm = &alt->arms[a];")
	g.w("            if (!arm->is_send || arm->chan != chan || !esp_guard_true(s, arm)) continue;")
	g.w("            *PV[s].pc = arm->eval_pc;")
	g.w("            esp_make_ready(s);")
	g.w("            return 2; /* we stay blocked; partner's SendCommit completes it */")
	g.w("        }")
	g.w("    }")
	g.w("    return 0;")
	g.w("}")
	g.w("")
	g.w("/* alt readiness: a partner whose pattern the arm's statically known")
	g.w(" * value shape can match is waiting (or an external reader is ready).")
	g.w(" * The partner stays parked; the coming SendCommit finds it. */")
	g.w("static int esp_alt_send_ready(int pid, const esp_arm_t *arm) {")
	g.w("    int r;")
	g.w("    for (r = 0; r < ESP_NPROCS; r++) {")
	g.w("        if (r == pid) continue;")
	g.w("        if (!(esp_waitmask[r] & (1ull << arm->chan))) continue;")
	g.w("        if (*PV[r].status == ESP_BLOCKED_RECV && *PV[r].wait_chan == arm->chan &&")
	g.w("            arm->compat[r * ESP_MAXPORTS + *PV[r].wait_port]) return 1;")
	g.w("        if (*PV[r].status == ESP_BLOCKED_ALT) {")
	g.w("            const esp_alt_t *alt = &esp_alts[r][*PV[r].alt_idx];")
	g.w("            int a;")
	g.w("            for (a = 0; a < alt->narms; a++) {")
	g.w("                const esp_arm_t *ra = &alt->arms[a];")
	g.w("                if (ra->is_send || ra->chan != arm->chan || !esp_guard_true(r, ra)) continue;")
	g.w("                if (arm->compat[r * ESP_MAXPORTS + ra->port]) return 1;")
	g.w("            }")
	g.w("        }")
	g.w("    }")
	g.w("    return 0;")
	g.w("}")
	g.w("")
}
