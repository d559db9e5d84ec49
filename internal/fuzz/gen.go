// Package fuzz generates, mutates, minimizes, and differentially tests
// ESP programs.
//
// The package has four parts, mirroring "compiler testing through
// simulation" methodology:
//
//   - Generate: a grammar-based generator of well-typed-by-construction
//     ESP programs covering processes, channels (including external
//     bindings with interface declarations), alt with guards, records,
//     unions, arrays, and §4.4 ownership transfers. A fraction of
//     programs deliberately seed ownership bugs and failing assertions
//     so the fault paths are exercised too.
//   - Mutate: AST-level mutations over existing corpus programs
//     (testdata), producing near-miss programs that stress the parser,
//     checker, and the engines' fault handling.
//   - RunDifferential (oracle.go): one program through every backend —
//     both VM interpreters × optimizer configurations, the model checker,
//     espvet, and the C/Promela generators — comparing everything
//     observable.
//   - Minimize (minimize.go): greedy delta debugging over the AST,
//     shrinking a failing program while its failure signature holds.
//
// Everything is deterministic under a seed so CI can replay failures.
package fuzz

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Generated is one generator output.
type Generated struct {
	Seed     int64
	Template string
	Source   string
}

// Name returns a stable identifier for the program, used in reports and
// reproducer file names.
func (g Generated) Name() string {
	return fmt.Sprintf("gen-%s-%d", g.Template, g.Seed)
}

// Generate produces a well-typed ESP program from the seed. The same
// seed always yields the same program.
func Generate(seed int64) Generated {
	g := &gen{r: rand.New(rand.NewSource(seed))}
	g.seedBugs = g.pct(25)
	var tpl string
	switch w := g.r.Intn(100); {
	case w < 20:
		tpl = "pipeline"
		g.pipeline(false)
	case w < 36:
		tpl = "open-pipeline"
		g.pipeline(true)
	case w < 52:
		tpl = "merge"
		g.merge()
	case w < 64:
		tpl = "fanout"
		g.fanout()
	case w < 76:
		tpl = "dispatch"
		g.dispatch()
	case w < 88:
		tpl = "ownership"
		g.ownership()
	default:
		tpl = "ring"
		g.ring()
	}
	return Generated{Seed: seed, Template: tpl, Source: g.b.String()}
}

// ---------------------------------------------------------------------------
// Generator machinery

type payKind int

const (
	payInt payKind = iota
	payBool
	payRec // record of { a: int, b: int }
	payUni // union of { l: int, r: bool }
	payArr // array of int [4]
)

type chanInfo struct {
	name     string
	kind     payKind
	typeName string // declared type name for composite payloads
}

type scope struct {
	ints  []string
	bools []string
}

// child returns a copy of sc for a nested block: ESP is block-scoped, so
// names bound inside an if/while body or alt arm must not leak into the
// code the generator emits after the block closes.
func (sc *scope) child() *scope {
	c := &scope{}
	c.ints = append(c.ints, sc.ints...)
	c.bools = append(c.bools, sc.bools...)
	return c
}

type gen struct {
	r        *rand.Rand
	b        strings.Builder
	ind      int
	n        int // fresh-name counter
	seedBugs bool
	consts   []string // declared int constant names
}

func (g *gen) pct(p int) bool { return g.r.Intn(100) < p }

func (g *gen) fresh(prefix string) string {
	g.n++
	return fmt.Sprintf("%s%d", prefix, g.n)
}

func (g *gen) line(format string, args ...any) {
	for i := 0; i < g.ind; i++ {
		g.b.WriteString("    ")
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) open(format string, args ...any) {
	g.line(format, args...)
	g.ind++
}

func (g *gen) close() {
	g.ind--
	g.line("}")
}

// extraConsts occasionally declares boundary constants so that int64
// extremes flow through arithmetic, channels, and the backends.
func (g *gen) extraConsts() {
	if !g.pct(30) {
		return
	}
	vals := []int64{math.MaxInt64, math.MinInt64, -1, 0, 4096}
	v := vals[g.r.Intn(len(vals))]
	n := g.fresh("K")
	g.line("const %s = %d;", n, v)
	g.consts = append(g.consts, n)
}

// bound declares the given loop bound, sometimes behind a named constant.
func (g *gen) bound(v int) string {
	if g.pct(40) {
		n := g.fresh("M")
		g.line("const %s = %d;", n, v)
		return n
	}
	return fmt.Sprint(v)
}

// declChan declares (and, for composite payloads, first declares the
// type of) one channel. ext is "", " external reader", or
// " external writer"; external-writer channels are forced to int payload
// and always get an interface declaration so the harness can feed them.
func (g *gen) declChan(ext string) chanInfo {
	name := g.fresh("c")
	if ext == " external writer" {
		g.line("channel %s: int%s", name, ext)
		g.open("interface %s( out %s) {", g.fresh("feed"), name)
		g.line("Put( $v)")
		g.close()
		return chanInfo{name: name, kind: payInt}
	}
	ci := chanInfo{name: name}
	switch w := g.r.Intn(100); {
	case w < 40:
		ci.kind = payInt
		g.line("channel %s: int%s", name, ext)
	case w < 55:
		ci.kind = payBool
		g.line("channel %s: bool%s", name, ext)
	case w < 73:
		ci.kind = payRec
		ci.typeName = g.fresh("Rec")
		g.line("type %s = record of { a: int, b: int }", ci.typeName)
		g.line("channel %s: %s%s", name, ci.typeName, ext)
	case w < 85:
		ci.kind = payUni
		ci.typeName = g.fresh("Uni")
		g.line("type %s = union of { l: int, r: bool }", ci.typeName)
		g.line("channel %s: %s%s", name, ci.typeName, ext)
	default:
		ci.kind = payArr
		ci.typeName = g.fresh("Arr")
		g.line("type %s = array of int [4]", ci.typeName)
		g.line("channel %s: %s%s", name, ci.typeName, ext)
	}
	return ci
}

// ---------------------------------------------------------------------------
// Expressions

// intExpr renders a pure int-typed expression over the scope.
func (g *gen) intExpr(sc *scope, depth int) string {
	if depth <= 0 || g.pct(40) {
		switch w := g.r.Intn(100); {
		case w < 40 && len(sc.ints) > 0:
			return sc.ints[g.r.Intn(len(sc.ints))]
		case w < 55 && len(g.consts) > 0:
			return g.consts[g.r.Intn(len(g.consts))]
		case w < 60:
			return "@"
		default:
			return fmt.Sprint(g.r.Int63n(17) - 8)
		}
	}
	x := g.intExpr(sc, depth-1)
	y := g.intExpr(sc, depth-1)
	switch w := g.r.Intn(100); {
	case w < 35:
		return fmt.Sprintf("(%s + %s)", x, y)
	case w < 60:
		return fmt.Sprintf("(%s - %s)", x, y)
	case w < 85:
		return fmt.Sprintf("(%s * %s)", x, y)
	case w < 93:
		return fmt.Sprintf("(%s / %s)", x, g.divisor())
	default:
		return fmt.Sprintf("(%s %% %s)", x, g.divisor())
	}
}

// divisor returns a non-zero literal, so generated division only faults
// when a template deliberately asks for a hazard.
func (g *gen) divisor() string {
	ds := []string{"2", "3", "5", "7", "-3"}
	return ds[g.r.Intn(len(ds))]
}

// boolExpr renders a pure bool-typed expression over the scope.
func (g *gen) boolExpr(sc *scope, depth int) string {
	if depth <= 0 || g.pct(35) {
		if len(sc.bools) > 0 && g.pct(40) {
			return sc.bools[g.r.Intn(len(sc.bools))]
		}
		if g.pct(50) {
			return "true"
		}
		return "false"
	}
	switch w := g.r.Intn(100); {
	case w < 55:
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		return fmt.Sprintf("(%s %s %s)",
			g.intExpr(sc, depth-1), ops[g.r.Intn(len(ops))], g.intExpr(sc, depth-1))
	case w < 75:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(sc, depth-1), g.boolExpr(sc, depth-1))
	case w < 95:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(sc, depth-1), g.boolExpr(sc, depth-1))
	default:
		return fmt.Sprintf("!%s", g.boolExpr(sc, depth-1))
	}
}

// ---------------------------------------------------------------------------
// Statements

// seedVars opens a process scope with one or two int variables.
func (g *gen) seedVars(sc *scope) {
	for i := 0; i <= g.r.Intn(2); i++ {
		v := g.fresh("v")
		g.line("$%s = %s;", v, g.intExpr(sc, 1))
		sc.ints = append(sc.ints, v)
	}
}

// fill emits a few effect-free filler statements: declarations,
// assignments, tautological assertions, bounded loops, conditionals, and
// mutable scratch arrays.
func (g *gen) fill(sc *scope, depth, maxN int) {
	n := g.r.Intn(maxN + 1)
	for i := 0; i < n; i++ {
		switch w := g.r.Intn(100); {
		case w < 25:
			v := g.fresh("v")
			g.line("$%s = %s;", v, g.intExpr(sc, 2))
			sc.ints = append(sc.ints, v)
		case w < 40 && len(sc.ints) > 0:
			v := sc.ints[g.r.Intn(len(sc.ints))]
			g.line("%s = %s;", v, g.intExpr(sc, 2))
		case w < 52:
			e := g.intExpr(sc, 1)
			g.line("assert( (%s) == (%s));", e, e)
		case w < 64 && depth > 0:
			g.open("if (%s) {", g.boolExpr(sc, 1))
			g.fill(sc.child(), depth-1, 1)
			g.ind--
			g.open("} else {")
			g.fill(sc.child(), depth-1, 1)
			g.close()
		case w < 74 && depth > 0:
			t := g.fresh("t")
			g.line("$%s = 0;", t)
			g.open("while (%s < 2) {", t)
			g.line("%s = %s + 1;", t, t)
			g.fill(sc.child(), depth-1, 1)
			g.close()
		case w < 84:
			s := g.fresh("s")
			idx := g.r.Intn(3)
			g.line("$%s: #array of int = #{ 3 -> %s };", s, g.intExpr(sc, 1))
			g.line("%s[%d] = %s;", s, idx, g.intExpr(sc, 1))
			v := g.fresh("v")
			g.line("$%s = %s[%d];", v, s, g.r.Intn(3))
			g.line("unlink( %s);", s)
			sc.ints = append(sc.ints, v)
		case w < 92:
			b := g.fresh("b")
			g.line("$%s = %s;", b, g.boolExpr(sc, 1))
			sc.bools = append(sc.bools, b)
		default:
			g.line("skip;")
		}
	}
}

// sendArg renders a literal message expression for the channel.
func (g *gen) sendArg(sc *scope, ch chanInfo) string {
	switch ch.kind {
	case payInt:
		return g.intExpr(sc, 2)
	case payBool:
		return g.boolExpr(sc, 1)
	case payRec:
		return fmt.Sprintf("{ %s, %s }", g.intExpr(sc, 1), g.intExpr(sc, 1))
	case payUni:
		if g.pct(50) {
			return fmt.Sprintf("{ l |> %s }", g.intExpr(sc, 1))
		}
		return fmt.Sprintf("{ r |> %s }", g.boolExpr(sc, 1))
	default:
		return fmt.Sprintf("{ 4 -> %s }", g.intExpr(sc, 1))
	}
}

// send emits one message send on ch: either a fresh literal (released by
// the transfer, §4.4) or an owned variable that the sender unlinks after
// the rendezvous — with the unlink occasionally dropped, doubled, or
// followed by a use when bug seeding is on.
func (g *gen) send(sc *scope, ch chanInfo) {
	lit := ch.kind == payInt || ch.kind == payBool || ch.typeName == "" || g.pct(50)
	if lit {
		g.line("out( %s, %s);", ch.name, g.sendArg(sc, ch))
		return
	}
	d := g.fresh("d")
	g.line("$%s: %s = %s;", d, ch.typeName, g.sendArg(sc, ch))
	if g.seedBugs && g.pct(15) {
		// Seeded bug: release the only reference before sending.
		g.line("unlink( %s);", d)
		g.line("out( %s, %s);", ch.name, d)
		return
	}
	g.line("out( %s, %s);", ch.name, d)
	g.cleanup(d)
}

// cleanup unlinks an owned reference — or, when bug seeding is on,
// occasionally leaks it or frees it twice.
func (g *gen) cleanup(name string) {
	if g.seedBugs {
		switch w := g.r.Intn(100); {
		case w < 12: // leak
			return
		case w < 20: // double free
			g.line("unlink( %s);", name)
			g.line("unlink( %s);", name)
			return
		}
	}
	g.line("unlink( %s);", name)
}

// recvPat returns a receive pattern for ch plus a body callback that
// emits the uses and ownership cleanup of what the pattern bound. The
// split lets the same machinery serve plain "in" statements and alt arms.
func (g *gen) recvPat(sc *scope, ch chanInfo) (string, func()) {
	switch ch.kind {
	case payInt:
		v := g.fresh("x")
		return "$" + v, func() {
			sc.ints = append(sc.ints, v)
			if g.pct(12) {
				g.line("assert( %s < 100000);", v)
			}
		}
	case payBool:
		b := g.fresh("b")
		return "$" + b, func() { sc.bools = append(sc.bools, b) }
	case payRec:
		if g.pct(50) {
			x, y := g.fresh("x"), g.fresh("y")
			return fmt.Sprintf("{ $%s, $%s }", x, y), func() {
				sc.ints = append(sc.ints, x, y)
			}
		}
		m := g.fresh("m")
		return "$" + m, func() {
			x := g.fresh("x")
			g.line("$%s = %s.a + %s.b;", x, m, m)
			sc.ints = append(sc.ints, x)
			g.cleanup(m)
		}
	case payUni:
		u := g.fresh("u")
		return "$" + u, func() { g.cleanup(u) }
	default:
		a := g.fresh("a")
		return "$" + a, func() {
			x := g.fresh("x")
			g.line("$%s = %s[%d];", x, a, g.r.Intn(4))
			sc.ints = append(sc.ints, x)
			g.cleanup(a)
		}
	}
}

// recv emits one plain receive from ch.
func (g *gen) recv(sc *scope, ch chanInfo) {
	pat, body := g.recvPat(sc, ch)
	g.line("in( %s, %s);", ch.name, pat)
	body()
}

// countLoop opens "$i = 0; while (i < bound) {" and returns the counter
// name; the caller must increment it and close the loop.
func (g *gen) countLoop(bound string) string {
	i := g.fresh("i")
	g.line("$%s = 0;", i)
	g.open("while (%s < %s) {", i, bound)
	return i
}

// ---------------------------------------------------------------------------
// Templates

// pipeline chains 2-4 processes over typed channels, each forwarding a
// fixed number of rounds. Open pipelines read their first stage from an
// external writer and emit a summary on an external reader.
func (g *gen) pipeline(external bool) {
	stages := 2 + g.r.Intn(3)
	g.extraConsts()
	rounds := g.bound(1 + g.r.Intn(3))

	var inC, outC chanInfo
	if external {
		inC = g.declChan(" external writer")
		outC = g.declChan(" external reader")
	}
	chain := make([]chanInfo, stages-1)
	for i := range chain {
		chain[i] = g.declChan("")
	}

	for s := 0; s < stages; s++ {
		g.open("process %s {", g.fresh("p"))
		sc := &scope{}
		g.seedVars(sc)
		i := g.countLoop(rounds)
		ls := sc.child() // receive bindings are loop-body-local
		if s == 0 && external {
			g.recv(ls, inC)
		}
		if s > 0 {
			g.recv(ls, chain[s-1])
		}
		g.fill(ls, 2, 2)
		if s < stages-1 {
			g.send(ls, chain[s])
		} else if external {
			g.send(ls, outC)
		}
		g.line("%s = %s + 1;", i, i)
		g.close()
		g.fill(sc, 1, 1)
		g.close()
	}
}

// merge runs two producers into one consumer that alt-receives with
// guard counters until both streams are drained.
func (g *gen) merge() {
	g.extraConsts()
	m1 := 1 + g.r.Intn(3)
	m2 := 1 + g.r.Intn(3)
	c1 := g.declChan("")
	c2 := g.declChan("")

	for _, pc := range []struct {
		ch chanInfo
		m  int
	}{{c1, m1}, {c2, m2}} {
		g.open("process %s {", g.fresh("p"))
		sc := &scope{}
		g.seedVars(sc)
		i := g.countLoop(fmt.Sprint(pc.m))
		g.fill(sc, 1, 1)
		g.send(sc, pc.ch)
		g.line("%s = %s + 1;", i, i)
		g.close()
		g.close()
	}

	g.open("process %s {", g.fresh("p"))
	sc := &scope{}
	a, b := g.fresh("n"), g.fresh("n")
	g.line("$%s = 0;", a)
	g.line("$%s = 0;", b)
	sc.ints = append(sc.ints, a, b)
	g.open("while ((%s < %d) || (%s < %d)) {", a, m1, b, m2)
	g.open("alt {")
	p1, body1 := g.recvPat(sc.child(), c1) // pattern bindings are arm-local
	g.open("case( %s < %d, in( %s, %s)) {", a, m1, c1.name, p1)
	body1()
	g.line("%s = %s + 1;", a, a)
	g.close()
	p2, body2 := g.recvPat(sc.child(), c2)
	g.open("case( %s < %d, in( %s, %s)) {", b, m2, c2.name, p2)
	body2()
	g.line("%s = %s + 1;", b, b)
	g.close()
	g.close()
	g.close()
	g.fill(sc, 1, 2)
	g.close()
}

// fanout runs one producer that alt-sends to two consumers — the §6.1
// postponed-evaluation case: the message expression of the chosen arm is
// evaluated only when the rendezvous fires.
func (g *gen) fanout() {
	g.extraConsts()
	m1 := 1 + g.r.Intn(3)
	m2 := 1 + g.r.Intn(3)
	c1 := g.declChan("")
	c2 := g.declChan("")

	g.open("process %s {", g.fresh("p"))
	sc := &scope{}
	g.seedVars(sc)
	a, b := g.fresh("g"), g.fresh("g")
	g.line("$%s = 0;", a)
	g.line("$%s = 0;", b)
	sc.ints = append(sc.ints, a, b)
	g.open("while ((%s < %d) || (%s < %d)) {", a, m1, b, m2)
	g.open("alt {")
	g.open("case( %s < %d, out( %s, %s)) {", a, m1, c1.name, g.sendArg(sc, c1))
	g.line("%s = %s + 1;", a, a)
	g.close()
	g.open("case( %s < %d, out( %s, %s)) {", b, m2, c2.name, g.sendArg(sc, c2))
	g.line("%s = %s + 1;", b, b)
	g.close()
	g.close()
	g.close()
	g.close()

	for _, pc := range []struct {
		ch chanInfo
		m  int
	}{{c1, m1}, {c2, m2}} {
		g.open("process %s {", g.fresh("p"))
		sc := &scope{}
		i := g.countLoop(fmt.Sprint(pc.m))
		g.recv(sc, pc.ch)
		g.fill(sc, 1, 1)
		g.line("%s = %s + 1;", i, i)
		g.close()
		g.close()
	}
}

// dispatch sends tagged union messages that two reader processes split
// by tag pattern — the single-reader-port construction of §4.2: the two
// ports are disjoint and together exhaustive.
func (g *gen) dispatch() {
	g.extraConsts()
	t1 := 1 + g.r.Intn(3)
	t2 := 1 + g.r.Intn(3)
	tn := g.fresh("Uni")
	g.line("type %s = union of { l: int, r: bool }", tn)
	cu := chanInfo{name: g.fresh("c"), kind: payUni, typeName: tn}
	g.line("channel %s: %s", cu.name, tn)

	// Producer: a deterministic shuffle of t1 "l" and t2 "r" messages.
	tags := make([]int, 0, t1+t2)
	for i := 0; i < t1; i++ {
		tags = append(tags, 0)
	}
	for i := 0; i < t2; i++ {
		tags = append(tags, 1)
	}
	g.r.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })

	g.open("process %s {", g.fresh("p"))
	sc := &scope{}
	g.seedVars(sc)
	for _, tag := range tags {
		if tag == 0 {
			g.line("out( %s, { l |> %s });", cu.name, g.intExpr(sc, 2))
		} else {
			g.line("out( %s, { r |> %s });", cu.name, g.boolExpr(sc, 1))
		}
	}
	g.close()

	g.open("process %s {", g.fresh("p"))
	sc = &scope{}
	i := g.countLoop(fmt.Sprint(t1))
	x := g.fresh("x")
	g.line("in( %s, { l |> $%s });", cu.name, x)
	sc.ints = append(sc.ints, x)
	g.fill(sc, 1, 1)
	g.line("%s = %s + 1;", i, i)
	g.close()
	g.close()

	g.open("process %s {", g.fresh("p"))
	sc = &scope{}
	i = g.countLoop(fmt.Sprint(t2))
	bv := g.fresh("b")
	g.line("in( %s, { r |> $%s });", cu.name, bv)
	sc.bools = append(sc.bools, bv)
	g.fill(sc, 1, 1)
	g.line("%s = %s + 1;", i, i)
	g.close()
	g.close()
}

// ownership stresses §4.4 reference counting: every round allocates a
// composite, optionally link/unlinks it, transfers it, and both sides
// clean up — except when bug seeding leaks or double-frees.
func (g *gen) ownership() {
	g.extraConsts()
	rounds := g.bound(1 + g.r.Intn(4))
	tn := g.fresh("Rec")
	var ch chanInfo
	if g.pct(50) {
		g.line("type %s = record of { a: int, b: int }", tn)
		ch = chanInfo{name: g.fresh("c"), kind: payRec, typeName: tn}
	} else {
		g.line("type %s = array of int [4]", tn)
		ch = chanInfo{name: g.fresh("c"), kind: payArr, typeName: tn}
	}
	g.line("channel %s: %s", ch.name, tn)

	g.open("process %s {", g.fresh("p"))
	sc := &scope{}
	g.seedVars(sc)
	i := g.countLoop(rounds)
	d := g.fresh("d")
	g.line("$%s: %s = %s;", d, tn, g.sendArg(sc, ch))
	if g.pct(30) {
		g.line("link( %s);", d)
		g.line("unlink( %s);", d)
	}
	g.line("out( %s, %s);", ch.name, d)
	g.cleanup(d)
	g.line("%s = %s + 1;", i, i)
	g.close()
	g.close()

	g.open("process %s {", g.fresh("p"))
	sc = &scope{}
	i = g.countLoop(rounds)
	g.recv(sc, ch)
	g.fill(sc, 1, 1)
	g.line("%s = %s + 1;", i, i)
	g.close()
	g.close()
}

// ring passes an int token around a 2-3 process cycle for a fixed number
// of rounds: every channel has one writer and one reader, so each of the
// optimizer's scan lists holds one process.
func (g *gen) ring() {
	g.extraConsts()
	n := 2 + g.r.Intn(2)
	rounds := g.bound(1 + g.r.Intn(3))
	chans := make([]chanInfo, n)
	for i := range chans {
		chans[i] = chanInfo{name: g.fresh("r"), kind: payInt}
		g.line("channel %s: int", chans[i].name)
	}

	// Process 0 injects the token, then receives it back each round.
	g.open("process %s {", g.fresh("p"))
	sc := &scope{}
	tok := g.fresh("v")
	g.line("$%s = %s;", tok, g.intExpr(sc, 1))
	sc.ints = append(sc.ints, tok)
	i := g.countLoop(rounds)
	g.line("out( %s, %s);", chans[0].name, tok)
	u := g.fresh("x")
	g.line("in( %s, $%s);", chans[n-1].name, u)
	g.line("%s = %s + 1;", tok, u)
	g.fill(sc, 1, 1)
	g.line("%s = %s + 1;", i, i)
	g.close()
	g.close()

	for k := 1; k < n; k++ {
		g.open("process %s {", g.fresh("p"))
		sc := &scope{}
		i := g.countLoop(rounds)
		v := g.fresh("x")
		g.line("in( %s, $%s);", chans[k-1].name, v)
		sc.ints = append(sc.ints, v)
		g.fill(sc, 1, 1)
		g.line("out( %s, (%s + 1));", chans[k].name, v)
		g.line("%s = %s + 1;", i, i)
		g.close()
		g.close()
	}
}
