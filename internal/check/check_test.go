package check

import (
	"strings"
	"testing"

	"esplang/internal/ast"
	"esplang/internal/parser"
	"esplang/internal/types"
)

func checkOK(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := parser.Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return info
}

func checkErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	prog, err := parser.Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatalf("check: expected error containing %q, got none", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("check: error %q does not contain %q", err, wantSubstr)
	}
}

func TestCheckAdd5(t *testing.T) {
	info := checkOK(t, `
channel chan1: int
channel chan2: int
process add5 {
    while (true) {
        in( chan1, $i);
        out( chan2, i+5);
    }
}
process driver {
    out( chan1, 37);
    in( chan2, $r);
    assert( r == 42);
}
`)
	if len(info.Channels) != 2 || len(info.Processes) != 2 {
		t.Fatalf("got %d channels, %d processes", len(info.Channels), len(info.Processes))
	}
	add5 := info.ProcessByName["add5"]
	if len(add5.Vars) != 1 || add5.Vars[0].Name != "i" {
		t.Errorf("add5 vars = %+v", add5.Vars)
	}
	if add5.Vars[0].Type.Kind != types.Int {
		t.Errorf("i has type %s, want int", add5.Vars[0].Type)
	}
}

func TestInferenceFromLiteral(t *testing.T) {
	info := checkOK(t, `
process p {
    $j = 36;
    $b = true;
    assert( b || j > 0);
}
`)
	p := info.ProcessByName["p"]
	if p.Vars[0].Type.Kind != types.Int || p.Vars[1].Type.Kind != types.Bool {
		t.Errorf("inferred types: %s, %s", p.Vars[0].Type, p.Vars[1].Type)
	}
}

func TestRecordUnionTypes(t *testing.T) {
	info := checkOK(t, `
type sendT = record of { dest: int, vAddr: int, size: int}
type updateT = record of { vAddr: int, pAddr: int}
type userT = union of { send: sendT, update: updateT}
channel c: userT
process p {
    $sr: sendT = { 7, 54677, 1024};
    $ur1: userT = { send |> sr};
    $ur2: userT = { send |> { 5, 10000, 512}};
    out( c, ur1);
    out( c, ur2);
    out( c, ur2);
}
process q {
    while (true) {
        alt {
            case( in( c, { send |> { $dest, $vAddr, $size}})) { skip; }
            case( in( c, { update |> { $vAddr, $pAddr}})) { skip; }
        }
    }
}
`)
	ut := info.ChannelByName["c"].Elem
	if ut.Kind != types.Union || len(ut.Fields) != 2 {
		t.Fatalf("userT = %s", ut)
	}
	if ut.Name() != "userT" {
		t.Errorf("union name %q, want userT", ut.Name())
	}
}

func TestPatternMatchStatement(t *testing.T) {
	// Fourth line of the paper's §4.1 example: a pattern on the LHS.
	checkOK(t, `
type sendT = record of { dest: int, vAddr: int, size: int}
type userT = union of { send: sendT}
process p {
    $ur2: userT = { send |> { 5, 10000, 512}};
    { send |> { $dest, $vAddr, $size}} = ur2;
    assert( dest == 5 && vAddr == 10000 && size == 512);
}
`)
}

func TestMutableArray(t *testing.T) {
	checkOK(t, `
const TABLE_SIZE = 16;
process p {
    $table: #array of int = #{ TABLE_SIZE -> 0, ... };
    table[3] = 7;
    assert( table[3] == 7);
}
`)
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name, src, want string
	}{
		{"undefined var", `process p { x = 1; }`, "undefined variable x"},
		{"undefined channel", `process p { out( nosuch, 1); }`, "undefined channel"},
		{"uninitialized use", `process p { $x = y; }`, "undefined variable y"},
		{"bad assign type", `process p { $x = 1; x = true; }`, "cannot assign"},
		{"assign to const", `const N = 3; process p { N = 4; }`, "cannot assign to constant"},
		{"immutable array write", `process p { $a: array of int = { 4 -> 0}; a[0] = 1; }`, "immutable"},
		{"if cond not bool", `process p { if (3) { skip; } }`, "must be bool"},
		{"while cond not bool", `process p { while (3) { skip; } }`, "must be bool"},
		{"assert not bool", `process p { assert( 3); }`, "must be bool"},
		{"break outside loop", `process p { break; }`, "break outside"},
		{"binding in expr", `process p { $x = $y + 1; }`, "only allowed in patterns"},
		{"arith on bool", `process p { $x = true + 1; }`, "requires int operands"},
		{"no processes", `channel c: int`, "no processes"},
		{"recursive type", `type t = record of { next: t} process p { skip; }`, "recursive type"},
		{"redeclared channel", "channel c: int\nchannel c: bool\nprocess p { in( c, $x); }", "redeclared"},
		{"redeclared process", `process p { skip; } process p { skip; }`, "redeclared"},
		{"redeclared var", `process p { $x = 1; $x = 2; }`, "redeclared"},
		{"record literal arity", `type r = record of { a: int, b: int} process p { $v: r = { 1}; }`, "has 2 fields"},
		{"union bad field", `type u = union of { a: int} process p { $v: u = { b |> 1}; }`, "no field b"},
		{"composite needs type", `process p { $v = { 1, 2}; }`, "cannot infer"},
		{"link scalar", `process p { $x = 1; link( x); }`, "requires a record"},
		{"unlink scalar", `process p { $x = 1; unlink( x); }`, "requires a record"},
		{"record equality", `type r = record of { a: int} process p { $x: r = { 1}; $y: r = { 1}; assert( x == y); }`, "compares scalars"},
		{"index non-array", `process p { $x = 1; $y = x[0]; }`, "requires an array"},
		{"field non-record", `process p { $x = 1; $y = x.f; }`, "requires a record"},
		{"no such field", `type r = record of { a: int} process p { $x: r = { 1}; $y = x.b; }`, "no field b"},
		{"array of arrays", `type t = array of array of int process p { skip; }`, "element type must be int or bool"},
		{"mutable payload", `channel c: #array of int process p { in( c, $x); }`, "deeply immutable"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkErr(t, tt.src, tt.want)
		})
	}
}

// TestUntypedLiteralReportedOnce: a composite literal whose type cannot
// be inferred is one diagnostic, wherever the literal or a variable
// declared from it is used — never a crash and never a cascade of
// "<nil type>" follow-ups.
func TestUntypedLiteralReportedOnce(t *testing.T) {
	for _, body := range []string{
		`$d = { 0}; link( d);`,
		`$d = { 0}; unlink( d);`,
		`while { unlink( { 0}); }`,
		`$d = { 0}; if (d) { skip; }`,
		`$d = { 0}; while (d) { skip; }`,
		`$d = { 0}; assert( d);`,
		`$d = { 0}; $e = d + 1;`,
		`$d = { 0}; $e = d == 1;`,
		`$d = { 0}; $e = d[0]; $f = d.x;`,
		`$d = { 0}; d[0] = 1; d.x = 1;`,
		`$d = { 0}; { $a} = d;`,
		`$d = { 0}; in( c, d);`,
	} {
		prog, err := parser.Parse([]byte("channel c: int\nprocess p { " + body + " }\nprocess q { out( c, 1); }"))
		if err != nil {
			t.Fatalf("%s: parse: %v", body, err)
		}
		_, err = Check(prog)
		errs, _ := err.(ErrorList)
		if len(errs) != 1 || !strings.Contains(errs[0].Msg, "cannot infer type") {
			t.Errorf("%s: got %v, want the one \"cannot infer type\" diagnostic", body, err)
		}
	}
}

func TestChannelDirectionRules(t *testing.T) {
	checkErr(t, `
channel c: int external writer
process p { out( c, 1); }
`, "external writer")
	checkErr(t, `
channel c: int external reader
process p { in( c, $x); }
`, "external reader")
	// The legal directions pass.
	checkOK(t, `
channel w: int external writer
channel r: int external reader
process p {
    in( w, $x);
    out( r, x);
}
`)
}

func TestPatternDisjointness(t *testing.T) {
	// Two processes with overlapping (identical) patterns on one channel.
	checkErr(t, `
channel c: int
process a { in( c, $x); }
process b { in( c, $y); }
`, "overlaps")
	// Distinct union tags are disjoint.
	checkOK(t, `
type u = union of { send: int, update: int}
channel c: u
process a { in( c, { send |> $x}); }
process b { in( c, { update |> $y}); }
process w { out( c, { send |> 1}); out( c, { update |> 2}); }
`)
	// Distinct @ positions are disjoint (the ret-field convention).
	checkOK(t, `
type r = record of { ret: int, v: int}
channel c: r
process a { in( c, { @, $x}); }
process b { in( c, { @, $y}); }
process w { out( c, { 0, 1}); }
`)
}

func TestExhaustiveness(t *testing.T) {
	// Static non-exhaustive union dispatch is an error.
	checkErr(t, `
type u = union of { send: int, update: int}
channel c: u
process a { in( c, { send |> $x}); }
process w { out( c, { send |> 1}); }
`, "not exhaustive")
	// Dynamic tests defer exhaustiveness to the verifier.
	checkOK(t, `
type r = record of { ret: int, v: int}
channel c: r
process a { in( c, { @, $x}); }
process w { out( c, { 0, 1}); }
`)
}

func TestInterfaceChecking(t *testing.T) {
	info := checkOK(t, `
type sendT = record of { dest: int, vAddr: int, size: int}
type updateT = record of { vAddr: int, pAddr: int}
type userT = union of { send: sendT, update: updateT}
channel userReqC: userT
interface userReq( out userReqC) {
    Send( { send |> { $dest, $vAddr, $size}}),
    Update( { update |> $new}),
}
process a { in( userReqC, { send |> { $d, $v, $s}}); }
process b { in( userReqC, { update |> $u}); }
`)
	ch := info.ChannelByName["userReqC"]
	if ch.Ext != ast.ExtWriter {
		t.Errorf("interface did not mark channel external writer: %v", ch.Ext)
	}
	if ch.Iface == nil || len(ch.Iface.Cases) != 2 {
		t.Fatalf("iface = %+v", ch.Iface)
	}
	send := ch.Iface.Cases[0]
	if len(send.Params) != 3 || send.Params[0].Name != "dest" {
		t.Errorf("Send params = %+v", send.Params)
	}
	update := ch.Iface.Cases[1]
	if len(update.Params) != 1 || update.Params[0].Type.Kind != types.Record {
		t.Errorf("Update params = %+v", update.Params)
	}
}

func TestInterfaceCaseOverlap(t *testing.T) {
	checkErr(t, `
channel c: int
interface i( out c) {
    A( $x),
    B( $y),
}
process p { in( c, $v); }
`, "overlap")
}

func TestMutabilityCast(t *testing.T) {
	checkOK(t, `
channel c: array of int
process p {
    $a: #array of int = #{ 4 -> 0};
    a[0] = 9;
    out( c, immutable(a));
}
process q {
    in( c, $d);
    $m = mutable(d);
    m[1] = 2;
    assert( m[0] == 9);
}
`)
}

func TestSelfHasIntType(t *testing.T) {
	checkOK(t, `
type r = record of { ret: int, v: int}
channel c: r
process p {
    out( c, { @, 1});
}
process q {
    in( c, { $ret, $v});
    assert( ret >= 0);
}
`)
}

func TestAltGuards(t *testing.T) {
	checkErr(t, `
channel c: int
process p {
    alt {
        case( 3, in( c, $x)) { skip; }
    }
}
`, "guard must be bool")
}

func TestBindingScopesToAltCase(t *testing.T) {
	// A binding in one alt case is not visible in another case's body.
	checkErr(t, `
channel c: int
channel d: bool
process p {
    alt {
        case( in( c, $x)) { skip; }
        case( in( d, $b)) { $y = x; }
    }
}
`, "undefined variable x")
}

func TestShadowingInNestedScope(t *testing.T) {
	checkOK(t, `
process p {
    $x = 1;
    if (x == 1) {
        $x = true;
        assert( x);
    }
    assert( x == 1);
}
`)
}

func TestConstInPattern(t *testing.T) {
	checkOK(t, `
const MAGIC = 99;
type r = record of { kind: int, v: int}
channel c: r
process a { in( c, { MAGIC, $v}); }
process w { out( c, { MAGIC, 1}); }
`)
}

func TestTypesShareStructure(t *testing.T) {
	info := checkOK(t, `
type a = record of { x: int}
type b = record of { x: int}
channel c: a
process p { $v: b = { 1}; out( c, v); }
process q { in( c, $w); }
`)
	// Structural typing: a and b are the same type, so the send is legal.
	if got := info.ChannelByName["c"].Elem; got.Name() != "a" && got.Name() != "b" {
		t.Errorf("channel elem name = %q", got.Name())
	}
}

func TestGuardCannotSeeCaseBindings(t *testing.T) {
	// Guards are evaluated before the alternative's pattern binds.
	checkErr(t, `
channel c: int
process p {
    alt {
        case( x > 0, in( c, $x)) { skip; }
    }
}
`, "undefined variable x")
}

func TestBindingInOutPosition(t *testing.T) {
	checkErr(t, `
channel c: int
process p { out( c, $x); }
`, "only allowed in patterns")
}

func TestInterfaceDirectionConflict(t *testing.T) {
	checkErr(t, `
channel c: int external reader
interface i( out c) { A( $x) }
process p { in( c, $v); }
`, "declared external reader")
}

func TestInterfaceOnUnknownChannel(t *testing.T) {
	checkErr(t, `
interface i( out nosuch) { A( $x) }
process p { skip; }
`, "undefined channel")
}

func TestDuplicateInterface(t *testing.T) {
	checkErr(t, `
channel c: int
interface i1( out c) { A( $x) }
interface i2( out c) { B( $x) }
process p { in( c, $v); }
`, "already has interface")
}

func TestMutablePatternRejected(t *testing.T) {
	checkErr(t, `
type r = record of { a: int }
channel c: r
process p { in( c, #{ $a}); }
process w { out( c, { 1}); }
`, "cannot be mutable")
}

func TestArrayLiteralNeedsArrayType(t *testing.T) {
	checkErr(t, `
type r = record of { a: int }
process p { $x: r = { 4 -> 0}; }
`, "array literal where")
}

func TestUnionLiteralNeedsUnionType(t *testing.T) {
	checkErr(t, `
type r = record of { a: int }
process p { $x: r = { a |> 1}; }
`, "union literal where")
}

func TestNestedPatternTypeErrors(t *testing.T) {
	checkErr(t, `
type inner = record of { a: int }
type outer = record of { x: inner }
channel c: outer
process p { in( c, { { $a, $b}}); }
process w { out( c, { { 1}}); }
`, "has 1 fields")
}

func TestWildcardOnlyReceivePattern(t *testing.T) {
	// A lone wildcard receive discards the message (and its storage).
	checkOK(t, `
type r = record of { a: int }
channel c: r
process p { in( c, _); }
process w { out( c, { 1}); }
`)
}
