package emit

import (
	"fmt"
	"testing"
)

// TestAppendfMatchesFmt holds Appendf to fmt.Sprintf on every verb and
// argument type it knows.
func TestAppendfMatchesFmt(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"plain line", nil},
		{"fprintf(stderr, \"%%s\\n\", msg);", nil},
		{"#define X %d", []any{1024}},
		{"%d %d %d %d", []any{-7, int32(-3), int64(1) << 40, uint64(1) << 63}},
		{"P%d.st[sp%+d] P%d.st[sp%+d]", []any{3, -1, 3, 0}},
		{"%4d  %s", []any{7, "const 1"}},
		{"%4d|%4d|%4d", []any{12345, -12, 0}},
		{"0x%x 0x%x", []any{uint64(0x1f0), -255}},
		{"absorb=%b absorb=%b", []any{int64(5), int64(0)}},
		{"#line %d %q", []any{12, "dir/a \"b\".esp"}},
		{"assert(%s == %t); %t", []any{"x_1", true, false}},
		{"%s", []any{""}},
	}
	for _, c := range cases {
		want := fmt.Sprintf(c.format, c.args...)
		if got := string(Appendf([]byte("pre:"), c.format, c.args...)); got != "pre:"+want {
			t.Errorf("Appendf(%q) = %q, want %q", c.format, got, "pre:"+want)
		}
	}
}

func TestAppendfDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 256)
	name := "x"
	n := testing.AllocsPerRun(100, func() {
		buf = Appendf(buf[:0], "P%d.loc[%d] = %s; goto P%d_I%d; %t %x", 3, 1000, name, 3, 1001, true, uint64(99))
	})
	if n != 0 {
		t.Errorf("Appendf allocates %v times per call", n)
	}
}

func TestAppendfRejectsMisuse(t *testing.T) {
	for _, c := range []struct {
		format string
		args   []any
	}{
		{"%d", []any{"s"}},
		{"%s", []any{1}},
		{"%v", []any{1}},
		{"%d", []any{1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Appendf(%q, %v) did not panic", c.format, c.args)
				}
			}()
			Appendf(nil, c.format, c.args...)
		}()
	}
}

func TestStringSharesBytes(t *testing.T) {
	b := Appendf(make([]byte, 0, 16), "a%db", 42)
	if s := String(b); s != "a42b" {
		t.Errorf("String = %q", s)
	}
	if String(nil) != "" {
		t.Error("String(nil) is not empty")
	}
}
