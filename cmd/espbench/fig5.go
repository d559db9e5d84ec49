package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"time"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/vm"
	"esplang/internal/vmmc"
)

// fig5Cfg is the NIC configuration of every Fig. 5 run (the vmmcbench
// default).
var fig5Cfg = nic.DefaultConfig()

// A fig5Case is one call of a public Fig. 5 driver.
type fig5Case struct {
	flavor vmmc.Flavor
	kind   string // "pingpong", "oneway", or "bidir"
	size   int    // message bytes
	n      int    // rounds, messages, or messages per side
}

func (c fig5Case) key() string { return fmt.Sprintf("%s %s %d", c.flavor, c.kind, c.size) }

// msgs is the number of messages the case delivers.
func (c fig5Case) msgs() int {
	if c.kind == "oneway" {
		return c.n
	}
	return 2 * c.n
}

// fig5Sweep is one Fig. 5 sweep per flavor: latency at four sizes, one-way
// and bidirectional bandwidth at three. The sizes straddle the 32-byte
// inline path and the 4 KiB page-chunked fetch path.
func fig5Sweep(flavors ...vmmc.Flavor) []fig5Case {
	var cs []fig5Case
	for _, f := range flavors {
		for _, s := range []int{4, 64, 512, 4096} {
			cs = append(cs, fig5Case{f, "pingpong", s, 40})
		}
		for _, s := range []int{1024, 4096, 65536} {
			cs = append(cs, fig5Case{f, "oneway", s, 30})
		}
		for _, s := range []int{1024, 4096, 65536} {
			cs = append(cs, fig5Case{f, "bidir", s, 15})
		}
	}
	return cs
}

// runPublic runs the case through vmmc's public driver: simulated
// one-way latency in ns, or bandwidth in MB/s.
func (c fig5Case) runPublic() (float64, error) {
	switch c.kind {
	case "pingpong":
		return vmmc.PingPong(c.flavor, fig5Cfg, c.size, c.n)
	case "oneway":
		return vmmc.OneWay(c.flavor, fig5Cfg, c.size, c.n)
	default:
		return vmmc.Bidirectional(c.flavor, fig5Cfg, c.size, c.n)
	}
}

//go:embed testdata/fig5.golden
var fig5GoldenText string

// parseGolden reads "<flavor> <kind> <size> <value>" lines; values are
// the exact float64 results, so simulated numbers are compared bit for
// bit.
func parseGolden(text string) (map[string]float64, error) {
	g := map[string]float64{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("fig5.golden:%d: want 4 fields, got %d", i+1, len(f))
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("fig5.golden:%d: %w", i+1, err)
		}
		g[strings.Join(f[:3], " ")] = v
	}
	return g, nil
}

type fig5Bench struct {
	seed   int64
	cases  []fig5Case
	golden map[string]float64

	// Totals over the traced operations.
	msgs, events                int64
	nicRuns, pkts, acks, cycles int64
	vmStats                     vm.Stats
}

func newFig5Bench(e env, flavors ...vmmc.Flavor) (*fig5Bench, error) {
	g, err := parseGolden(fig5GoldenText)
	if err != nil {
		return nil, err
	}
	b := &fig5Bench{seed: e.seed, cases: fig5Sweep(flavors...), golden: g}
	for _, c := range b.cases {
		if _, ok := g[c.key()]; !ok {
			return nil, fmt.Errorf("fig5.golden has no entry for %q", c.key())
		}
	}
	for _, f := range flavors {
		if _, err := vmmc.NewCluster(f, fig5Cfg); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// setupFig5ESP compiles the ESP firmware from source — the work the
// first vmmc.NewCluster of a process does before vmmc's per-process
// cache takes over, done explicitly here so every set-up repetition pays
// it — and builds a cluster.
func setupFig5ESP(e env) (bench, error) {
	if _, err := esplang.Compile(vmmc.ESPSource(fig5Cfg), esplang.CompileOptions{Name: "vmmcESP"}); err != nil {
		return nil, err
	}
	return newFig5Bench(e, vmmc.ESP)
}

func setupFig5Orig(e env) (bench, error) {
	return newFig5Bench(e, vmmc.Orig, vmmc.OrigNoFastPaths)
}

func (b *fig5Bench) op(k int, tr *tracer, parts partTimes) error {
	for _, i := range opOrder(b.seed, k, len(b.cases)) {
		c := b.cases[i]
		var v float64
		var err error
		t0 := time.Now()
		if tr == nil {
			v, err = c.runPublic()
		} else {
			v, err = b.runTraced(c, tr)
		}
		parts.done(c.key(), t0)
		if err != nil {
			return err
		}
		if want := b.golden[c.key()]; v != want {
			return fmt.Errorf("%s: simulated %v, golden %v", c.key(), v, want)
		}
	}
	return nil
}

// timedFW wraps a NIC's firmware so each Run is a span.
type timedFW struct {
	inner nic.Firmware
	tr    *tracer
	span  string
}

func (f *timedFW) Name() string { return f.inner.Name() }

func (f *timedFW) Run(n *nic.NIC) int64 {
	f.tr.begin(f.span)
	c := f.inner.Run(n)
	f.tr.end()
	return c
}

// runTraced drives the case's cluster itself, with the same host logic
// as vmmc.PingPong, OneWay, and Bidirectional, so that the firmware
// runs, the host callbacks, and the event loop can be timed separately.
// The simulated result must equal the public driver's (the golden
// value), which op checks.
func (b *fig5Bench) runTraced(c fig5Case, tr *tracer) (float64, error) {
	cl, err := vmmc.NewCluster(c.flavor, fig5Cfg)
	if err != nil {
		return 0, err
	}
	fwSpan := "vmmc.origfw_run"
	if c.flavor == vmmc.ESP {
		fwSpan = "vm.fw_run"
	}
	var esp [2]*vmmc.ESPFirmware
	for i, n := range cl.NICs {
		esp[i], _ = n.FW.(*vmmc.ESPFirmware)
		n.FW = &timedFW{inner: n.FW, tr: tr, span: fwSpan}
	}
	h0, h1 := cl.Hosts[0], cl.Hosts[1]
	onRecv := func(h *vmmc.Host, fn func()) {
		h.OnRecv = func(nic.Notification) {
			tr.begin("vmmc.host")
			fn()
			tr.end()
		}
	}
	host := func(fn func()) {
		tr.begin("vmmc.host")
		fn()
		tr.end()
	}
	var events int
	run := func() {
		tr.begin("sim.run")
		events = cl.K.Run(nil)
		tr.end()
	}
	const outstanding = 8 // as in vmmc.OneWay and vmmc.Bidirectional
	start := cl.K.Now()
	var v float64
	switch c.kind {
	case "pingpong":
		remaining := c.n
		onRecv(h1, func() {
			if remaining > 0 {
				h1.Send(0, 0, c.size)
			}
		})
		onRecv(h0, func() {
			remaining--
			if remaining > 0 {
				h0.Send(0, 0, c.size)
			}
		})
		host(func() { h0.Send(0, 0, c.size) })
		run()
		if remaining != 0 {
			return 0, fmt.Errorf("%s: stalled with %d rounds left", c.key(), remaining)
		}
		v = float64(cl.K.Now()-start) / float64(2*c.n)
	case "oneway":
		posted := 0
		post := func() {
			for posted < c.n && posted-len(h1.Recvd) < outstanding {
				h0.Send(0, 0, c.size)
				posted++
			}
		}
		onRecv(h1, post)
		host(post)
		run()
		if len(h1.Recvd) != c.n {
			return 0, fmt.Errorf("%s: %d/%d delivered", c.key(), len(h1.Recvd), c.n)
		}
		v = mbps(int64(c.size)*int64(c.n), cl.K.Now()-start)
	default:
		var posted [2]int
		post := func(side int) {
			for posted[side] < c.n && posted[side]-len(cl.Hosts[1-side].Recvd) < outstanding {
				cl.Hosts[side].Send(0, 0, c.size)
				posted[side]++
			}
		}
		onRecv(h0, func() { post(1) })
		onRecv(h1, func() { post(0) })
		host(func() { post(0); post(1) })
		run()
		if got := len(h0.Recvd) + len(h1.Recvd); got != 2*c.n {
			return 0, fmt.Errorf("%s: %d/%d delivered", c.key(), got, 2*c.n)
		}
		v = mbps(2*int64(c.size)*int64(c.n), cl.K.Now()-start)
	}

	b.msgs += int64(c.msgs())
	b.events += int64(events)
	for i, n := range cl.NICs {
		b.nicRuns += n.Runs
		b.pkts += n.PktsSent
		b.acks += n.AcksSent
		b.cycles += n.CPUCycles
		if esp[i] != nil {
			addStats(&b.vmStats, esp[i].Machine().Stats)
		}
	}
	return v, nil
}

// mbps is vmmc's bytes-over-nanoseconds conversion, with the same
// operation order so the result is bit-identical.
func mbps(bytes, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(bytes) / float64(ns) * 1e9 / 1e6
}

func addStats(dst *vm.Stats, s vm.Stats) {
	dst.Instrs += s.Instrs
	dst.CtxSwitches += s.CtxSwitches
	dst.Rendezvous += s.Rendezvous
	dst.Allocs += s.Allocs
	dst.Polls += s.Polls
}

func (b *fig5Bench) layers(tr *tracer, _ int) (map[string]float64, error) {
	if b.msgs == 0 {
		return nil, fmt.Errorf("no traced messages")
	}
	msgs := float64(b.msgs)
	per := func(v int64) float64 { return float64(v) / msgs }
	return map[string]float64{
		"sim.events_per_msg":     per(b.events),
		"sim.self_ns_per_event":  float64(tr.agg("sim.run").selfNs) / float64(b.events),
		"nic.fw_runs_per_msg":    per(b.nicRuns),
		"nic.pkts_per_msg":       per(b.pkts),
		"nic.acks_per_msg":       per(b.acks),
		"nic.cpu_cycles_per_msg": per(b.cycles),
		"vmmc.host_ns_per_msg":   float64(tr.agg("vmmc.host").totalNs) / msgs,
		"vmmc.origfw_ns_per_msg": float64(tr.agg("vmmc.origfw_run").selfNs) / msgs,
		"vm.fw_ns_per_msg":       float64(tr.agg("vm.fw_run").selfNs) / msgs,
		"vm.instrs_per_msg":      per(b.vmStats.Instrs),
		"vm.rendezvous_per_msg":  per(b.vmStats.Rendezvous),
		"vm.ctxsw_per_msg":       per(b.vmStats.CtxSwitches),
		"vm.allocs_per_msg":      per(b.vmStats.Allocs),
		"vm.polls_per_msg":       per(b.vmStats.Polls),
	}, nil
}
