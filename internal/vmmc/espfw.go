package vmmc

import (
	"fmt"
	"sync"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/types"
	"esplang/internal/vm"
)

// ESPFirmware runs the ESP VMMC firmware (espsrc.go) on the ESP virtual
// machine, bridged to the simulated NIC hardware. The bridge is the Go
// analogue of the paper's ~3000 lines of programmer-supplied helper C:
// device-register access, DMA initiation, packet marshalling and
// unmarshalling, and the notification queue (§4.6).
type ESPFirmware struct {
	m *vm.Machine
	b *espBridge

	// Simulated-time anchor for VM trace timestamps: at the start of each
	// firmware run the NIC clock and the cycle meter are recorded, so the
	// VM clock can place every event at runStartNs plus the nanoseconds
	// the cycles consumed since then represent.
	runStartNs     int64
	runStartCycles int64
}

// maxLiveObjects bounds the firmware heap: if the ESP code leaked, long
// benchmark runs would fault, which is exactly the §5.2 leak detector.
const maxLiveObjects = 512

// Engine selects the VM interpreter the ESP firmware runs on (fused by
// default; its partner scans walk the optimizer's per-channel scan
// lists). It is the seam TestEngineDifferentialVMMC sets to run the
// firmware on the baseline engine; the latency figures are
// engine-independent because every engine charges the same cycle cost
// model.
var Engine = vm.EngineFused

// Metrics, when non-nil, is attached to every cluster NewCluster builds
// (sim-kernel and firmware-VM instruments, no tracer or profiler). The
// benchmark drivers construct fresh clusters per iteration deep inside
// their loops, so a package hook — like Engine above — is how a
// long-running campaign (vmmcbench -telemetry) aggregates them all into
// one scrapeable registry.
var Metrics *obs.Metrics

// fwCache caches compiled firmware programs by NIC configuration:
// benchmark loops construct a fresh NIC pair (and firmware) per
// iteration, and both recompiling the identical program and even
// re-rendering its source text dominated their profiles. nic.Config is
// all scalar fields, so it is a valid map key; a compiled Program is
// immutable at runtime (machines copy what they mutate), so sharing one
// across firmware instances is safe.
var fwCache sync.Map // nic.Config -> *esplang.Program

func compileFirmware(cfg nic.Config) (*esplang.Program, error) {
	if p, ok := fwCache.Load(cfg); ok {
		return p.(*esplang.Program), nil
	}
	prog, err := esplang.Compile(ESPSource(cfg), esplang.CompileOptions{Name: "vmmcESP"})
	if err != nil {
		return nil, fmt.Errorf("vmmc: ESP firmware does not compile: %w", err)
	}
	if prev, loaded := fwCache.LoadOrStore(cfg, prog); loaded {
		return prev.(*esplang.Program), nil
	}
	return prog, nil
}

// NewESPFirmware compiles the ESP firmware for the NIC's configuration
// (cached per configuration) and binds its external channels to the
// hardware.
func NewESPFirmware(n *nic.NIC) (*ESPFirmware, error) {
	prog, err := compileFirmware(n.Cfg)
	if err != nil {
		return nil, err
	}
	m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: maxLiveObjects, Engine: Engine})

	b := &espBridge{n: n, m: m}
	b.userT = prog.IR.ChannelByName("userReqC").Elem
	b.sendT = b.userT.Fields[0].Type
	b.updateT = b.userT.Fields[1].Type
	b.pktT = prog.IR.ChannelByName("netRecvC").Elem
	b.doneT = prog.IR.ChannelByName("hdmaDoneC").Elem

	bind := func(err2 error) {
		if err == nil {
			err = err2
		}
	}
	bind(m.BindWriter("userReqC", (*userReqBinding)(b)))
	bind(m.BindWriter("netRecvC", (*netRecvBinding)(b)))
	bind(m.BindWriter("hdmaDoneC", (*hdmaDoneBinding)(b)))
	bind(m.BindReader("hdmaReqC", (*hdmaReqBinding)(b)))
	bind(m.BindReader("netSendC", (*netSendBinding)(b)))
	bind(m.BindReader("notifyC", (*notifyBinding)(b)))
	if err != nil {
		return nil, err
	}
	return &ESPFirmware{m: m, b: b}, nil
}

// Name implements nic.Firmware.
func (f *ESPFirmware) Name() string { return "vmmcESP" }

// Machine exposes the underlying VM (stats, fault inspection).
func (f *ESPFirmware) Machine() *vm.Machine { return f.m }

// AttachObs wires the VM's observability hooks to this firmware: with
// trace set, the machine records every event into an obs.NewEventLog
// (Machine().Recorder()); prof attributes cycle charges to ESP source
// lines, and reg collects the VM counters. The VM's event clock is
// anchored to the NIC's simulated nanosecond time (see runStartNs), so VM
// process spans line up with the hardware spans on the same timeline.
// Pass false and nils to detach.
func (f *ESPFirmware) AttachObs(trace bool, prof *obs.Profiler, reg *obs.Metrics) {
	var rec *obs.FlightRecorder
	if trace {
		rec = obs.NewEventLog()
	}
	f.m.SetRecorder(rec)
	f.m.SetProfiler(prof)
	f.m.SetMetrics(reg)
	if !trace && prof == nil {
		f.m.SetClock(nil)
		return
	}
	cyc := f.b.n.Cfg.CPUCycleNs
	f.m.SetClock(func() int64 {
		return f.runStartNs + (f.m.Cycles-f.runStartCycles)*cyc
	})
}

// Run implements nic.Firmware: execute the VM until idle; the consumed
// cycles come from the VM's cost meter.
func (f *ESPFirmware) Run(n *nic.NIC) int64 {
	start := f.m.Cycles
	f.b.cyclesFwd = start
	f.runStartNs = n.K.Now()
	f.runStartCycles = start
	res := f.m.Run()
	if res == vm.RunFault {
		panic(fmt.Sprintf("vmmc: ESP firmware fault on NIC %d: %v", n.ID, f.m.Fault()))
	}
	return f.m.Cycles - start
}

// ---------------------------------------------------------------------------
// The bridge ("helper C code")

type espBridge struct {
	n *nic.NIC
	m *vm.Machine

	userT, sendT, updateT, pktT, doneT *types.Type

	// lastRecvSeq is the ack-on-arrival cumulative counter; the
	// marshalling code stamps it into every outgoing packet (piggyback,
	// §5.3).
	lastRecvSeq int64

	// pendingReq holds a host request popped by Ready but not yet taken.
	// Stored by value: a pointer here would heap-allocate once per host
	// request on the firmware hot path.
	pendingReq  nic.HostRequest
	havePending bool

	hostDone  []int64 // host-DMA completion tags awaiting delivery
	cyclesFwd int64   // machine cycles already forwarded to the NIC clock
}

// sync forwards freshly consumed VM cycles to the NIC so that DMA issues
// and packet departures happen at the right simulated time.
func (b *espBridge) sync() {
	if d := b.m.Cycles - b.cyclesFwd; d > 0 {
		b.n.ChargeCPU(d)
		b.cyclesFwd = b.m.Cycles
	}
}

// drainDMADone moves host-DMA completions into the bridge queue; send-DMA
// completions only serve as wakeups and are dropped here.
func (b *espBridge) drainDMADone() {
	for {
		d, ok := b.n.PopDMADone()
		if !ok {
			return
		}
		if d.Engine == b.n.HostDMA {
			b.hostDone = append(b.hostDone, d.Tag)
		}
	}
}

// --- userReqC: external writer (host request queue) ---

type userReqBinding espBridge

func (b *userReqBinding) Ready(_ *vm.Machine) (int, bool) {
	if !b.havePending {
		r, ok := b.n.PopRequest()
		if !ok {
			return 0, false
		}
		b.pendingReq = r
		b.havePending = true
	}
	if b.pendingReq.IsUpdate {
		return 1, true
	}
	return 0, true
}

func (b *userReqBinding) Take(m *vm.Machine, caseIdx int) vm.Value {
	r := b.pendingReq
	b.havePending = false
	if caseIdx == 1 {
		rec := m.NewRecordV(b.updateT, vm.IntVal(r.UpdVAddr), vm.IntVal(r.UpdPAddr))
		return m.NewUnionV(b.userT, 1, rec)
	}
	rec := m.NewRecordV(b.sendT,
		vm.IntVal(int64(r.Dest)), vm.IntVal(r.VAddr), vm.IntVal(r.RAddr),
		vm.IntVal(int64(r.Size)), vm.IntVal(r.MsgID))
	return m.NewUnionV(b.userT, 0, rec)
}

// --- netRecvC: external writer (arrived packets) ---

type netRecvBinding espBridge

func (b *netRecvBinding) Ready(_ *vm.Machine) (int, bool) {
	if !b.n.HavePacket() {
		return 0, false
	}
	return 0, true
}

func (b *netRecvBinding) Take(m *vm.Machine, _ int) vm.Value {
	p, _ := b.n.PopPacket()
	isack := int64(0)
	if p.IsAck {
		isack = 1
	} else {
		// Ack-on-arrival: the unmarshalling code advances the cumulative
		// counter the next outgoing packet will piggyback.
		b.lastRecvSeq = p.Seq
	}
	last := int64(0)
	if p.Last {
		last = 1
	}
	return m.NewRecordV(b.pktT,
		vm.IntVal(p.Seq), vm.IntVal(p.Ack), vm.IntVal(isack), vm.IntVal(p.MsgID),
		vm.IntVal(p.RAddr), vm.IntVal(int64(p.Offset)), vm.IntVal(int64(p.Size)),
		vm.IntVal(int64(p.Total)), vm.IntVal(last), vm.IntVal(int64(p.Src)))
}

// --- hdmaDoneC: external writer (host DMA completions) ---

type hdmaDoneBinding espBridge

func (b *hdmaDoneBinding) Ready(_ *vm.Machine) (int, bool) {
	(*espBridge)(b).drainDMADone()
	if len(b.hostDone) == 0 {
		return 0, false
	}
	return 0, true
}

func (b *hdmaDoneBinding) Take(m *vm.Machine, _ int) vm.Value {
	tag := b.hostDone[0]
	copy(b.hostDone, b.hostDone[1:])
	b.hostDone = b.hostDone[:len(b.hostDone)-1]
	return m.NewRecordV(b.doneT, vm.IntVal(tag))
}

// --- hdmaReqC: external reader (start a host DMA) ---

type hdmaReqBinding espBridge

func (b *hdmaReqBinding) Ready(_ *vm.Machine) bool { return b.n.HostDMAFree() }

func (b *hdmaReqBinding) Put(_ *vm.Machine, v vm.Value) {
	(*espBridge)(b).sync()
	size := v.Ref.Elems[1].Int
	tag := v.Ref.Elems[2].Int
	b.n.StartHostDMA(int(size), tag)
}

// --- netSendC: external reader (transmit a packet) ---

type netSendBinding espBridge

func (b *netSendBinding) Ready(_ *vm.Machine) bool { return b.n.SendDMAFree() }

func (b *netSendBinding) Put(_ *vm.Machine, v vm.Value) {
	(*espBridge)(b).sync()
	e := v.Ref.Elems
	p := b.n.NewPacket()
	*p = nic.Packet{
		Src:    b.n.ID,
		Dst:    int(e[9].Int),
		Seq:    e[0].Int,
		Ack:    b.lastRecvSeq, // marshalling stamps the piggyback ack
		IsAck:  e[2].Int == 1,
		MsgID:  e[3].Int,
		RAddr:  e[4].Int,
		Offset: int(e[5].Int),
		Size:   int(e[6].Int),
		Total:  int(e[7].Int),
		Last:   e[8].Int == 1,
	}
	b.n.SendPacket(p)
}

// --- notifyC: external reader (completion notifications) ---

type notifyBinding espBridge

func (b *notifyBinding) Ready(_ *vm.Machine) bool { return true }

func (b *notifyBinding) Put(_ *vm.Machine, v vm.Value) {
	(*espBridge)(b).sync()
	e := v.Ref.Elems
	b.n.PostNotification(nic.Notification{
		From:  int(e[0].Int),
		MsgID: e[1].Int,
		Size:  int(e[2].Int),
	})
}

var _ nic.Firmware = (*ESPFirmware)(nil)
