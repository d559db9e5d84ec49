// Package nic models the Myrinet network interface card of the paper's
// case study (§2.1): a programmable 33 MHz LANai4.1 processor with SRAM
// and three DMA engines — to/from host memory, to the network, and from
// the network — plus status registers the firmware polls.
//
// The model is a discrete-event simulation: DMA transfers and wire
// propagation take time; the firmware (pluggable — the ESP VM or the
// hand-written event-driven baseline) consumes CPU cycles that translate
// to nanoseconds at the core clock. Every firmware implementation sees
// the same hardware, so performance differences between them come from
// the cycles they consume and how well they keep the DMA engines busy,
// not from different machine models.
package nic

import (
	"fmt"

	"esplang/internal/obs"
	"esplang/internal/sim"
)

// Config holds the hardware timing parameters. Defaults approximate the
// paper's testbed: 33 MHz LANai4.1, ~132 MB/s host (EBUS) DMA, 1.28 Gb/s
// Myrinet link.
type Config struct {
	CPUCycleNs       int64 // 30 ns at 33 MHz
	HostDMAStartupNs int64
	HostDMAPsPerByte int64 // picoseconds per byte (7500 ≈ 133 MB/s)
	NetDMAStartupNs  int64
	NetDMAPsPerByte  int64 // 6250 ≈ 160 MB/s
	WireLatencyNs    int64
	PageSize         int // host DMA chunking boundary (4 KB)
	SmallMsgMax      int // messages this small travel inline with the request (32 B)
	SendWindow       int // sliding-window size in packets (§5.3's protocol)
	AckCoalesce      int // send an explicit ack after this many unacked data packets
	HeaderBytes      int // packet header on the wire
	RecvRingSize     int // arrived-packet ring capacity
}

// DefaultConfig returns the calibrated hardware model.
func DefaultConfig() Config {
	return Config{
		CPUCycleNs:       30,
		HostDMAStartupNs: 900,
		HostDMAPsPerByte: 7500,
		NetDMAStartupNs:  500,
		NetDMAPsPerByte:  6250,
		WireLatencyNs:    400,
		PageSize:         4096,
		SmallMsgMax:      32,
		SendWindow:       16,
		AckCoalesce:      2,
		HeaderBytes:      16,
		RecvRingSize:     64,
	}
}

// Packet is a Myrinet packet: a data page (or inline small message) or an
// explicit acknowledgement. Payload bytes are not materialized — only
// sizes matter to the model; correctness of delivery is tracked with the
// message metadata.
type Packet struct {
	Src, Dst int
	Seq      int64 // data packets: sequence number; acks: 0
	Ack      int64 // piggybacked cumulative ack (§5.3: piggyback acknowledgement)
	IsAck    bool
	MsgID    int64
	RAddr    int64 // destination virtual address of this chunk
	Offset   int   // offset of the chunk within the message
	Size     int   // payload bytes in this packet
	Total    int   // total message size
	Last     bool
}

// WireBytes returns the packet's size on the wire.
func (p *Packet) WireBytes(hdr int) int {
	if p.IsAck {
		return hdr
	}
	return hdr + p.Size
}

// NewPacket returns a zeroed packet carved from a per-NIC slab: firmware
// marshalling builds one packet per wire transfer, and slab allocation
// replaces that per-packet garbage with one block per slab refill.
// Packets are never recycled — a slab simply amortizes the allocator
// visits. Blocks double from 8 to 64 packets so short-lived NICs (a
// benchmark cluster per iteration) do not pay for a large block they
// barely touch.
func (n *NIC) NewPacket() *Packet {
	if len(n.pktSlab) == 0 {
		blk := n.pktBlock * 2
		if blk < 8 {
			blk = 8
		} else if blk > 64 {
			blk = 64
		}
		n.pktBlock = blk
		n.pktSlab = make([]Packet, blk)
	}
	p := &n.pktSlab[0]
	n.pktSlab = n.pktSlab[1:]
	return p
}

// HostRequest is what the host library deposits in the NIC request queue:
// a VMMC send (data from local VAddr to RAddr on node Dest) or a page
// table update.
type HostRequest struct {
	IsUpdate bool
	// Send fields.
	Dest  int
	VAddr int64 // local source virtual address
	RAddr int64 // remote destination virtual address
	Size  int
	MsgID int64
	// Update fields.
	UpdVAddr, UpdPAddr int64
}

// Notification is posted to the host when a complete message has been
// deposited in host memory.
type Notification struct {
	From  int
	MsgID int64
	Size  int
	Time  int64 // completion time (ns)
}

// DMADone reports a completed DMA with the tag the firmware supplied.
type DMADone struct {
	Engine *Engine
	Tag    int64
}

// Engine is one DMA engine.
type Engine struct {
	Name      string
	Busy      bool
	StartupNs int64
	PsPerByte int64
	// stats
	Transfers int64
	Bytes     int64

	// An engine moves one transfer at a time (Busy), so its completion
	// events are sim.Handler firings on the engine itself — the
	// simulation's hottest paths schedule no closures at all. pendingTag
	// carries the firmware tag of the in-flight transfer to Fire.
	pendingTag int64
	n          *NIC
}

// Engine event codes (the arg of Engine.Fire).
const (
	engEvDone    = iota // transfer complete: free the engine, post DMADone
	engEvLead           // cut-through: lead bytes landed, post DMADone early
	engEvCutDone        // cut-through: full transfer complete, free the engine
)

// Fire implements sim.Handler for DMA completion events.
func (e *Engine) Fire(arg int) {
	switch arg {
	case engEvDone:
		e.Busy = false
		e.n.dmaDone = append(e.n.dmaDone, DMADone{Engine: e, Tag: e.pendingTag})
		e.n.Wake()
	case engEvLead:
		e.n.dmaDone = append(e.n.dmaDone, DMADone{Engine: e, Tag: e.pendingTag})
		e.n.Wake()
	case engEvCutDone:
		e.Busy = false
		e.n.Wake()
	}
}

func (e *Engine) duration(bytes int) int64 {
	return e.StartupNs + int64(bytes)*e.PsPerByte/1000
}

// Firmware is the code running on the NIC processor. Run executes until
// the firmware goes idle and returns the CPU cycles it consumed.
type Firmware interface {
	Name() string
	Run(n *NIC) int64
}

// NIC is one simulated network interface card.
type NIC struct {
	ID  int
	K   *sim.Kernel
	Cfg Config
	FW  Firmware

	HostDMA *Engine
	SendDMA *Engine
	RecvDMA *Engine

	reqQ     []HostRequest
	dmaDone  []DMADone
	recvRing []*Packet
	wireQ    []*Packet // arrived, waiting for the receive DMA

	peer   *NIC
	notify func(Notification)

	cpuBusyUntil int64
	runQueued    bool
	cyclesInRun  int64 // cycles consumed so far in the current Run (DMA issue offsets)

	// Event state (see Fire): the send and receive DMAs hold one packet
	// at a time, so their completion events carry the packet in
	// sendInFlight/recvInFlight instead of a per-packet closure. Wire
	// propagation can have several packets in flight, but the latency is
	// constant and the kernel fires equal-time events in schedule order,
	// so a FIFO (wireIn) preserves arrival order.
	sendInFlight *Packet
	recvInFlight *Packet
	wireIn       []*Packet // sent packets propagating toward this NIC

	engines  [3]Engine // backing store for HostDMA/SendDMA/RecvDMA
	pktSlab  []Packet  // backing store for NewPacket
	pktBlock int       // current slab block size (doubles to 64)

	// trace, when set, receives one timeline span per firmware run and per
	// DMA/wire transfer. Durations are known at issue time, so Begin/End
	// pairs are emitted together and the trace is balanced even if the
	// simulation stops early.
	trace *obs.ChromeTracer

	// Stats.
	CPUCycles   int64
	PktsSent    int64
	PktsRecv    int64
	AcksSent    int64
	BytesSent   int64
	Runs        int64
	DroppedRing int64
}

// NIC event codes (the arg of NIC.Fire).
const (
	nicEvRun      = iota // scheduled firmware run
	nicEvPumpRecv        // retry receive DMA after ring back-pressure
	nicEvSendDone        // send DMA finished pushing sendInFlight to the wire
	nicEvRecvDone        // receive DMA deposited recvInFlight into the ring
	nicEvArrive          // oldest wireIn packet reached this NIC
)

// Fire implements sim.Handler for all per-NIC events.
func (n *NIC) Fire(arg int) {
	switch arg {
	case nicEvRun:
		n.doRun()
	case nicEvPumpRecv:
		n.pumpRecv()
	case nicEvSendDone:
		n.sendDone()
	case nicEvRecvDone:
		n.recvDone()
	case nicEvArrive:
		n.arriveNext()
	}
}

// New creates a NIC. The event queues get small initial capacities: they
// stay shallow (bounded by the window and ring sizes), and growing each
// from nil was a visible slice of short benchmark runs that build a NIC
// pair per iteration.
func New(id int, k *sim.Kernel, cfg Config) *NIC {
	n := &NIC{ID: id, K: k, Cfg: cfg,
		reqQ:     make([]HostRequest, 0, 8),
		dmaDone:  make([]DMADone, 0, 8),
		recvRing: make([]*Packet, 0, 8),
		wireQ:    make([]*Packet, 0, 8),
		wireIn:   make([]*Packet, 0, 8),
	}
	n.engines[0] = Engine{Name: "hostDMA", StartupNs: cfg.HostDMAStartupNs, PsPerByte: cfg.HostDMAPsPerByte, n: n}
	n.engines[1] = Engine{Name: "sendDMA", StartupNs: cfg.NetDMAStartupNs, PsPerByte: cfg.NetDMAPsPerByte, n: n}
	n.engines[2] = Engine{Name: "recvDMA", StartupNs: cfg.NetDMAStartupNs, PsPerByte: cfg.NetDMAPsPerByte, n: n}
	n.HostDMA = &n.engines[0]
	n.SendDMA = &n.engines[1]
	n.RecvDMA = &n.engines[2]
	return n
}

// Connect joins two NICs with a wire.
func Connect(a, b *NIC) {
	a.peer = b
	b.peer = a
}

// OnNotify installs the host-side notification callback.
func (n *NIC) OnNotify(fn func(Notification)) { n.notify = fn }

// Hardware timeline tracks: each NIC owns a block of track ids starting
// at trackBase + trackStride*ID, one per unit (CPU + three DMA engines).
// They are well clear of the ESP process ids the VM uses as track ids,
// so a NIC trace and a VM trace can share one file.
const (
	trackBase   = 100
	trackStride = 10
)

func (n *NIC) track(unit int) int64 {
	return int64(trackBase + trackStride*n.ID + unit)
}

func (n *NIC) engineTrack(e *Engine) int64 {
	switch e {
	case n.HostDMA:
		return n.track(1)
	case n.SendDMA:
		return n.track(2)
	default:
		return n.track(3)
	}
}

// SetTrace attaches a trace for the hardware timeline (firmware runs,
// DMA transfers, wire arrivals). nil detaches. Timestamps are the
// kernel's nanosecond clock; build the tracer with NewChromeTracer(1e-3)
// so they land in microseconds.
func (n *NIC) SetTrace(tr *obs.ChromeTracer) {
	n.trace = tr
	if tr == nil {
		return
	}
	tr.SetTrackName(n.track(0), fmt.Sprintf("nic%d cpu", n.ID))
	tr.SetTrackName(n.track(1), fmt.Sprintf("nic%d hostDMA", n.ID))
	tr.SetTrackName(n.track(2), fmt.Sprintf("nic%d sendDMA", n.ID))
	tr.SetTrackName(n.track(3), fmt.Sprintf("nic%d recvDMA", n.ID))
}

// ---------------------------------------------------------------------------
// Host-side interface

// PostRequest enqueues a host request and wakes the firmware.
func (n *NIC) PostRequest(r HostRequest) {
	n.reqQ = append(n.reqQ, r)
	n.Wake()
}

// ---------------------------------------------------------------------------
// Firmware-side interface (called during Firmware.Run)

// PopRequest dequeues the next host request. Pops shift the slice down in
// place (here and below) so the queues keep their capacity instead of
// marching the backing array forward and reallocating on every refill.
func (n *NIC) PopRequest() (HostRequest, bool) {
	if len(n.reqQ) == 0 {
		return HostRequest{}, false
	}
	r := n.reqQ[0]
	copy(n.reqQ, n.reqQ[1:])
	n.reqQ = n.reqQ[:len(n.reqQ)-1]
	return r, true
}

// HaveRequest reports whether a host request is pending.
func (n *NIC) HaveRequest() bool { return len(n.reqQ) > 0 }

// PopDMADone dequeues the next DMA completion.
func (n *NIC) PopDMADone() (DMADone, bool) {
	if len(n.dmaDone) == 0 {
		return DMADone{}, false
	}
	d := n.dmaDone[0]
	copy(n.dmaDone, n.dmaDone[1:])
	n.dmaDone = n.dmaDone[:len(n.dmaDone)-1]
	return d, true
}

// PopPacket dequeues the next arrived packet.
func (n *NIC) PopPacket() (*Packet, bool) {
	if len(n.recvRing) == 0 {
		return nil, false
	}
	p := n.recvRing[0]
	copy(n.recvRing, n.recvRing[1:])
	n.recvRing[len(n.recvRing)-1] = nil
	n.recvRing = n.recvRing[:len(n.recvRing)-1]
	return p, true
}

// HavePacket reports whether an arrived packet is pending.
func (n *NIC) HavePacket() bool { return len(n.recvRing) > 0 }

// ChargeCPU accounts cycles consumed by the firmware within the current
// Run (used to time-offset DMA issues).
func (n *NIC) ChargeCPU(cycles int64) { n.cyclesInRun += cycles }

// issueTime is the simulated time at which an action taken "now" by the
// firmware actually happens, given the cycles consumed so far in this run.
func (n *NIC) issueTime() int64 {
	return n.K.Now() + n.cyclesInRun*n.Cfg.CPUCycleNs
}

// StartHostDMA begins a host-memory transfer (direction does not affect
// timing). It returns false when the engine is busy.
func (n *NIC) StartHostDMA(bytes int, tag int64) bool {
	return n.startDMA(n.HostDMA, bytes, tag)
}

// StartHostDMACutThrough begins a host-memory fetch whose completion is
// signaled once leadBytes have landed in SRAM — the firmware may start
// streaming them out while the engine finishes the rest of the transfer.
// This is the mechanism behind the original firmware's hand-optimized
// fast path: overlapping the host fetch with the network send.
func (n *NIC) StartHostDMACutThrough(bytes, leadBytes int, tag int64) bool {
	e := n.HostDMA
	if e.Busy {
		return false
	}
	if leadBytes > bytes {
		leadBytes = bytes
	}
	e.Busy = true
	e.Transfers++
	e.Bytes += int64(bytes)
	issue := n.issueTime()
	if n.trace != nil {
		tid := n.engineTrack(e)
		n.trace.Begin(tid, fmt.Sprintf("hostDMA cut-through %dB", bytes), issue)
		n.trace.End(tid, issue+e.duration(bytes))
		n.trace.Instant(tid, fmt.Sprintf("lead %dB ready", leadBytes), issue+e.duration(leadBytes))
	}
	e.pendingTag = tag
	n.K.AtEvent(issue+e.duration(leadBytes), e, engEvLead)
	n.K.AtEvent(issue+e.duration(bytes), e, engEvCutDone)
	return true
}

func (n *NIC) startDMA(e *Engine, bytes int, tag int64) bool {
	if e.Busy {
		return false
	}
	e.Busy = true
	e.Transfers++
	e.Bytes += int64(bytes)
	issue := n.issueTime()
	done := issue + e.duration(bytes)
	if n.trace != nil {
		tid := n.engineTrack(e)
		n.trace.Begin(tid, fmt.Sprintf("%s %dB", e.Name, bytes), issue)
		n.trace.End(tid, done)
	}
	e.pendingTag = tag
	n.K.AtEvent(done, e, engEvDone)
	return true
}

// SendPacket transmits a packet: it occupies the send DMA for the wire
// time of the packet and delivers to the peer after the wire latency.
// It returns false when the send DMA is busy.
func (n *NIC) SendPacket(p *Packet) bool {
	if n.SendDMA.Busy {
		return false
	}
	if n.peer == nil {
		panic(fmt.Sprintf("nic %d: no peer connected", n.ID))
	}
	bytes := p.WireBytes(n.Cfg.HeaderBytes)
	n.SendDMA.Busy = true
	n.SendDMA.Transfers++
	n.SendDMA.Bytes += int64(bytes)
	if p.IsAck {
		n.AcksSent++
	} else {
		n.PktsSent++
		n.BytesSent += int64(p.Size)
	}
	issue := n.issueTime()
	sent := issue + n.SendDMA.duration(bytes)
	peer := n.peer
	if n.trace != nil {
		tid := n.track(2)
		name := fmt.Sprintf("pkt msg%d seq%d %dB", p.MsgID, p.Seq, bytes)
		if p.IsAck {
			name = fmt.Sprintf("ack %d", p.Ack)
		}
		n.trace.Begin(tid, name, issue)
		n.trace.End(tid, sent)
		n.trace.Instant(peer.track(3), "wire arrival", sent+n.Cfg.WireLatencyNs)
	}
	n.sendInFlight = p
	n.K.AtEvent(sent, n, nicEvSendDone)
	return true
}

// sendDone fires when the send DMA finishes pushing sendInFlight onto the
// wire: the engine frees, the firmware wakes, and the packet starts its
// constant-latency wire propagation toward the peer.
func (n *NIC) sendDone() {
	p := n.sendInFlight
	n.sendInFlight = nil
	n.SendDMA.Busy = false
	n.dmaDone = append(n.dmaDone, DMADone{Engine: n.SendDMA, Tag: -1})
	n.Wake()
	peer := n.peer
	peer.wireIn = append(peer.wireIn, p)
	peer.K.AtEvent(peer.K.Now()+n.Cfg.WireLatencyNs, peer, nicEvArrive)
}

// arriveNext delivers the oldest packet still on the wire.
func (n *NIC) arriveNext() {
	p := n.wireIn[0]
	copy(n.wireIn, n.wireIn[1:])
	n.wireIn[len(n.wireIn)-1] = nil
	n.wireIn = n.wireIn[:len(n.wireIn)-1]
	n.arrive(p)
}

// SendDMAFree reports whether the send DMA can take a packet now.
func (n *NIC) SendDMAFree() bool { return !n.SendDMA.Busy }

// HostDMAFree reports whether the host DMA is idle.
func (n *NIC) HostDMAFree() bool { return !n.HostDMA.Busy }

// PostNotification delivers a completion notification to the host.
func (n *NIC) PostNotification(nt Notification) {
	nt.Time = n.issueTime()
	if n.notify != nil {
		n.notify(nt)
	}
}

// ---------------------------------------------------------------------------
// Wire arrival: the receive DMA deposits packets into the ring without
// firmware involvement (hardware-managed, like the LANai receive path).

func (n *NIC) arrive(p *Packet) {
	n.wireQ = append(n.wireQ, p)
	n.pumpRecv()
}

func (n *NIC) pumpRecv() {
	if n.RecvDMA.Busy || len(n.wireQ) == 0 {
		return
	}
	if len(n.recvRing) >= n.Cfg.RecvRingSize {
		// Ring full: model back-pressure by retrying after a ring slot
		// drains (Myrinet links are flow-controlled and lossless).
		n.DroppedRing++
		n.K.AfterEvent(n.Cfg.WireLatencyNs, n, nicEvPumpRecv)
		return
	}
	p := n.wireQ[0]
	copy(n.wireQ, n.wireQ[1:])
	n.wireQ[len(n.wireQ)-1] = nil
	n.wireQ = n.wireQ[:len(n.wireQ)-1]
	n.RecvDMA.Busy = true
	n.RecvDMA.Transfers++
	bytes := p.WireBytes(n.Cfg.HeaderBytes)
	n.RecvDMA.Bytes += int64(bytes)
	if n.trace != nil {
		tid := n.track(3)
		n.trace.Begin(tid, fmt.Sprintf("recvDMA %dB", bytes), n.K.Now())
		n.trace.End(tid, n.K.Now()+n.RecvDMA.duration(bytes))
	}
	n.recvInFlight = p
	n.K.AfterEvent(n.RecvDMA.duration(bytes), n, nicEvRecvDone)
}

// recvDone fires when the receive DMA has deposited recvInFlight into the
// arrived-packet ring.
func (n *NIC) recvDone() {
	p := n.recvInFlight
	n.recvInFlight = nil
	n.RecvDMA.Busy = false
	n.recvRing = append(n.recvRing, p)
	n.PktsRecv++
	n.Wake()
	n.pumpRecv()
}

// ---------------------------------------------------------------------------
// CPU scheduling

// Wake schedules a firmware run as soon as the CPU is free.
func (n *NIC) Wake() {
	if n.runQueued || n.FW == nil {
		return
	}
	n.runQueued = true
	at := n.K.Now()
	if n.cpuBusyUntil > at {
		at = n.cpuBusyUntil
	}
	n.K.AtEvent(at, n, nicEvRun)
}

func (n *NIC) doRun() {
	n.runQueued = false
	n.cyclesInRun = 0
	n.Runs++
	start := n.K.Now()
	cycles := n.FW.Run(n)
	if n.cyclesInRun > cycles {
		cycles = n.cyclesInRun
	}
	n.CPUCycles += cycles
	n.cpuBusyUntil = n.K.Now() + cycles*n.Cfg.CPUCycleNs
	if n.trace != nil && cycles > 0 {
		n.trace.Begin(n.track(0), fmt.Sprintf("%s run", n.FW.Name()), start)
		n.trace.End(n.track(0), n.cpuBusyUntil)
	}
	// Work the firmware left pending (a request it could not take, a
	// packet it could not store) is always blocked on an engine or a
	// window, and the event that unblocks it also wakes the CPU — so no
	// re-wake is needed, and polling does not spin.
}
