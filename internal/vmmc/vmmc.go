// Package vmmc reproduces the paper's case study: the VMMC (virtual
// memory-mapped communication) firmware for Myrinet network interface
// cards (§2.1), in three flavors sharing one simulated NIC:
//
//   - Orig: the hand-written event-driven state-machine firmware in the
//     style of Appendix A, with the hand-optimized fast paths;
//   - OrigNoFastPaths: the same with fast paths disabled;
//   - ESP: the firmware written in the ESP language (Appendix B style),
//     compiled and executed by the ESP virtual machine, with the
//     simple marshalling/unmarshalling helpers in Go standing in for the
//     paper's 3000 lines of helper C.
//
// All three implement the same protocol: requests are split into
// page-sized chunks, source pages are translated and fetched by the host
// DMA, packets carry piggybacked cumulative acknowledgements, a sliding
// send window bounds in-flight packets (the §5.3 retransmission protocol;
// the simulated wire is lossless so retransmit timers never fire, but the
// bookkeeping is paid), received chunks are translated and stored by the
// host DMA, and a completion notification is posted to the host. Messages
// of at most Config.SmallMsgMax bytes travel inline with the request —
// the paper's 32-byte special case that produces the knee in Figure 5.
package vmmc

import (
	"fmt"

	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/sim"
)

// Flavor selects a firmware implementation.
type Flavor int

// The three firmware flavors compared in Figure 5.
const (
	ESP Flavor = iota
	Orig
	OrigNoFastPaths
)

func (f Flavor) String() string {
	switch f {
	case ESP:
		return "vmmcESP"
	case Orig:
		return "vmmcOrig"
	case OrigNoFastPaths:
		return "vmmcOrigNoFastPaths"
	}
	return "?"
}

// Cluster is two machines connected by a Myrinet wire, each with a host
// and a NIC running the selected firmware.
type Cluster struct {
	K     *sim.Kernel
	NICs  [2]*nic.NIC
	Hosts [2]*Host
}

// NewCluster builds a two-node cluster running the given firmware flavor.
func NewCluster(flavor Flavor, cfg nic.Config) (*Cluster, error) {
	k := sim.New()
	c := &Cluster{K: k}
	for i := 0; i < 2; i++ {
		n := nic.New(i, k, cfg)
		c.NICs[i] = n
		c.Hosts[i] = &Host{ID: i, NIC: n, K: k,
			Recvd:       make([]nic.Notification, 0, 16),
			pendingReqs: make([]nic.HostRequest, 0, 4)}
		n.OnNotify(c.Hosts[i].onNotify)
	}
	nic.Connect(c.NICs[0], c.NICs[1])
	for i := 0; i < 2; i++ {
		fw, err := newFirmware(flavor, c.NICs[i])
		if err != nil {
			return nil, err
		}
		c.NICs[i].FW = fw
	}
	if Metrics != nil {
		c.AttachObs(nil, nil, Metrics)
	}
	return c, nil
}

func newFirmware(flavor Flavor, n *nic.NIC) (nic.Firmware, error) {
	switch flavor {
	case Orig:
		return NewOrigFirmware(true), nil
	case OrigNoFastPaths:
		return NewOrigFirmware(false), nil
	case ESP:
		return NewESPFirmware(n)
	}
	return nil, fmt.Errorf("vmmc: unknown flavor %d", flavor)
}

// Run advances the simulation until quiescent or until t nanoseconds.
func (c *Cluster) Run(maxNs int64) {
	c.K.Run(func() bool { return maxNs > 0 && c.K.Now() > maxNs })
}

// procTrackStride separates the two firmware VMs' process tracks in a
// shared trace file: NIC i's ESP processes get track ids i*stride,
// i*stride+1, … — well clear of the NIC hardware tracks (100–130) for
// i > 0, and equal to the raw process ids for NIC 0. Their names, and
// their channel, fault and heap-counter names, get the prefix "nic<i> ".
const procTrackStride = 1000

// AttachObs attaches the observability stack to the whole cluster:
// sim-kernel metrics, hardware timeline spans on both NICs, and — when
// the firmware is the ESP flavor — an event log per VM when tr is set
// (TracePingPong renders them into tr after the run), a shared
// source-line cycle profile, and VM metrics from both machines. Any
// argument may be nil to skip that sink.
func (c *Cluster) AttachObs(tr *obs.ChromeTracer, prof *obs.Profiler, reg *obs.Metrics) {
	if c.K != nil {
		c.K.SetMetrics(reg)
	}
	for _, n := range c.NICs {
		n.SetTrace(tr)
		if fw, ok := n.FW.(*ESPFirmware); ok {
			fw.AttachObs(tr != nil, prof, reg)
		}
	}
}

// ---------------------------------------------------------------------------
// Host library (the VMMC user-level API of Figure 2)

// Host is the host-side VMMC library of one machine: it posts requests to
// the NIC and receives completion notifications.
type Host struct {
	ID  int
	NIC *nic.NIC
	K   *sim.Kernel

	nextMsgID int64
	Recvd     []nic.Notification
	// OnRecv, when set, is called for every received-message notification.
	OnRecv func(nic.Notification)

	BytesRecvd int64

	// pendingReqs holds request descriptors crossing the I/O bus. The bus
	// delay is constant and the kernel fires equal-time events in schedule
	// order, so a FIFO plus a handler event per post replaces the closure
	// Send used to allocate per message.
	pendingReqs []nic.HostRequest
}

// Fire implements sim.Handler: the oldest posted request descriptor has
// crossed the I/O bus and lands in the NIC request queue.
func (h *Host) Fire(int) {
	r := h.pendingReqs[0]
	copy(h.pendingReqs, h.pendingReqs[1:])
	h.pendingReqs = h.pendingReqs[:len(h.pendingReqs)-1]
	h.NIC.PostRequest(r)
}

func (h *Host) post(req nic.HostRequest) {
	h.pendingReqs = append(h.pendingReqs, req)
	h.K.AfterEvent(postDelayNs, h, 0)
}

// postDelayNs models the host-side cost of writing a request descriptor
// over the I/O bus.
const postDelayNs = 300

// Send posts a VMMC send: size bytes from local address vaddr to remote
// address raddr on the (single) peer. It returns the message id.
func (h *Host) Send(vaddr, raddr int64, size int) int64 {
	h.nextMsgID++
	id := h.nextMsgID
	h.post(nic.HostRequest{Dest: 1 - h.ID, VAddr: vaddr, RAddr: raddr, Size: size, MsgID: id})
	return id
}

// Update posts a page-table update (vaddr -> paddr).
func (h *Host) Update(vaddr, paddr int64) {
	h.post(nic.HostRequest{IsUpdate: true, UpdVAddr: vaddr, UpdPAddr: paddr})
}

func (h *Host) onNotify(nt nic.Notification) {
	h.Recvd = append(h.Recvd, nt)
	h.BytesRecvd += int64(nt.Size)
	if h.OnRecv != nil {
		h.OnRecv(nt)
	}
}

// ---------------------------------------------------------------------------
// Microbenchmark drivers (§6.2)

// PingPong measures one-way latency: a message bounces between the two
// machines rounds times; the result is the average one-way time in
// nanoseconds.
func PingPong(flavor Flavor, cfg nic.Config, size, rounds int) (float64, error) {
	c, err := NewCluster(flavor, cfg)
	if err != nil {
		return 0, err
	}
	return pingPong(c, flavor, size, rounds)
}

// TracePingPong runs PingPong with the full observability stack attached
// and returns the populated sinks along with the latency: a Chrome trace
// with one track per DMA engine, per NIC CPU, and (ESP flavor) per ESP
// process; a source-line cycle profile aggregated over both firmware
// VMs; and the metrics registry. The VM tracks are rendered from each
// machine's event log after the run, so they follow the hardware spans
// in the file. Trace timestamps are simulation nanoseconds (the tracer is
// built with scale 1e-3, so they land in trace-standard microseconds).
func TracePingPong(flavor Flavor, cfg nic.Config, size, rounds int) (float64, *obs.ChromeTracer, *obs.Profiler, *obs.Metrics, error) {
	c, err := NewCluster(flavor, cfg)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	tr := obs.NewChromeTracer(1e-3)
	prof := obs.NewProfiler(flavor.String())
	reg := obs.NewMetrics()
	c.AttachObs(tr, prof, reg)
	lat, err := pingPong(c, flavor, size, rounds)
	for i, n := range c.NICs {
		if fw, ok := n.FW.(*ESPFirmware); ok {
			rec := fw.m.Recorder()
			rec.Sync() // the run is over; publish the staged tail
			tr.AddEvents(rec.Snapshot(0), i*procTrackStride, fmt.Sprintf("nic%d ", i))
		}
	}
	return lat, tr, prof, reg, err
}

func pingPong(c *Cluster, flavor Flavor, size, rounds int) (float64, error) {
	remaining := rounds
	c.Hosts[1].OnRecv = func(nic.Notification) {
		if remaining > 0 {
			c.Hosts[1].Send(0, 0, size)
		}
	}
	c.Hosts[0].OnRecv = func(nic.Notification) {
		remaining--
		if remaining > 0 {
			c.Hosts[0].Send(0, 0, size)
		}
	}
	start := c.K.Now()
	c.Hosts[0].Send(0, 0, size)
	c.Run(0)
	if remaining != 0 {
		return 0, fmt.Errorf("vmmc: pingpong stalled with %d rounds left (%s, size %d)", remaining, flavor, size)
	}
	elapsed := c.K.Now() - start
	return float64(elapsed) / float64(2*rounds), nil
}

// OneWay measures unidirectional bandwidth: node 0 streams count messages
// of the given size to node 1; the result is MB/s of payload delivered.
func OneWay(flavor Flavor, cfg nic.Config, size, count int) (float64, error) {
	c, err := NewCluster(flavor, cfg)
	if err != nil {
		return 0, err
	}
	// Keep a bounded number of requests outstanding, like a streaming
	// application refilling its send queue.
	const outstanding = 8
	posted := 0
	post := func() {
		for posted < count && posted-len(c.Hosts[1].Recvd) < outstanding {
			c.Hosts[0].Send(0, 0, size)
			posted++
		}
	}
	c.Hosts[1].OnRecv = func(nic.Notification) { post() }
	start := c.K.Now()
	post()
	c.Run(0)
	if len(c.Hosts[1].Recvd) != count {
		return 0, fmt.Errorf("vmmc: one-way stream stalled: %d/%d delivered (%s, size %d)",
			len(c.Hosts[1].Recvd), count, flavor, size)
	}
	elapsed := c.K.Now() - start
	return mbps(int64(size)*int64(count), elapsed), nil
}

// Bidirectional measures total bandwidth with both nodes streaming
// simultaneously; the result is total MB/s (both directions).
func Bidirectional(flavor Flavor, cfg nic.Config, size, countPerSide int) (float64, error) {
	c, err := NewCluster(flavor, cfg)
	if err != nil {
		return 0, err
	}
	const outstanding = 8
	posted := [2]int{}
	post := func(side int) {
		other := 1 - side
		for posted[side] < countPerSide && posted[side]-len(c.Hosts[other].Recvd) < outstanding {
			c.Hosts[side].Send(0, 0, size)
			posted[side]++
		}
	}
	c.Hosts[0].OnRecv = func(nic.Notification) { post(1) }
	c.Hosts[1].OnRecv = func(nic.Notification) { post(0) }
	start := c.K.Now()
	post(0)
	post(1)
	c.Run(0)
	got := len(c.Hosts[0].Recvd) + len(c.Hosts[1].Recvd)
	if got != 2*countPerSide {
		return 0, fmt.Errorf("vmmc: bidirectional stream stalled: %d/%d delivered (%s, size %d)",
			got, 2*countPerSide, flavor, size)
	}
	elapsed := c.K.Now() - start
	return mbps(2*int64(size)*int64(countPerSide), elapsed), nil
}

// mbps converts bytes over nanoseconds to megabytes per second.
func mbps(bytes, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(bytes) / float64(ns) * 1e9 / 1e6
}
