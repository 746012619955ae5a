package cluster

import (
	"blueq/internal/converse"
	"blueq/internal/stats"
	"blueq/internal/torus"
)

// The Converse ping-pong models (Figs. 4 and 5). A one-way latency is the
// sum of the software path the paper describes for each mode plus the
// torus transfer time; the mode differences are exactly the mechanisms of
// §III: lockless-queue hops in SMP mode, wakeup-unit interrupts and
// work-posting for comm threads, payload processing either on the worker
// or overlapped with injection on a comm thread, and the rendezvous
// protocol for large messages.

// RendezvousThreshold is the message size where the Charm++ BG/Q machine
// layer switches to the Rget protocol.
const RendezvousThreshold = 16 * 1024

// ImmediateLimit is the largest payload carried in a single
// PAMI_Send_immediate packet; beyond it the eager path uses PAMI_Send
// with a receive-side allocation.
const ImmediateLimit = 32

// PingPongInterNode returns the modelled one-way latency in seconds for a
// message of the given size to a neighbouring node (1 hop).
//
// Three regimes, matching Fig. 4:
//   - ≤ 32 B: PAMI_Send_immediate, picked up by the receiver's idle-poll
//     loop. The nonSMP worker owns the whole path and wins; SMP adds a
//     lockless-queue hop, comm threads add a wakeup+post hop.
//   - 32 B – 16 KB: PAMI_Send with a receive buffer allocation. Worker
//     modes pay the allocator, the two-descriptor injection and a
//     scheduler-poll pickup delay; a dedicated comm thread is woken by
//     the wakeup unit at interrupt speed, serves from its lockless pool,
//     and overlaps payload processing with streaming — the band where
//     SMP+comm is best.
//   - > 16 KB: rendezvous Rget; the network dominates and the modes
//     converge.
func (m Machine) PingPongInterNode(mode converse.Mode, size int) float64 {
	network := torus.TransferTime(size, 1)
	base := m.CharmSend + m.CharmRecv + network

	switch {
	case size > RendezvousThreshold:
		t := base + m.PAMIImmediate + m.RendezvousRTT
		switch mode {
		case converse.ModeSMP:
			t += m.QueueL2
		case converse.ModeSMPComm:
			t += m.QueueL2 + m.CommThreadHop
		}
		return t

	case size > ImmediateLimit:
		t := base + m.PAMISend
		switch mode {
		case converse.ModeNonSMP:
			t += m.AllocArena + m.WorkerPollDelay + float64(size)*m.CPUPerByte
		case converse.ModeSMP:
			t += m.QueueL2 + m.WakeupLatency/2 + m.AllocPool + m.WorkerPollDelay +
				float64(size)*m.CPUPerByte
		case converse.ModeSMPComm:
			// Wakeup-unit response instead of the poll delay; alloc and
			// injection overlap across the send/recv comm threads.
			t += m.QueueL2 + m.CommThreadHop + m.WakeupLatency - m.PAMISend/2 -
				m.AllocPool/2 + m.AllocPool + float64(size)*m.CPUPerByteOverlapped
		}
		return t

	default:
		t := base + m.PAMIImmediate + float64(size)*m.CPUPerByte
		switch mode {
		case converse.ModeSMP:
			t += m.QueueL2 + m.WakeupLatency/2
		case converse.ModeSMPComm:
			t += m.QueueL2 + m.CommThreadHop + m.WakeupLatency
		}
		return t
	}
}

// Fig4 produces the inter-node ping-pong table across message sizes for
// the three modes (latency in microseconds).
func (m Machine) Fig4(sizes []int) *stats.Table {
	if sizes == nil {
		sizes = []int{16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536, 262144}
	}
	t := stats.NewTable(
		"Fig 4: one-way ping-pong latency to neighbouring node (us)",
		"bytes", "nonSMP", "SMP", "SMP+comm")
	for _, s := range sizes {
		t.AddRow(s,
			m.PingPongInterNode(converse.ModeNonSMP, s)*1e6,
			m.PingPongInterNode(converse.ModeSMP, s)*1e6,
			m.PingPongInterNode(converse.ModeSMPComm, s)*1e6)
	}
	return t
}

// IntraNodeCase distinguishes the two intra-node cases of Fig. 5.
type IntraNodeCase int

const (
	// CrossProcess: threads in different processes on the same node; the
	// message crosses the MU loopback like a network message.
	CrossProcess IntraNodeCase = iota
	// SameProcess: threads in one Charm++ SMP process; the message is a
	// pointer exchange through the lockless queue.
	SameProcess
)

// PingPongIntraNode returns the modelled one-way latency within a node.
func (m Machine) PingPongIntraNode(c IntraNodeCase, mode converse.Mode, size int) float64 {
	switch c {
	case SameProcess:
		// Pointer exchange: lockless enqueue + wakeup + scheduler/handler;
		// payload bytes never move, so latency is size-independent (the
		// paper's flat ~1.1/1.3 µs lines).
		t := m.QueueL2 + m.WakeupLatency + m.CharmLocalDeliver
		if mode == converse.ModeSMPComm {
			t += m.CommThreadHop
		}
		return t
	default:
		// Cross-process: same software path as the network but zero hops
		// of wire; the MU loopback still serializes the payload.
		t := m.CharmSend + m.PAMIImmediate + m.CharmRecv +
			float64(size)*m.CPUPerByte + float64(size)/m.EffBW
		if size > RendezvousThreshold {
			t = m.CharmSend + m.PAMIImmediate + m.RendezvousRTT + m.CharmRecv +
				float64(size)/m.EffBW
		}
		return t
	}
}

// Fig5 produces the intra-node ping-pong table (latency in microseconds).
func (m Machine) Fig5(sizes []int) *stats.Table {
	if sizes == nil {
		sizes = []int{16, 64, 256, 1024, 4096, 16384, 65536}
	}
	t := stats.NewTable(
		"Fig 5: one-way ping-pong latency within a node (us)",
		"bytes", "cross-process", "same-process", "same-process+comm")
	for _, s := range sizes {
		t.AddRow(s,
			m.PingPongIntraNode(CrossProcess, converse.ModeSMP, s)*1e6,
			m.PingPongIntraNode(SameProcess, converse.ModeSMP, s)*1e6,
			m.PingPongIntraNode(SameProcess, converse.ModeSMPComm, s)*1e6)
	}
	return t
}

// Fig6Model returns the modelled alloc+free cost (µs per pair) for the
// 64-thread memory benchmark, for the pool and arena allocators; the
// native wall-clock version of this experiment lives in
// internal/mempool's benchmarks and cmd/experiments -only=fig6.
func (m Machine) Fig6Model(threads int) (pool, arena float64) {
	pool = m.AllocPool * 1e6
	// All threads freeing to one sender's arena serialize on its mutex.
	contenders := float64(threads - 1)
	arena = (m.AllocArena + m.ArenaContend*contenders) * 1e6
	return pool, arena
}
