package torus

import (
	"fmt"
	"sync/atomic"

	"blueq/internal/lockless"
)

// PacketType distinguishes the three MU point-to-point packet kinds
// (paper §II-A).
type PacketType uint8

const (
	// MemoryFIFO packets are delivered into an MU reception FIFO and
	// handled by software (active messages).
	MemoryFIFO PacketType = iota
	// RDMARead packets carry a read request; the payload flows back
	// without software on the target.
	RDMARead
	// RDMAWrite packets are written directly to the memory address in the
	// packet.
	RDMAWrite
)

// Packet is one MU network packet (a message may span many packets; the
// functional model delivers a whole message as one Packet with Bytes
// recording its true size for the timing model).
type Packet struct {
	Type     PacketType
	Src, Dst int    // node ranks
	Bytes    int    // payload size for timing purposes
	FIFO     int    // destination reception FIFO index
	Sum      uint32 // CRC32C over the wire image, stamped by the PAMI layer (0 = unarmed)
	Payload  any
}

// MU is the Messaging Unit of one node: injection FIFOs on the send side
// and reception FIFOs on the receive side. Reception FIFOs are lockless
// queues so several remote injectors can target one node concurrently,
// and several local threads can each own a FIFO. A FIFO holds each
// packet by pointer: Inject copies the packet to the heap once.
type MU struct {
	rank     int
	network  *Network
	recv     []*lockless.L2Queue[*Packet]
	onArrive []func() // wakeup-unit hooks, one per reception FIFO
	injected atomic.Int64
	received atomic.Int64
}

// Network connects the MUs of all nodes of a torus in-process.
type Network struct {
	torus *Torus
	mus   []*MU
}

// NewNetwork builds a functional network over the given torus with
// fifosPerNode reception FIFOs per node (clamped to ReceptionFIFOs).
func NewNetwork(t *Torus, fifosPerNode int) *Network {
	if fifosPerNode < 1 {
		fifosPerNode = 1
	}
	if fifosPerNode > ReceptionFIFOs {
		fifosPerNode = ReceptionFIFOs
	}
	n := &Network{torus: t, mus: make([]*MU, t.Nodes())}
	for r := range n.mus {
		mu := &MU{
			rank:     r,
			network:  n,
			recv:     make([]*lockless.L2Queue[*Packet], fifosPerNode),
			onArrive: make([]func(), fifosPerNode),
		}
		for i := range mu.recv {
			mu.recv[i] = lockless.NewL2QueueOf[*Packet](0)
		}
		n.mus[r] = mu
	}
	return n
}

// Torus returns the underlying topology.
func (n *Network) Torus() *Torus { return n.torus }

// Nodes returns the number of attached MUs (one per torus node).
func (n *Network) Nodes() int { return len(n.mus) }

// MU returns the messaging unit of the given node rank.
func (n *Network) MU(rank int) *MU { return n.mus[rank] }

// Rank returns this MU's node rank.
func (m *MU) Rank() int { return m.rank }

// FIFOCount returns the number of reception FIFOs.
func (m *MU) FIFOCount() int { return len(m.recv) }

// SetArrivalHook installs a callback invoked after a packet lands in the
// given reception FIFO; the PAMI layer wires this to the wakeup unit.
func (m *MU) SetArrivalHook(fifo int, hook func()) { m.onArrive[fifo] = hook }

// Inject sends a packet into the network. In the functional model delivery
// is immediate: the packet lands in the destination node's reception FIFO
// and the arrival hook fires. Timing is applied separately by the DES.
func (m *MU) Inject(p Packet) error {
	if p.Dst < 0 || p.Dst >= len(m.network.mus) {
		return fmt.Errorf("mu: destination rank %d out of range [0,%d)", p.Dst, len(m.network.mus))
	}
	p.Src = m.rank
	m.injected.Add(1)
	dst := m.network.mus[p.Dst]
	fifo := p.FIFO
	if fifo < 0 || fifo >= len(dst.recv) {
		fifo = 0
	}
	dst.recv[fifo].Enqueue(&p)
	dst.received.Add(1)
	if hook := dst.onArrive[fifo]; hook != nil {
		hook()
	}
	return nil
}

// Poll removes one packet from the given reception FIFO. Each FIFO has a
// single consumer (the thread that owns it), matching MU usage on BG/Q.
func (m *MU) Poll(fifo int) (Packet, bool) {
	p, ok := m.recv[fifo].Dequeue()
	if !ok {
		return Packet{}, false
	}
	return *p, true
}

// Pending reports whether any reception FIFO holds packets.
func (m *MU) Pending() bool {
	for _, q := range m.recv {
		if !q.Empty() {
			return true
		}
	}
	return false
}

// Counters returns (injected, received) packet counts for tests.
func (m *MU) Counters() (int64, int64) {
	return m.injected.Load(), m.received.Load()
}
