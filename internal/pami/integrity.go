package pami

import (
	"hash/crc32"

	"blueq/internal/obs"
	"blueq/internal/torus"
)

// End-to-end wire integrity. The BG/Q MU protects packets with hardware
// ECC; the software model substitutes a CRC32C (Castagnoli, the
// hardware-accelerated crc32 instruction family) computed over each
// packet's wire image at inject and verified before dispatch. A failed
// check is counted and treated exactly like a transport drop: the packet
// is discarded unacknowledged, and the reliability sublayer's
// retransmission + dedup machinery repairs the loss. No new protocol
// states — corruption folds into the already-tested loss path.
//
// The checksum is armed per client whenever the transport is unreliable
// (the only regime where packets can be damaged) and CRCEnabled is true.
// On reliable transports the only cost is one boolean test per send.

// CRCEnabled controls whether clients over unreliable transports arm the
// wire checksum. Copied at client construction (like RetryBase), so set
// it before NewClient. Disabling it under corrupt= injection surrenders
// exactly-once delivery: a flipped destination or sequence field then
// goes undetected.
var CRCEnabled = true

// castagnoli is the CRC32C table (shared, read-only after init).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Wire-image kind tags folded into the checksum so a payload replaced in
// flight (or a relPacket damaged into looking like an ack) can never
// verify.
const (
	sumKindAM uint8 = iota + 1
	sumKindRel
	sumKindAck
)

// crcFold advances a raw (pre-inverted) CRC32C by one byte via the
// Castagnoli table. The header fields fold through this rather than a
// serialization buffer: a stack array handed to crc32.Update escapes (the
// accelerated update is opaque to escape analysis), and the stamp path
// must stay allocation-free.
func crcFold(crc uint32, b byte) uint32 { return castagnoli[byte(crc)^b] ^ (crc >> 8) }

// crcFold64 folds a 64-bit field, little-endian.
func crcFold64(crc uint32, v uint64) uint32 {
	for i := 0; i < 8; i++ {
		crc = crcFold(crc, byte(v))
		v >>= 8
	}
	return crc
}

// packetSum computes the CRC32C over a packet's wire image: the routed
// header fields, the payload descriptor, and — for []byte payloads — the
// payload bytes themselves. ok is false for payload kinds pami never
// injects (a garbled packet fails verification without being hashed).
func packetSum(p *torus.Packet) (sum uint32, ok bool) {
	crc := ^uint32(0)
	crc = crcFold64(crc, uint64(uint32(p.Dst))|uint64(uint32(p.FIFO))<<32)
	crc = crcFold64(crc, uint64(p.Bytes))
	crc = crcFold(crc, uint8(p.Type))
	var data any
	switch pl := p.Payload.(type) {
	case amPacket:
		crc = crcFold(crc, sumKindAM)
		crc = crcFold64(crc, uint64(pl.dispatch))
		crc = crcFold64(crc, uint64(pl.bytes))
		data = pl.data
	case relPacket:
		crc = crcFold(crc, sumKindRel)
		crc = crcFold64(crc, pl.seq)
		crc = crcFold64(crc, uint64(pl.am.dispatch))
		crc = crcFold64(crc, uint64(pl.am.bytes))
		data = pl.am.data
	case relAck:
		crc = crcFold(crc, sumKindAck)
		crc = crcFold64(crc, pl.cum)
	default:
		return 0, false
	}
	sum = ^crc
	// In-process payloads travel by reference, so only []byte payloads have
	// bits the model can hash (through the accelerated bulk update —
	// they're heap-resident already); reference payloads are covered by the
	// descriptor fields above plus the Garbled-wrapper corruption model.
	if b, isBytes := data.([]byte); isBytes {
		sum = crc32.Update(sum, castagnoli, b)
	}
	return sum, true
}

// stamp writes the wire checksum into the packet when the client has the
// CRC armed.
func (n *Node) stamp(p *torus.Packet) {
	if !n.client.crc {
		return
	}
	if sum, ok := packetSum(p); ok {
		p.Sum = sum
	}
}

// verify recomputes the checksum of a received packet. A mismatch (or a
// payload kind pami never sent — a garbled wire image) is counted and the
// packet is dropped by the caller; the sender's retransmission timer
// re-offers the data. Always true when the CRC is disarmed.
func (n *Node) verify(p *torus.Packet) bool {
	if !n.client.crc {
		return true
	}
	sum, ok := packetSum(p)
	if ok && sum == p.Sum {
		return true
	}
	n.client.crcFails.Add(1)
	if obs.On() {
		mCRCFail.Inc(n.rank)
	}
	return false
}

// CRCFails returns how many received packets failed checksum verification
// (and were dropped for retransmission to repair).
func (c *Client) CRCFails() int64 { return c.crcFails.Load() }

// CRCArmed reports whether this client stamps and verifies wire checksums.
func (c *Client) CRCArmed() bool { return c.crc }
