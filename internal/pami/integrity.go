package pami

import (
	"encoding/binary"
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

// Wire-image kind tags hashed into the checksum so a payload replaced in
// flight (or a relPacket damaged into looking like an ack) can never
// verify.
const (
	sumKindAM uint8 = iota + 1
	sumKindRel
	sumKindAck
)

// sumScratch is the buffer packetSum serialises a packet's header into
// before one accelerated crc32.Update over it. It lives in state the
// caller already keeps on the heap — the send channel for stamps, the
// polling context for verifies and acks — because a stack array handed to
// crc32.Update escapes (the accelerated update is opaque to escape
// analysis), and stamping and verifying must stay allocation-free.
type sumScratch [58]byte // the longest image: a relPacket carrying an ack

// packetSum computes the CRC32C over a packet's wire image: the routed
// header fields, the payload descriptor, and — for []byte payloads — the
// payload bytes themselves. The header image is little-endian words in a
// fixed order: destination and FIFO, size, packet type, kind tag, then the
// payload kind's fields; a relPacket carrying a piggybacked ack appends
// the ack's FIFO and horizon. ok is false for payload kinds pami never
// injects (a garbled packet fails verification without being hashed).
func packetSum(p *torus.Packet, b *sumScratch) (sum uint32, ok bool) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(uint32(p.Dst))|uint64(uint32(p.FIFO))<<32)
	le.PutUint64(b[8:], uint64(p.Bytes))
	b[16] = uint8(p.Type)
	var n int
	var data any
	switch pl := p.Payload.(type) {
	case amPacket:
		b[17] = sumKindAM
		le.PutUint64(b[18:], uint64(pl.dispatch))
		le.PutUint64(b[26:], uint64(pl.bytes))
		n, data = 34, pl.data
	case relPacket:
		b[17] = sumKindRel
		le.PutUint64(b[18:], pl.seq)
		le.PutUint64(b[26:], uint64(pl.am.dispatch))
		le.PutUint64(b[34:], uint64(pl.am.bytes))
		n, data = 42, pl.am.data
		if pl.ack != 0 {
			le.PutUint64(b[42:], uint64(pl.ackFIFO))
			le.PutUint64(b[50:], pl.ack)
			n = 58
		}
	case relAck:
		b[17] = sumKindAck
		le.PutUint64(b[18:], pl.cum)
		n = 26
	default:
		return 0, false
	}
	sum = crc32.Update(0, castagnoli, b[:n])
	// In-process payloads travel by reference, so only []byte payloads have
	// bits the model can hash; reference payloads are covered by the
	// descriptor fields above plus the Garbled-wrapper corruption model.
	if bs, isBytes := data.([]byte); isBytes {
		sum = crc32.Update(sum, castagnoli, bs)
	}
	return sum, true
}

// stamp writes the wire checksum into the packet when the client has the
// CRC armed, serialising through the caller's scratch.
func (n *Node) stamp(p *torus.Packet, scratch *sumScratch) {
	if !n.client.crc {
		return
	}
	if sum, ok := packetSum(p, scratch); ok {
		p.Sum = sum
	}
}

// verify recomputes the checksum of a received packet. A mismatch (or a
// payload kind pami never sent — a garbled wire image) is counted and the
// packet is dropped by the caller; the sender's retransmission timer
// re-offers the data. Always true when the CRC is disarmed.
func (n *Node) verify(p *torus.Packet, scratch *sumScratch) bool {
	if !n.client.crc {
		return true
	}
	sum, ok := packetSum(p, scratch)
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
