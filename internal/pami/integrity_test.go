package pami

import (
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blueq/internal/torus"
	"blueq/internal/transport"
)

// Exactly-once, in-order delivery must survive wire corruption and
// truncation: the CRC gate turns every damaged packet into a drop, which
// the retransmission + dedup machinery already repairs.
func TestExactlyOnceUnderCorruption(t *testing.T) {
	old := RetryBase
	RetryBase = time.Millisecond
	defer func() { RetryBase = old }()

	tr, err := transport.New("faulty:seed=23,corrupt=0.05,truncate=0.02,drop=0.02", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	if !c.CRCArmed() {
		t.Fatal("client over corrupting transport should arm the CRC")
	}

	const msgs = 600
	var mu sync.Mutex
	var got []int
	recv := c.Node(1).Context(0)
	recv.RegisterDispatch(5, func(src int, data any, bytes int) {
		mu.Lock()
		got = append(got, data.(int))
		mu.Unlock()
	})
	send := c.Node(0).Context(0)
	send.RegisterDispatch(5, func(int, any, int) {})
	for i := 0; i < msgs; i++ {
		if err := send.SendImmediate(1, 0, 5, i, 8); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		recv.Advance()
		send.Advance()
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d messages before deadline", n, msgs)
		}
		time.Sleep(100 * time.Microsecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d delivered out of order (got %d)", i, v)
		}
	}
	if c.CRCFails() == 0 {
		t.Error("expected CRC verification failures under corrupt=0.05")
	}
	st := tr.Stats()
	if st.Corrupted == 0 || st.Truncated == 0 {
		t.Errorf("transport injected corrupt=%d truncate=%d, want both > 0", st.Corrupted, st.Truncated)
	}
}

// With the CRC disarmed, corruption that only wraps payloads still repairs
// via the unknown-kind drop; this test pins the knob itself: disarming
// must be observable and must not stamp packets.
func TestCRCEnabledKnob(t *testing.T) {
	old := CRCEnabled
	CRCEnabled = false
	defer func() { CRCEnabled = old }()
	tr, err := transport.New("faulty:seed=3,drop=0.01", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	if c.CRCArmed() {
		t.Fatal("CRCEnabled=false must disarm the client checksum")
	}
}

// packetSum must change when any covered field changes — a piggybacked
// ack's included, so a flipped ack field fails verify — and must not
// allocate (it runs on every armed send and receive).
func TestPacketSumCoverage(t *testing.T) {
	var scratch sumScratch
	rel := func(seq, ack uint64, ackFIFO, dispatch int, data string) relPacket {
		return relPacket{seq: seq, ack: ack, ackFIFO: ackFIFO, am: amPacket{dispatch: dispatch, data: []byte(data), bytes: 64}}
	}
	base := torus.Packet{Dst: 1, Bytes: 64, FIFO: 0, Payload: rel(9, 5, 1, 4, "abc")}
	sum0, ok := packetSum(&base, &scratch)
	if !ok {
		t.Fatal("packetSum rejected a relPacket")
	}
	mutations := []torus.Packet{
		{Dst: 2, Bytes: 64, Payload: base.Payload},
		{Dst: 1, Bytes: 65, Payload: base.Payload},
		{Dst: 1, Bytes: 64, FIFO: 1, Payload: base.Payload},
		{Dst: 1, Bytes: 64, Payload: rel(10, 5, 1, 4, "abc")},
		{Dst: 1, Bytes: 64, Payload: rel(9, 5, 1, 5, "abc")},
		{Dst: 1, Bytes: 64, Payload: rel(9, 5, 1, 4, "abd")},
		{Dst: 1, Bytes: 64, Payload: rel(9, 4, 1, 4, "abc")},
		{Dst: 1, Bytes: 64, Payload: rel(9, 5, 0, 4, "abc")},
		{Dst: 1, Bytes: 64, Payload: rel(9, 0, 0, 4, "abc")},
		{Dst: 1, Bytes: 64, Payload: relAck{cum: 9}},
	}
	for i := range mutations {
		sum, ok := packetSum(&mutations[i], &scratch)
		if !ok {
			t.Fatalf("mutation %d rejected", i)
		}
		if sum == sum0 {
			t.Errorf("mutation %d: checksum unchanged (%#x)", i, sum)
		}
	}
	if _, ok := packetSum(&torus.Packet{Payload: transport.Garbled{}}, &scratch); ok {
		t.Error("garbled payload must fail packetSum")
	}

	// End to end: a data packet whose piggybacked ack flips in flight is
	// dropped at the receiver's verify.
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	stamped := base
	c.Node(0).stamp(&stamped, &scratch)
	flipped := stamped
	pl := flipped.Payload.(relPacket)
	pl.ack ^= 1 << 3
	flipped.Payload = pl
	if !c.Node(1).verify(&stamped, &scratch) || c.Node(1).verify(&flipped, &scratch) {
		t.Fatal("verify must pass the stamped packet and fail it with its ack flipped")
	}

	allocs := testing.AllocsPerRun(100, func() {
		_, _ = packetSum(&base, &scratch)
	})
	if allocs != 0 {
		t.Errorf("packetSum allocates %.1f/op, want 0", allocs)
	}
}

// foldSum is the byte-at-a-time CRC32C fold of a packet's header the
// checksum was first defined by: it pins the wire image, so packetSum's
// one-call serialisation must match it for every packet kind on the wire
// and for every relPacket field combination.
func foldSum(p *torus.Packet) uint32 {
	crc := ^uint32(0)
	fold := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			crc = castagnoli[byte(crc)^byte(v)] ^ (crc >> 8)
			v >>= 8
		}
	}
	fold(uint64(uint32(p.Dst))|uint64(uint32(p.FIFO))<<32, 8)
	fold(uint64(p.Bytes), 8)
	fold(uint64(p.Type), 1)
	var data any
	switch pl := p.Payload.(type) {
	case amPacket:
		fold(uint64(sumKindAM), 1)
		fold(uint64(pl.dispatch), 8)
		fold(uint64(pl.bytes), 8)
		data = pl.data
	case relPacket:
		fold(uint64(sumKindRel), 1)
		fold(pl.seq, 8)
		fold(uint64(pl.am.dispatch), 8)
		fold(uint64(pl.am.bytes), 8)
		if pl.ack != 0 {
			fold(uint64(pl.ackFIFO), 8)
			fold(pl.ack, 8)
		}
		data = pl.am.data
	case relAck:
		fold(uint64(sumKindAck), 1)
		fold(pl.cum, 8)
	}
	sum := ^crc
	if b, ok := data.([]byte); ok {
		sum = crc32.Update(sum, castagnoli, b)
	}
	return sum
}

func TestPacketSumMatchesByteFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scratch sumScratch
	for i := 0; i < 1000; i++ {
		var data any = i
		if i%2 == 0 {
			data = make([]byte, rng.Intn(40))
			rng.Read(data.([]byte))
		}
		am := amPacket{dispatch: rng.Intn(64), data: data, bytes: rng.Intn(1 << 14)}
		var payload any
		switch i % 4 {
		case 0:
			payload = am
		case 1:
			payload = relPacket{seq: rng.Uint64(), am: am}
		case 2:
			payload = relPacket{seq: rng.Uint64(), ack: rng.Uint64() | 1, ackFIFO: rng.Intn(4), am: am}
		default:
			payload = relAck{cum: rng.Uint64()}
		}
		p := torus.Packet{Type: torus.PacketType(rng.Intn(3)), Dst: rng.Intn(512), Bytes: rng.Intn(1 << 14), FIFO: rng.Intn(4), Payload: payload}
		got, ok := packetSum(&p, &scratch)
		if want := foldSum(&p); !ok || got != want {
			t.Fatalf("packet %d (%T): packetSum %#x, byte fold %#x", i, payload, got, want)
		}
	}
}

func BenchmarkPacketCRC(b *testing.B) {
	var scratch sumScratch
	data := make([]byte, 128)
	p := torus.Packet{Dst: 1, Bytes: 128, Payload: relPacket{seq: 1, am: amPacket{dispatch: 4, data: data, bytes: 128}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = packetSum(&p, &scratch)
	}
}
