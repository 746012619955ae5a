package pami

import (
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/transport"
)

// PAMI charges no credits, whatever window the layer above keeps: 50 sends
// to another node under a 1-message window, with no consumer running,
// return without parking and all dispatch once the receiver advances.
// That Converse's ledger ignores such traffic is checked by
// converse.TestUncreditedTrafficBypassesWindow.
func TestCreditExemptDispatchBypasses(t *testing.T) {
	tr, err := transport.New("inproc", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClientWindow(tr, 1, 1)

	var delivered atomic.Int64
	c.Node(1).Context(0).RegisterDispatch(9, func(src int, data any, bytes int) {
		delivered.Add(1)
	})
	start := time.Now()
	for i := 0; i < 50; i++ {
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 9, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("sends took %v — they parked on the window", e)
	}
	c.Node(1).Context(0).Advance()
	if got := delivered.Load(); got != 50 {
		t.Fatalf("delivered %d/50 messages", got)
	}
}

// Self-sends under a 1-message window likewise never wait.
func TestCreditSelfSendBypasses(t *testing.T) {
	tr, err := transport.New("inproc", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClientWindow(tr, 1, 1)

	var delivered atomic.Int64
	c.Node(0).Context(0).RegisterDispatch(1, func(src int, data any, bytes int) {
		delivered.Add(1)
	})
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := c.Node(0).Context(0).SendImmediate(0, 0, 1, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("self-sends took %v — they parked on the window", e)
	}
	c.Node(0).Context(0).Advance()
	if got := delivered.Load(); got != 20 {
		t.Fatalf("delivered %d/20 self-sends", got)
	}
}
