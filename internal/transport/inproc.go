package transport

import "blueq/internal/torus"

// Inproc is the default transport: the functional MU/torus network,
// delivering every packet instantly and exactly once. It is a thin veneer
// over *torus.Network — the endpoints ARE the MUs — so the pre-transport
// message path is preserved with zero behaviour change.
type Inproc struct {
	net *torus.Network
}

// NewInproc builds an in-process transport over the given torus with
// fifosPerNode reception FIFOs per node.
func NewInproc(t *torus.Torus, fifosPerNode int) *Inproc {
	return &Inproc{net: torus.NewNetwork(t, fifosPerNode)}
}

// Network returns the underlying functional network.
func (t *Inproc) Network() *torus.Network { return t.net }

// Nodes returns the number of node endpoints.
func (t *Inproc) Nodes() int { return t.net.Nodes() }

// Torus returns the underlying topology.
func (t *Inproc) Torus() *torus.Torus { return t.net.Torus() }

// Endpoint returns the MU of the given node rank.
func (t *Inproc) Endpoint(rank int) Endpoint { return t.net.MU(rank) }

// Reliable reports that inproc delivers exactly once, instantly.
func (t *Inproc) Reliable() bool { return true }

// Pending reports false: inproc holds no packets in flight.
func (t *Inproc) Pending() bool { return false }

// Advance is a no-op: delivery is synchronous inside Inject.
func (t *Inproc) Advance() int { return 0 }

// Stats sums the MU injection/reception counters.
func (t *Inproc) Stats() Stats {
	var s Stats
	for r := 0; r < t.net.Nodes(); r++ {
		inj, rcv := t.net.MU(r).Counters()
		s.Injected += inj
		s.Delivered += rcv
	}
	return s
}

// Close is a no-op: inproc owns no background machinery.
func (t *Inproc) Close() {}

func (t *Inproc) String() string { return "inproc" }

var _ Transport = (*Inproc)(nil)
