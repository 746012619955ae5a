package charm

import (
	"fmt"
	"time"

	"blueq/internal/converse"
	"blueq/internal/obs"
)

// Real chare migration over the message path (paper §I's migratable
// objects). An element departs its home PE as a Checkpointable blob
// riding an ordinary charm message — windowed by flow control, batched
// past by aggregation (the blob itself is NoAgg: element state does not
// wait for company), sequenced and dedup'd by the PAMI reliability
// sublayer like any other payload — and installs on the destination PE.
//
// Exactly-once handoff rests on three fences:
//
//  1. the home table flips to the destination *before* the blob is sent,
//     so exactly one PE ever owns the index; messages that raced to the
//     old home follow the forwarding pointer (counted), messages that
//     beat the blob to the new home park in the pending buffer;
//  2. a per-element incarnation number stamped into the blob: a
//     transport-duplicated or reordered blob whose incarnation does not
//     match the table is dropped, never installed twice;
//  3. the runtime recovery epoch: a blob sent before a rollback is
//     dropped at dispatch with every other stale message, and the
//     checkpointed copy the recovery restores is the one live copy.

// LoadMeter receives per-element wall-clock execution times from the
// deliver path. Implementations must be allocation-free and safe for
// concurrent use from every PE (internal/lb.Meter is the canonical one).
type LoadMeter interface {
	RecordLoad(pe *converse.PE, idx int, ns int64)
}

// pendingMsg is a message parked at the new home until the element's
// state arrives.
type pendingMsg struct {
	cm    charmMsg
	bytes int
}

// migrationBlob is the payload of a kindMigrate message.
type migrationBlob struct {
	inc      uint32
	from     int
	departNS int64
	blob     []byte
}

// Migration metrics live under the lb subsystem: the mechanics are here,
// but the subsystem they instrument is the load balancer.
var (
	mMigSent     = obs.NewCounter("lb", "migrations_total", 0)
	mMigBytes    = obs.NewCounter("lb", "migration_bytes_total", 0)
	mMigStale    = obs.NewCounter("lb", "migration_stale_dropped_total", 0)
	mMigBuffered = obs.NewCounter("lb", "migration_buffered_msgs_total", 0)
	mMigLatency  = obs.NewHistogram("lb", "migration_latency_ns", 0)
)

// MigrateElement moves element idx from its current home — which must be
// the calling PE — to dstPE: the element is packed (charm.Checkpointable),
// the home table flips so subsequent and in-flight sends route (or
// forward) to dstPE, and the packed state travels as a message. The node's
// open aggregation batches are flushed first so no message logically sent
// before the departure dies buffered behind it. Call from an entry method
// running on the element's home PE; migrating to the current home is a
// no-op.
func (a *Array) MigrateElement(pe *converse.PE, idx, dstPE int) error {
	if idx < 0 || idx >= a.n {
		return fmt.Errorf("charm: array %q migrate index %d out of range [0,%d)", a.name, idx, a.n)
	}
	if dstPE < 0 || dstPE >= a.rt.machine.NumPEs() {
		return fmt.Errorf("charm: array %q migrate destination PE %d out of range", a.name, dstPE)
	}
	a.homeMu.RLock()
	home := int(a.home[idx])
	el := a.elems[idx]
	a.homeMu.RUnlock()
	if home != pe.Id() {
		return fmt.Errorf("charm: array %q element %d homed on PE %d, not the calling PE %d", a.name, idx, home, pe.Id())
	}
	if dstPE == pe.Id() {
		return nil
	}
	c, ok := el.(Checkpointable)
	if !ok {
		return fmt.Errorf("charm: array %q element %d (%T) is not Checkpointable", a.name, idx, el)
	}

	// Flush this node's per-destination batches: a message to the element
	// still sitting in an open batch was logically sent before the
	// departure and must reach the wire (it lands on the old home and
	// follows the forwarding pointer).
	pe.Node().FlushAggregation()

	// Packing needs no lock: the element only executes on this PE, and
	// this PE is busy executing us.
	blob := c.PackCheckpoint()

	a.homeMu.Lock()
	a.inc[idx]++
	mb := &migrationBlob{inc: a.inc[idx], from: pe.Id(), departNS: time.Now().UnixNano(), blob: blob}
	a.elems[idx] = nil
	a.transit[idx] = true
	a.home[idx] = int32(dstPE)
	a.homeGen++
	a.homeMu.Unlock()

	a.rt.migrating.Add(1)
	if obs.On() {
		mMigSent.Inc(pe.Id())
		mMigBytes.Add(pe.Id(), int64(len(blob)))
	}
	return a.rt.send(pe, dstPE, charmMsg{kind: kindMigrate, array: a.id, idx: idx, data: mb}, len(blob)+32)
}

// installMigrated runs on the destination PE when the packed state
// arrives: rebuild the element via the factory + UnpackCheckpoint,
// publish it under the home lock, then drain messages that arrived ahead
// of the state. A blob that lost a race — wrong incarnation, home moved
// on, or the element already live — is stale and dropped: it must never
// install a second copy.
func (a *Array) installMigrated(pe *converse.PE, cm charmMsg) {
	mb := cm.data.(*migrationBlob)
	a.homeMu.Lock()
	if int(a.home[cm.idx]) != pe.Id() || a.inc[cm.idx] != mb.inc || !a.transit[cm.idx] {
		a.homeMu.Unlock()
		a.rt.migrating.Add(-1)
		if obs.On() {
			mMigStale.Inc(pe.Id())
		}
		return
	}
	el := a.factory(cm.idx)
	el.(Checkpointable).UnpackCheckpoint(mb.blob)
	a.elems[cm.idx] = el
	a.transit[cm.idx] = false
	a.homeMu.Unlock()
	a.rt.migrating.Add(-1)
	if obs.On() {
		mMigLatency.Observe(pe.Id(), time.Now().UnixNano()-mb.departNS)
	}

	// Drain parked messages. They re-enter through the scheduler rather
	// than executing inline, so a large backlog cannot starve the PE's
	// queue and accounting stays uniform (each re-send pairs with one
	// dispatch completion, exactly like a forwarded message).
	a.pendMu.Lock()
	parked := a.pending[cm.idx]
	delete(a.pending, cm.idx)
	a.pendMu.Unlock()
	for _, p := range parked {
		if err := a.rt.send(pe, pe.Id(), p.cm, p.bytes); err != nil {
			panic(fmt.Sprintf("charm: redelivering buffered message to migrated element failed: %v", err))
		}
	}
}

// MigrationsInFlight reports how many element blobs are currently between
// PEs. Checkpoints and application barriers that need a settled home map
// poll it to zero.
func (rt *Runtime) MigrationsInFlight() int64 { return rt.migrating.Load() }

// resetMigrationState discards messages parked for in-transit elements
// and clears the transit flags; recovery calls it after bumping the epoch
// (the blobs those messages were waiting for are fenced off and will
// never install — RestoreElement reinstates every element's state).
func (a *Array) resetMigrationState() {
	a.homeMu.Lock()
	for i := range a.transit {
		a.transit[i] = false
	}
	a.homeMu.Unlock()
	a.pendMu.Lock()
	for idx := range a.pending {
		delete(a.pending, idx)
	}
	a.pendMu.Unlock()
}
