package ft

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/obs"
)

// The coordinated double in-memory checkpoint protocol. The application
// calls Checkpoint from a quiescent point (typically an iteration
// boundary, when no application messages are in flight). The initiator
// assigns the next epoch and sends a pack request to every live PE over
// an ordinary chare group — checkpoint traffic obeys the same scheduling
// and epoch rules as everything else. Each PE then:
//
//  1. packs every protected element it homes and stores the blobs in its
//     own node's store (the owner copy),
//  2. ships the same batch to the first PE of its node's buddy — the next
//     live node in ring order — which stores it as the buddy copy,
//  3. both the packer and the buddy ack the leader.
//
// The epoch commits at the leader when 2 × livePEs acks arrive: at that
// point every batch provably exists on two distinct nodes (or one node,
// iff only one survives, when recovery is moot anyway). Older epochs are
// garbage-collected at commit, so at most two epochs — committed and
// in-progress — are ever resident, the double-buffer invariant of
// FTC-Charm++. A failure mid-round aborts the round; recovery rolls back
// to the last committed epoch, whose copies are untouched.

// elemKey identifies one element's blob within an epoch store.
type elemKey struct {
	array string
	idx   int
}

// ckptCRCTable is the CRC32C table for checkpoint blobs — the same
// polynomial the wire packets carry.
var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// sumBlob is the checkpoint-blob checksum: a blob corrupted in transit to
// the buddy or rotted in a store is rejected at restore and the other
// copy is used instead.
func sumBlob(b []byte) uint32 { return crc32.Checksum(b, ckptCRCTable) }

// storedBlob is one checkpointed blob plus the checksum stamped when it
// was packed.
type storedBlob struct {
	data []byte
	sum  uint32
}

// epochStore holds one epoch's blobs on one node.
type epochStore struct {
	elems  map[elemKey]storedBlob
	app    storedBlob
	hasApp bool
}

// nodeStore is a node's in-memory checkpoint storage. Entry handlers on
// the node's PEs write it; the recovery goroutine reads it. Stores on
// nodes the machine has declared dead are treated as lost.
type nodeStore struct {
	mu     sync.Mutex
	epochs map[uint64]*epochStore
}

func newNodeStore() *nodeStore {
	return &nodeStore{epochs: make(map[uint64]*epochStore)}
}

func (s *nodeStore) epoch(e uint64) *epochStore {
	st := s.epochs[e]
	if st == nil {
		st = &epochStore{elems: make(map[elemKey]storedBlob)}
		s.epochs[e] = st
	}
	return st
}

func (s *nodeStore) put(e uint64, entries []ckptEntry, app []byte, appSum uint32) {
	s.mu.Lock()
	st := s.epoch(e)
	for _, en := range entries {
		st.elems[elemKey{en.Array, en.Idx}] = storedBlob{data: en.Blob, sum: en.Sum}
	}
	if app != nil || !st.hasApp {
		st.app = storedBlob{data: app, sum: appSum}
		st.hasApp = true
	}
	s.mu.Unlock()
}

// get returns a blob only when its checksum still matches; a corrupted
// copy reports verified=false so the caller falls back to the buddy.
func (s *nodeStore) get(e uint64, k elemKey) (blob []byte, verified bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.epochs[e]
	if st == nil {
		return nil, true
	}
	b, ok := st.elems[k]
	if !ok {
		return nil, true
	}
	if sumBlob(b.data) != b.sum {
		return nil, false
	}
	return b.data, true
}

func (s *nodeStore) getApp(e uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.epochs[e]
	if st == nil || !st.hasApp {
		return nil, true
	}
	if sumBlob(st.app.data) != st.app.sum {
		return nil, false
	}
	return st.app.data, true
}

func (s *nodeStore) gcBelow(e uint64) {
	s.mu.Lock()
	for old := range s.epochs {
		if old < e {
			delete(s.epochs, old)
		}
	}
	s.mu.Unlock()
}

// ckptEntry is one element's packed state in a batch. Sum is stamped by
// the packer, travels with the blob, and is re-verified at restore — so a
// blob damaged anywhere between pack and restore is caught.
type ckptEntry struct {
	Array string
	Idx   int
	Blob  []byte
	Sum   uint32
}

// ckptMsg asks a PE to pack its homed elements for an epoch.
type ckptMsg struct {
	Epoch  uint64
	Leader int
	App    []byte
	AppSum uint32
}

// buddyMsg carries a PE's batch to its buddy node.
type buddyMsg struct {
	Epoch  uint64
	Leader int
	Elems  []ckptEntry
	App    []byte
	AppSum uint32
}

// ackMsg reports one stored copy to the leader.
type ackMsg struct{ Epoch uint64 }

// ckptRound is the leader-side state of an in-progress epoch.
type ckptRound struct {
	epoch uint64
	acks  int
	need  int
	cont  func(pe *converse.PE)
}

// ErrRecovering is returned by Checkpoint when a recovery owns (or is
// about to own) the epoch: a pass is running, or a confirmed death has
// not yet been recovered. It is a benign refusal — the recovery pass
// takes its own checkpoint and restarts the application through the
// restore hook, so the caller drops its attempt rather than retrying.
var ErrRecovering = errors.New("ft: recovery in progress; it checkpoints before resuming")

// registerGroup declares the coordination chare group and its entries.
func (mgr *Manager) registerGroup() {
	mgr.grp = mgr.rt.NewGroup("ft", func(pe int) charm.Element { return struct{}{} })
	mgr.eCkpt = mgr.grp.Entry(func(pe *converse.PE, _ charm.Element, p any) { mgr.onCkpt(pe, p.(*ckptMsg)) })
	mgr.eBuddy = mgr.grp.Entry(func(pe *converse.PE, _ charm.Element, p any) { mgr.onBuddy(pe, p.(*buddyMsg)) })
	mgr.eAck = mgr.grp.Entry(func(pe *converse.PE, _ charm.Element, p any) { mgr.onAck(pe, p.(*ackMsg)) })
}

// Checkpoint starts a coordinated checkpoint. Call from an entry method at
// an application quiescent point — no protected-array messages may be in
// flight. cont runs on the leader PE once the epoch commits; chain the
// next phase of work there. Returns an error if a round is already in
// progress (the caller's quiescence discipline is broken) or a recovery
// is — the recovery pass takes its own checkpoint before resuming.
func (mgr *Manager) Checkpoint(pe *converse.PE, cont func(pe *converse.PE)) error {
	if mgr.recovering.Load() {
		return ErrRecovering
	}
	var app []byte
	if pack, _ := mgr.appHooks(); pack != nil {
		app = pack()
	}
	return mgr.checkpointWithApp(pe, app, cont)
}

// checkpointWithApp is Checkpoint with the application blob supplied by
// the caller. Recovery uses it to re-protect rolled-back state under the
// restored epoch's app blob — the restart hook has not run yet, so packing
// fresh app state would snapshot a cursor ahead of the elements.
func (mgr *Manager) checkpointWithApp(pe *converse.PE, app []byte, cont func(pe *converse.PE)) error {
	live := mgr.liveNodes()
	// A round packs each element on its home PE and commits on the live
	// set's acks. An element homed on a node outside that set — a death
	// confirmed but not yet recovered, or a migration blob fenced off with
	// its destination — would land in no batch, and the epoch would
	// commit silently missing it: a later rollback to it is unrecoverable.
	// Refuse instead; the recovery pass re-homes and checkpoints before
	// the application resumes. (A death landing after this check merely
	// stalls the round — the dead node's acks never arrive, nothing
	// commits, and recovery rolls back to the previous complete epoch.)
	inLive := make(map[int]bool, len(live))
	for _, r := range live {
		inLive[r] = true
	}
	for _, a := range mgr.protectedArrays() {
		for idx := 0; idx < a.Len(); idx++ {
			if !inLive[mgr.nodeOf(a.HomePE(idx))] {
				return ErrRecovering
			}
		}
	}
	leader := mgr.leaderPE()
	mgr.ckptMu.Lock()
	if mgr.round != nil {
		mgr.ckptMu.Unlock()
		return fmt.Errorf("ft: checkpoint epoch %d still in progress", mgr.round.epoch)
	}
	mgr.ckptSeq++
	epoch := mgr.ckptSeq
	mgr.round = &ckptRound{epoch: epoch, need: 2 * len(live) * mgr.wpn, cont: cont}
	mgr.ckptMu.Unlock()

	// The caller promises quiescence for protected-array traffic, but the
	// aggregation layer may still hold application messages from the final
	// pre-checkpoint exchange in its batch buffers. Flush them now so the
	// packed state reflects every message that was logically sent before
	// the epoch, and none can die buffered on a node that fails later.
	mgr.m.FlushAggregation()

	msg := &ckptMsg{Epoch: epoch, Leader: leader, App: app, AppSum: sumBlob(app)}
	for _, r := range live {
		for w := 0; w < mgr.wpn; w++ {
			if err := mgr.grp.Send(pe, r*mgr.wpn+w, mgr.eCkpt, msg, 32+len(app)); err != nil {
				return err
			}
		}
	}
	return nil
}

// onCkpt runs on every live PE: pack, store locally, ship to buddy, ack.
func (mgr *Manager) onCkpt(pe *converse.PE, m *ckptMsg) {
	var batch []ckptEntry
	bytes := 0
	for _, a := range mgr.protectedArrays() {
		for idx := 0; idx < a.Len(); idx++ {
			if a.HomePE(idx) != pe.Id() {
				continue
			}
			c, ok := a.Element(idx).(charm.Checkpointable)
			if !ok {
				panic(fmt.Sprintf("ft: array %q element %d (%T) is not Checkpointable",
					a.Name(), idx, a.Element(idx)))
			}
			blob := c.PackCheckpoint()
			batch = append(batch, ckptEntry{Array: a.Name(), Idx: idx, Blob: blob, Sum: sumBlob(blob)})
			bytes += len(blob)
		}
	}
	self := mgr.nodeOf(pe.Id())
	mgr.stores[self].put(m.Epoch, batch, m.App, m.AppSum)
	if obs.On() {
		obsCkptBytes.Add(pe.Id(), int64(bytes))
	}

	live := mgr.liveNodes()
	buddy, err := mgr.buddyOf(self, live)
	if err != nil {
		buddy = self // degenerate single-node case
	}
	bm := &buddyMsg{Epoch: m.Epoch, Leader: m.Leader, Elems: batch, App: m.App, AppSum: m.AppSum}
	_ = mgr.grp.Send(pe, buddy*mgr.wpn, mgr.eBuddy, bm, 32+bytes)
	_ = mgr.grp.Send(pe, m.Leader, mgr.eAck, &ackMsg{Epoch: m.Epoch}, 16)
}

// onBuddy stores a remote PE's batch as this node's buddy copy and acks.
// The blobs are copied on receipt: in-process message passing shares the
// packer's slices, and a double copy that aliases the original is no
// copy at all — rot (or a buggy in-place unpack) would destroy both.
func (mgr *Manager) onBuddy(pe *converse.PE, m *buddyMsg) {
	elems := make([]ckptEntry, len(m.Elems))
	for i, en := range m.Elems {
		en.Blob = append([]byte(nil), en.Blob...)
		elems[i] = en
	}
	app := append([]byte(nil), m.App...)
	if m.App == nil {
		app = nil
	}
	mgr.stores[mgr.nodeOf(pe.Id())].put(m.Epoch, elems, app, m.AppSum)
	_ = mgr.grp.Send(pe, m.Leader, mgr.eAck, &ackMsg{Epoch: m.Epoch}, 16)
}

// onAck counts stored copies at the leader and commits the epoch when
// both copies of every live PE's batch exist.
func (mgr *Manager) onAck(pe *converse.PE, m *ackMsg) {
	var cont func(pe *converse.PE)
	mgr.ckptMu.Lock()
	r := mgr.round
	if r != nil && r.epoch == m.Epoch {
		r.acks++
		if r.acks == r.need {
			mgr.round = nil
			mgr.committed.Store(r.epoch)
			mgr.checkpoints.Add(1)
			if obs.On() {
				obsCkptCommit.Inc(pe.Id())
			}
			for _, s := range mgr.stores {
				s.gcBelow(r.epoch)
			}
			cont = r.cont
		}
	}
	mgr.ckptMu.Unlock()
	if cont != nil {
		cont(pe)
	}
}

// abortRound drops an in-progress round; its partial copies are swept at
// the next commit's GC. Called by recovery before rolling back.
func (mgr *Manager) abortRound() {
	mgr.ckptMu.Lock()
	mgr.round = nil
	mgr.ckptMu.Unlock()
}

// findCopy locates a surviving checksum-verified copy of an element's
// blob at an epoch, returning the blob and the node holding it. A copy
// that fails verification is counted and skipped — the buddy copy on the
// next node repairs the rot.
func (mgr *Manager) findCopy(k elemKey, epoch uint64) ([]byte, int) {
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if mgr.m.NodeDead(r) {
			continue
		}
		blob, verified := mgr.stores[r].get(epoch, k)
		if !verified {
			mgr.ckptCRCFails.Add(1)
			if obs.On() {
				obsCkptCRCFail.Inc(r)
			}
			continue
		}
		if blob != nil {
			return blob, r
		}
	}
	return nil, -1
}

// findApp locates a surviving verified copy of the application blob at an
// epoch.
func (mgr *Manager) findApp(epoch uint64) []byte {
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if mgr.m.NodeDead(r) {
			continue
		}
		app, verified := mgr.stores[r].getApp(epoch)
		if !verified {
			mgr.ckptCRCFails.Add(1)
			if obs.On() {
				obsCkptCRCFail.Inc(r)
			}
			continue
		}
		if app != nil {
			return app
		}
	}
	return nil
}
