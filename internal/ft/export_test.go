package ft

import "fmt"

// TightCfg hands the raceScale-stretched detector settings to the external
// (package ft_test) tests.
var TightCfg = tightCfg

// RotReplica damages node's replica of one blob of the committed epoch, as
// bit rot in the checkpoint store would. The entry is replaced with a
// damaged copy, not flipped in place: the owner and buddy stores must stay
// independent replicas for the fallback to mean anything.
func (mgr *Manager) RotReplica(node int) error {
	epoch := mgr.committed.Load()
	s := mgr.stores[node]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.epochs[epoch]
	if st == nil {
		return fmt.Errorf("no store on node %d for committed epoch %d", node, epoch)
	}
	for k, b := range st.elems {
		if len(b.data) > 0 {
			bad := append([]byte(nil), b.data...)
			bad[0] ^= 0xff
			st.elems[k] = storedBlob{data: bad, sum: b.sum}
			return nil
		}
	}
	return fmt.Errorf("no non-empty blob to corrupt at epoch %d", epoch)
}
