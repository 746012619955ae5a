package charm

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/converse"
)

// waitOrFail waits for ch to close, failing the test after d.
func waitOrFail(t *testing.T, ch <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(d):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// quiesce waits for DetectQuiescence, failing the test after d: an
// accounting bug shows as a quiescence that never comes.
func quiesce(t *testing.T, rt *Runtime, d time.Duration) {
	t.Helper()
	quiet := make(chan struct{})
	go func() {
		rt.DetectQuiescence()
		close(quiet)
	}()
	waitOrFail(t, quiet, d, "quiescence")
}

// An open reduction partial is a message in flight: quiescence detection
// must not return while one sits on a PE, and returns once the root has
// folded it.
func TestQuiescenceWaitsForOpenPartial(t *testing.T) {
	rt, err := NewRuntime(smallCfg(2, 1, converse.ModeSMP))
	if err != nil {
		t.Fatal(err)
	}
	a := rt.NewArray("qd", 2, func(int) Element { return nil })
	var fires atomic.Int64
	target := func(*converse.PE, []float64) { fires.Add(1) }
	// Both elements contribute before the schedulers start, so their
	// partials stay open until each PE's first drain.
	for idx := 0; idx < 2; idx++ {
		if err := a.Contribute(rt.Machine().PE(a.HomePE(idx)), 1, []float64{1}, ReduceSum, target); err != nil {
			t.Fatal(err)
		}
	}
	if s, d := rt.MessagesSent(), rt.MessagesExecuted(); s != 2 || d != 0 {
		t.Fatalf("two open partials counted as sent %d executed %d, want 2 and 0", s, d)
	}
	quiet := make(chan struct{})
	go func() {
		rt.DetectQuiescence()
		close(quiet)
	}()
	select {
	case <-quiet:
		t.Fatal("quiescence detected with two reduction partials open")
	case <-time.After(50 * time.Millisecond):
	}
	ran := make(chan struct{})
	go func() {
		rt.Run(nil)
		close(ran)
	}()
	waitOrFail(t, quiet, 10*time.Second, "quiescence after the partials drained")
	if fires.Load() != 1 {
		t.Fatalf("reduction fired %d times, want once before quiescence", fires.Load())
	}
	if s, d := rt.MessagesSent(), rt.MessagesExecuted(); s != d {
		t.Fatalf("sent %d != executed %d at quiescence", s, d)
	}
	rt.Shutdown()
	waitOrFail(t, ran, 10*time.Second, "shutdown")
}

// A partial opened before BeginRecovery never reaches a target: recovery
// clears every open partial, and one that escaped the clear (already taken
// by a drain) travels with its own epoch and drops at dispatch — on the
// root, before it folds. The generation then completes from post-recovery
// contributions alone.
func TestStalePartialDroppedAfterRecovery(t *testing.T) {
	rt, err := NewRuntime(smallCfg(2, 1, converse.ModeSMP))
	if err != nil {
		t.Fatal(err)
	}
	a := rt.NewArray("stale", 2, func(int) Element { return nil })
	var fires atomic.Int64
	var got atomic.Value
	target := func(pe *converse.PE, r []float64) {
		fires.Add(1)
		got.Store(r[0])
	}
	eGo := a.Entry(func(pe *converse.PE, _ Element, _ int, _ any) {
		if err := a.Contribute(pe, 1, []float64{10}, ReduceSum, target); err != nil {
			t.Errorf("contribute: %v", err)
		}
	})
	stale := make([]*partial, rt.NumPEs())
	for idx := 0; idx < 2; idx++ {
		pe := a.HomePE(idx)
		if err := a.Contribute(rt.Machine().PE(pe), 1, []float64{1}, ReduceSum, target); err != nil {
			t.Fatal(err)
		}
		stale[pe] = rt.reductions[pe].open[0]
	}
	rt.BeginRecovery()
	for pe := range rt.reductions {
		if n := rt.reductions[pe].nOpen.Load(); n != 0 {
			t.Fatalf("PE %d kept %d partials across BeginRecovery", pe, n)
		}
	}
	// Put the stale partials back, as if a drain had taken them just
	// before the recovery: PE 1's travels to the root, PE 0's is the
	// root's own.
	for pe, p := range stale {
		s := &rt.reductions[pe]
		s.open = append(s.open, p)
		s.nOpen.Store(int32(len(s.open)))
	}
	ran := make(chan struct{})
	go func() {
		rt.Run(func(pe *converse.PE) {
			for idx := 0; idx < 2; idx++ {
				if err := a.Send(pe, idx, eGo, nil, 8); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
		close(ran)
	}()
	for deadline := time.Now().Add(10 * time.Second); fires.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("post-recovery reduction never fired")
		}
		time.Sleep(time.Millisecond)
	}
	quiesce(t, rt, 10*time.Second)
	if fires.Load() != 1 || got.Load().(float64) != 20 {
		t.Fatalf("reduction fired %d times with %v, want once with 20 (stale partials folded in?)",
			fires.Load(), got.Load())
	}
	if s, d := rt.MessagesSent(), rt.MessagesExecuted(); s != d {
		t.Fatalf("sent %d != executed %d after the stale partials dropped", s, d)
	}
	rt.Shutdown()
	waitOrFail(t, ran, 10*time.Second, "shutdown")
}

// stepElem counts the broadcasts it has run; the count travels with the
// element when it migrates.
type stepElem struct {
	steps uint64
}

func (e *stepElem) PackCheckpoint() []byte {
	return binary.LittleEndian.AppendUint64(nil, e.steps)
}

func (e *stepElem) UnpackCheckpoint(data []byte) {
	e.steps = binary.LittleEndian.Uint64(data)
}

// Elements migrate between PEs while a reduction generation is open and
// while a broadcast is in flight: every generation still fires exactly
// once with the exact integer sum, and every element's entry runs exactly
// once per broadcast.
func TestCollectivesAcrossMigration(t *testing.T) {
	const (
		n    = 24
		gens = 12
	)
	rt, err := NewRuntime(smallCfg(3, 2, converse.ModeSMP))
	if err != nil {
		t.Fatal(err)
	}
	npes := rt.NumPEs()
	a := rt.NewArray("mig", n, func(int) Element { return &stepElem{} })
	var hits [gens + 1][n]atomic.Int32
	var fires [gens + 1]atomic.Int32
	var migrated atomic.Int64
	finished := make(chan struct{})
	var eStep, eMove int
	var target ReductionTarget
	target = func(pe *converse.PE, r []float64) {
		gen := int(r[2] / n)
		if r[0] != n*(n+1)/2 || r[1] != n || gen < 1 || gen > gens || r[2] != float64(gen*n) {
			t.Errorf("reduction result %v, want [%d %d %d·gen]", r, n*(n+1)/2, n, n)
			return
		}
		fires[gen].Add(1)
		if gen == gens {
			close(finished)
			return
		}
		// The next broadcast leaves while the last generation's
		// migrations are still travelling.
		if err := a.Broadcast(pe, eStep, gen+1, 8); err != nil {
			t.Errorf("broadcast: %v", err)
		}
	}
	eStep = a.Entry(func(pe *converse.PE, el Element, idx int, payload any) {
		gen := payload.(int)
		hits[gen][idx].Add(1)
		el.(*stepElem).steps++
		if err := a.Contribute(pe, uint64(gen), []float64{float64(idx + 1), 1, float64(gen)}, ReduceSum, target); err != nil {
			t.Errorf("contribute: %v", err)
		}
		// Move another element, which may not have run this broadcast
		// yet, and on some generations move this one while the
		// reduction it just joined is still open.
		other := (idx*7 + gen) % n
		if err := a.Send(pe, other, eMove, (pe.Id()+1+idx)%npes, 8); err != nil {
			t.Errorf("send move: %v", err)
		}
		if (idx+gen)%3 == 0 {
			if err := a.MigrateElement(pe, idx, (pe.Id()+1)%npes); err != nil {
				t.Errorf("migrate %d: %v", idx, err)
			}
			migrated.Add(1)
		}
	})
	eMove = a.Entry(func(pe *converse.PE, _ Element, idx int, payload any) {
		if dst := payload.(int); dst != pe.Id() {
			if err := a.MigrateElement(pe, idx, dst); err != nil {
				t.Errorf("migrate %d: %v", idx, err)
			}
			migrated.Add(1)
		}
	})
	ran := make(chan struct{})
	go func() {
		rt.Run(func(pe *converse.PE) {
			if err := a.Broadcast(pe, eStep, 1, 8); err != nil {
				t.Errorf("broadcast: %v", err)
			}
		})
		close(ran)
	}()
	waitOrFail(t, finished, 30*time.Second, "the last generation")
	quiesce(t, rt, 30*time.Second)
	rt.Shutdown()
	waitOrFail(t, ran, 10*time.Second, "shutdown")

	for gen := 1; gen <= gens; gen++ {
		if f := fires[gen].Load(); f != 1 {
			t.Errorf("generation %d fired %d times", gen, f)
		}
		for idx := 0; idx < n; idx++ {
			if h := hits[gen][idx].Load(); h != 1 {
				t.Errorf("broadcast %d ran element %d's entry %d times", gen, idx, h)
			}
		}
	}
	for idx := 0; idx < n; idx++ {
		if s := a.Element(idx).(*stepElem).steps; s != gens {
			t.Errorf("element %d carries %d steps, want %d", idx, s, gens)
		}
	}
	if migrated.Load() < gens*n/3 {
		t.Fatalf("only %d migrations ran", migrated.Load())
	}
	if inflight := rt.MigrationsInFlight(); inflight != 0 {
		t.Fatalf("%d migrations still in flight at quiescence", inflight)
	}
}
