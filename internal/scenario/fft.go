package scenario

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/ft"
)

// FFTConfig describes one iterated-3D-FFT run under fault tolerance.
type FFTConfig struct {
	Nodes     int    // single-worker SMP nodes (default 4)
	N         int    // grid edge: an N³ transform (default 16)
	Iters     int    // forward+backward iterations to complete
	Transport string // transport spec; "" is the default in-process network
	// Detector tunes failure detection; the harness owns its two hooks.
	// Left zero it gets a 2 ms heartbeat and a 60 ms suspect floor:
	// heartbeats ride the same lossy transport as the data, and the floor
	// must absorb a run of dropped ones without a false confirmation.
	Detector    ft.Config
	Aggregation *aggregate.Config
	// Every checkpoints when the completed-iteration count is a multiple
	// of it (0 or 1: before the first iteration and after each). Negative
	// never checkpoints — the epoch stays 0.
	Every   int
	Faults  Faults
	Timeout time.Duration // watchdog (default 120 s)
}

// FFT runs the iterated FFT over transport → charm.Runtime → ft.Manager →
// fft3d engine, checkpointing on the configured cadence and restarting from
// the committed iteration count after a recovery. Because recovery repeats
// the exact arithmetic it rolled back, a run that survived its schedule
// ends with grids bitwise identical to a fault-free run's (SameBits).
func FFT(cfg FFTConfig) (Result, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.N == 0 {
		cfg.N = 16
	}
	if cfg.Detector.HeartbeatInterval == 0 {
		cfg.Detector.HeartbeatInterval = 2 * time.Millisecond
		cfg.Detector.SuspectAfter = 60 * time.Millisecond
	}
	h, err := newHarness(cfg.Transport, converse.Config{
		Nodes: cfg.Nodes, WorkersPerNode: 1, Mode: converse.ModeSMP, Aggregation: cfg.Aggregation,
	}, cfg.Faults)
	if err != nil {
		return Result{}, err
	}
	eng, err := fft3d.New(h.rt, nil, fft3d.Config{
		NX: cfg.N, NY: cfg.N, NZ: cfg.N, Transport: fft3d.P2P,
		Input: func(x, y, z int) complex128 {
			return complex(float64(x+2*y)+0.25, float64(z-y)-0.5)
		},
	})
	if err != nil {
		h.tr.Close()
		return Result{}, err
	}
	h.mgr = ft.New(h.rt, h.detector(cfg.Detector))
	h.mgr.Protect(eng.Array())

	var restartIter atomic.Int64 // iteration count the first restart resumed from
	restartIter.Store(-1)
	h.mgr.SetAppState(
		func() []byte {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(eng.Iterations()))
			return b[:]
		},
		func(pe *converse.PE, blob []byte) {
			iter := int64(binary.LittleEndian.Uint64(blob))
			h.restarted()
			restartIter.CompareAndSwap(-1, iter)
			eng.PrepareRestart(iter)
			if err := eng.Start(pe); err != nil {
				h.fail(fmt.Errorf("restart from iteration %d: %w", iter, err))
			}
		})

	// launch starts iteration next, directly or behind a checkpoint of the
	// iterations completed so far; the schedule fires once its iteration
	// is under way.
	launch := func(pe *converse.PE, next int) {
		start := func(pe *converse.PE) {
			if err := eng.Start(pe); err != nil {
				h.fail(fmt.Errorf("start iteration %d: %w", next, err))
				return
			}
			if next == cfg.Faults.AtIter {
				h.fire()
			}
		}
		if cfg.Every < 0 || (cfg.Every > 1 && (next-1)%cfg.Every != 0) {
			start(pe)
		} else if err := h.checkpoint(pe, start); err != nil {
			h.fail(fmt.Errorf("checkpoint before iteration %d: %w", next, err))
		}
	}
	eng.SetOnComplete(func(pe *converse.PE, iter int) {
		if iter >= cfg.Iters {
			h.rt.Shutdown()
			return
		}
		launch(pe, iter+1)
	})

	res, err := h.run(cfg.Timeout, func(pe *converse.PE) { launch(pe, 1) })
	if at := restartIter.Load(); at >= 0 {
		res.Replayed = cfg.Faults.AtIter - int(at)
	}
	for pe := 0; pe < cfg.Nodes; pe++ {
		res.Grids = append(res.Grids, append([]complex128(nil), eng.ZData(pe)...))
	}
	return res, err
}
