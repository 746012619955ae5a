// 3D FFT example: the Table I workload through the public engine.
//
// A 16³ complex grid is pencil-decomposed over 8 PEs; ten
// forward+backward iterations run with the point-to-point transposes and
// ten more with the CmiDirectManytomany bursts. The example checks the
// distributed forward transform against the serial reference, and the
// round trip against the input, and reports per-iteration wall time for
// each transport. It exits non-zero when either error exceeds maxErr.
//
// Run: go run ./examples/fft3d
package main

import (
	"fmt"
	"log"
	"math/cmplx"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/m2m"
)

const (
	n      = 16
	iters  = 10
	maxErr = 1e-9
)

func input(x, y, z int) complex128 {
	return complex(float64((3*x+5*y+7*z)%11)-5, float64((x*y+z)%5)-2)
}

func run(tr fft3d.Transport) {
	rt, err := charm.NewRuntime(converse.Config{
		Nodes: 2, WorkersPerNode: 4,
		Mode: converse.ModeSMPComm, CommThreads: 1,
	})
	if err != nil {
		panic(err)
	}
	var mgr *m2m.Manager
	if tr == fft3d.M2M {
		mgr = m2m.NewManager(rt.Machine())
	}
	eng, err := fft3d.New(rt, mgr, fft3d.Config{
		NX: n, NY: n, NZ: n,
		Transport:      tr,
		Input:          input,
		CaptureForward: true,
	})
	if err != nil {
		panic(err)
	}
	var start time.Time
	var elapsed time.Duration
	eng.SetOnComplete(func(pe *converse.PE, iter int) {
		if iter >= iters {
			elapsed = time.Since(start)
			rt.Shutdown()
			return
		}
		if err := eng.Start(pe); err != nil {
			panic(err)
		}
	})
	rt.Run(func(pe *converse.PE) {
		start = time.Now()
		if err := eng.Start(pe); err != nil {
			panic(err)
		}
	})

	// Verify against the serial transform.
	ref := fft3d.NewGrid(n, n, n)
	ref.Fill(input)
	fft3d.SerialForward(ref)
	worst := 0.0
	for i, v := range eng.Forward().Data {
		if d := cmplx.Abs(v - ref.Data[i]); d > worst {
			worst = d
		}
	}
	round := eng.RoundTripError()
	fmt.Printf("%-4s: %6.2f ms/iteration, forward max err vs serial %.2e, round-trip err %.2e\n",
		tr, elapsed.Seconds()*1e3/iters, worst, round)
	if !(worst <= maxErr && round <= maxErr) {
		log.Fatalf("%s: error above %.0e: the distributed transform is wrong", tr, maxErr)
	}
}

func main() {
	fmt.Printf("distributed %d³ FFT on 8 PEs, %d forward+backward iterations per transport\n", n, iters)
	run(fft3d.P2P)
	run(fft3d.M2M)
}
