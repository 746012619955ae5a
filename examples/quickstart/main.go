// Quickstart: the Charm++-style programming model in five minutes.
//
// A chare array of Greeter elements is spread over the PEs of a simulated
// 2-node SMP machine. The mainchare broadcasts a greeting; every element
// responds with an asynchronous entry-method invocation back to element 0,
// which contributes the tally into a reduction that shuts the run down. The
// example exits non-zero if the reduction's sum is wrong.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"blueq/internal/charm"
	"blueq/internal/converse"
)

type greeter struct {
	greeted atomic.Int64
}

func main() {
	rt, err := charm.NewRuntime(converse.Config{
		Nodes:          2,
		WorkersPerNode: 4,
		Mode:           converse.ModeSMPComm, // dedicated comm threads
		CommThreads:    1,
	})
	if err != nil {
		panic(err)
	}

	const n = 16
	greeters := rt.NewArray("greeters", n, func(idx int) charm.Element {
		return &greeter{}
	})

	// Entry 0: receive the greeting, reply to element 0.
	var eHello, eReply, eContribute int
	eHello = greeters.Entry(func(pe *converse.PE, el charm.Element, idx int, payload any) {
		fmt.Printf("element %2d greeted on PE %d (home %d)\n", idx, pe.Id(), greeters.HomePE(idx))
		if err := greeters.Send(pe, 0, eReply, idx, 8); err != nil {
			panic(err)
		}
	})

	// Entry 1: element 0 tallies replies, then everyone contributes to a
	// sum reduction whose target ends the program.
	eReply = greeters.Entry(func(pe *converse.PE, el charm.Element, idx int, payload any) {
		g := el.(*greeter)
		if g.greeted.Add(1) < n {
			return
		}
		fmt.Println("all replies in; starting reduction")
		_ = greeters.Broadcast(pe, eContribute, nil, 8)
	})

	eContribute = greeters.Entry(func(pe *converse.PE, el charm.Element, idx int, payload any) {
		err := greeters.Contribute(pe, 1, []float64{float64(idx)}, charm.ReduceSum,
			func(pe *converse.PE, result []float64) {
				fmt.Printf("reduction over %d elements: sum of indices = %.0f\n", n, result[0])
				if want := float64(n * (n - 1) / 2); result[0] != want {
					log.Fatalf("reduction sum %.0f, want %.0f", result[0], want)
				}
				rt.Shutdown()
			})
		if err != nil {
			panic(err)
		}
	})

	rt.Run(func(pe *converse.PE) {
		fmt.Printf("mainchare on PE %d of %d\n", pe.Id(), rt.NumPEs())
		if err := greeters.Broadcast(pe, eHello, nil, 8); err != nil {
			panic(err)
		}
	})
	fmt.Printf("done: %d messages executed\n", rt.MessagesExecuted())
}
