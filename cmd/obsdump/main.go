// Command obsdump is the observability probe: it enables the internal/obs
// instrumentation, drives representative native workloads through the
// runtime's hot paths (lockless queues, the pool allocator, the Charm++
// scheduler), and exports the metric registry as JSON or CSV.
//
// With -addr it additionally serves the standard Go debug endpoints —
// expvar under /debug/vars (including the "obs" variable published from
// the registry) and net/http/pprof under /debug/pprof/ — so a live
// process can be inspected with the stock tooling:
//
//	obsdump                         # run workloads, JSON snapshot to stdout
//	obsdump -format csv -o m.csv    # CSV snapshot to a file
//	obsdump -shards                 # include the per-PE shard breakdown
//	obsdump -addr :6060             # …then keep serving /debug/vars + pprof
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/mempool"
	"blueq/internal/obs"
	"blueq/internal/scenario"
)

func main() {
	var (
		format    = flag.String("format", "json", "snapshot format: json or csv")
		out       = flag.String("o", "-", "output path ('-' for stdout)")
		shards    = flag.Bool("shards", false, "include per-shard (per-PE) counter values")
		addr      = flag.String("addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address after the workloads")
		workloads = flag.String("workload", "all", "comma-separated workloads: pingpong, alloc, charm, all")
		rounds    = flag.Int("rounds", 20000, "messages per messaging workload")
		threads   = flag.Int("threads", 8, "threads for the allocator workload")
	)
	flag.Parse()

	obs.SetEnabled(true)
	obs.PublishExpvar()

	run := map[string]bool{}
	for _, w := range strings.Split(*workloads, ",") {
		switch w = strings.TrimSpace(w); w {
		case "all", "pingpong", "alloc", "charm":
			run[w] = true
		default:
			log.Fatalf("unknown workload %q (want pingpong, alloc, charm or all)", w)
		}
	}
	if run["all"] {
		run["pingpong"], run["alloc"], run["charm"] = true, true, true
	}
	if run["pingpong"] {
		pingpong(*rounds)
	}
	if run["alloc"] {
		allocChurn(*threads, *rounds)
	}
	if run["charm"] {
		charmRing(*rounds)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	opts := obs.SnapshotOptions{WithShards: *shards, SkipZero: true}
	var err error
	switch *format {
	case "json":
		err = obs.Default.WriteJSON(w, opts)
	case "csv":
		err = obs.Default.WriteCSV(w, opts)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *addr != "" {
		fmt.Fprintf(os.Stderr, "obsdump: serving /debug/vars and /debug/pprof on %s\n", *addr)
		log.Fatal(http.ListenAndServe(*addr, nil))
	}
}

// pingpong runs scenario.PingPong twice — within one SMP node, then between
// two — so both the intra-node pointer-exchange path and the inter-node
// PAMI path (immediate sends, the deliver-latency histogram, wakeup
// events) record.
func pingpong(rounds int) {
	for _, nodes := range []int{1, 2} {
		m, err := converse.NewMachine(converse.Config{Nodes: nodes, WorkersPerNode: 2, Mode: converse.ModeSMP})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := scenario.PingPong(m, m.Run, rounds); err != nil {
			log.Fatal(err)
		}
	}
}

// allocChurn replays the paper's Fig. 6 pattern — every thread allocates a
// batch and a different thread frees it — against both allocators, so pool
// hit/miss and arena lock counters populate.
func allocChurn(threads, iters int) {
	batches := iters / threads / 10
	if batches < 4 {
		batches = 4
	}
	for _, a := range []mempool.Allocator{
		mempool.NewPoolAllocator(threads, 0),
		mempool.NewArenaAllocator(threads, 8),
	} {
		exchange := make([][]*mempool.Buffer, threads)
		for round := 0; round < batches; round++ {
			var wg sync.WaitGroup
			wg.Add(threads)
			for tid := 0; tid < threads; tid++ {
				go func(tid int) {
					defer wg.Done()
					bufs := make([]*mempool.Buffer, 10)
					for k := range bufs {
						bufs[k] = a.Alloc(tid, 512)
					}
					exchange[tid] = bufs
				}(tid)
			}
			wg.Wait()
			wg.Add(threads)
			for tid := 0; tid < threads; tid++ {
				go func(tid int) {
					defer wg.Done()
					for _, b := range exchange[(tid+1)%threads] {
						a.Free(tid, b)
					}
				}(tid)
			}
			wg.Wait()
		}
	}
}

// charmRing drives the Charm++ layer: a chare array passes a token around
// its elements, and a group broadcast fans out over the spanning tree, so
// entry-method, scheduler and broadcast counters populate.
func charmRing(rounds int) {
	rt, err := charm.NewRuntime(converse.Config{Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMP})
	if err != nil {
		log.Fatal(err)
	}
	type worker struct{}
	arr := rt.NewArray("ring", 16, func(idx int) charm.Element { return &worker{} })
	var hops atomic.Int64
	var pass int
	pass = arr.Entry(func(pe *converse.PE, elem charm.Element, idx int, payload any) {
		n := payload.(int)
		if n >= rounds {
			rt.Shutdown()
			return
		}
		if err := arr.Send(pe, (idx+1)%arr.Len(), pass, n+1, 64); err != nil {
			log.Fatal(err)
		}
		hops.Add(1)
	})
	grp := rt.NewGroup("probe", func(pe int) charm.Element { return &worker{} })
	hello := grp.Entry(func(pe *converse.PE, elem charm.Element, payload any) {})
	rt.Run(func(pe *converse.PE) {
		if err := grp.Broadcast(pe, hello, nil, 8); err != nil {
			log.Fatal(err)
		}
		if err := arr.Send(pe, 0, pass, 0, 64); err != nil {
			log.Fatal(err)
		}
	})
}
