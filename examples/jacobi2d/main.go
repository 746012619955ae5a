// Jacobi 2D: the classic Charm++ stencil application with load balancing.
//
// A 2D grid is split into tiles (a chare array). Each iteration, every
// tile exchanges halo rows/columns with its four neighbours by
// asynchronous entry methods, applies the 5-point Jacobi update, and
// contributes its residual to a max-reduction; the mainchare stops when
// converged. Halfway through, internal/lb's GreedyLB plans a new placement
// from the tiles' measured execution times and migrates them, as packed
// checkpoint blobs, across PEs.
//
// Run: go run ./examples/jacobi2d
package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/lb"
)

const (
	tilesX, tilesY = 4, 4
	tileN          = 32 // interior points per tile edge
	maxIters       = 500
	tolerance      = 1e-4
)

type tile struct {
	x, y  int
	cur   [][]float64 // (tileN+2)² with halo
	next  [][]float64
	halos int
	iter  int
}

// PackCheckpoint serializes a tile between entry methods: the iteration
// count, the halos already in for the next relaxation (the migrate command
// races the resume broadcast, so a tile may leave mid-exchange) and the
// current grid with its halo cells. next is scratch outside relax.
func (t *tile) PackCheckpoint() []byte {
	b := make([]byte, 0, 16+8*(tileN+2)*(tileN+2))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.iter))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.halos))
	for _, row := range t.cur {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// UnpackCheckpoint loads the packed state into a factory-fresh tile (whose
// position and boundary values the factory already set).
func (t *tile) UnpackCheckpoint(data []byte) {
	t.iter = int(binary.LittleEndian.Uint64(data))
	t.halos = int(binary.LittleEndian.Uint64(data[8:]))
	data = data[16:]
	for _, row := range t.cur {
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
}

type haloMsg struct {
	side int // 0=left 1=right 2=top 3=bottom, from the receiver's view
	vals []float64
}

func alloc() [][]float64 {
	g := make([][]float64, tileN+2)
	for i := range g {
		g[i] = make([]float64, tileN+2)
	}
	return g
}

func main() {
	rt, err := charm.NewRuntime(converse.Config{
		Nodes: 2, WorkersPerNode: 4, Mode: converse.ModeSMP,
	})
	if err != nil {
		panic(err)
	}
	balancer := lb.Attach(rt, lb.Config{Strategy: lb.Greedy{}})

	tiles := rt.NewArray("tiles", tilesX*tilesY, func(idx int) charm.Element {
		t := &tile{x: idx % tilesX, y: idx / tilesX, cur: alloc(), next: alloc()}
		// Dirichlet boundary: hot left edge of the global domain.
		if t.x == 0 {
			for j := range t.cur {
				t.cur[j][0] = 1
				t.next[j][0] = 1
			}
		}
		return t
	})

	idxOf := func(x, y int) int { return y*tilesX + x }
	var eHalo, eStart int

	sendHalos := func(pe *converse.PE, t *tile) {
		type dir struct {
			dx, dy, side int
		}
		for _, d := range []dir{{-1, 0, 1}, {1, 0, 0}, {0, -1, 3}, {0, 1, 2}} {
			nx, ny := t.x+d.dx, t.y+d.dy
			if nx < 0 || nx >= tilesX || ny < 0 || ny >= tilesY {
				t.halos++ // domain boundary counts as received
				continue
			}
			// Send the interior row/column adjacent to that neighbour;
			// d.side is the halo slot from the receiver's point of view.
			vals := make([]float64, tileN)
			for k := 1; k <= tileN; k++ {
				switch d.side {
				case 1: // left neighbour: our left column is its right halo
					vals[k-1] = t.cur[k][1]
				case 0: // right neighbour: our right column is its left halo
					vals[k-1] = t.cur[k][tileN]
				case 3: // upper neighbour: our top row is its bottom halo
					vals[k-1] = t.cur[1][k]
				case 2: // lower neighbour: our bottom row is its top halo
					vals[k-1] = t.cur[tileN][k]
				}
			}
			if err := tiles.Send(pe, idxOf(nx, ny), eHalo, &haloMsg{side: d.side, vals: vals}, 8*tileN); err != nil {
				panic(err)
			}
		}
	}

	relax := func(pe *converse.PE, t *tile) {
		var local float64
		for i := 1; i <= tileN; i++ {
			for j := 1; j <= tileN; j++ {
				v := 0.25 * (t.cur[i-1][j] + t.cur[i+1][j] + t.cur[i][j-1] + t.cur[i][j+1])
				if d := math.Abs(v - t.cur[i][j]); d > local {
					local = d
				}
				t.next[i][j] = v
			}
		}
		t.cur, t.next = t.next, t.cur
		t.iter++
		err := tiles.Contribute(pe, uint64(t.iter), []float64{local}, charm.ReduceMax,
			func(pe *converse.PE, res []float64) {
				iter := t.iter
				if res[0] < tolerance || iter >= maxIters {
					fmt.Printf("stopped after %d iterations, residual %.2e\n", iter, res[0])
					rt.Shutdown()
					return
				}
				if iter == maxIters/2 {
					r := balancer.RunCentral(pe)
					fmt.Printf("iter %d: GreedyLB migrated %d tiles (max/avg load %.2f)\n",
						iter, r.Moves, r.MaxLoad/r.AvgLoad)
				}
				if err := tiles.Broadcast(pe, eStart, nil, 8); err != nil {
					panic(err)
				}
			})
		if err != nil {
			panic(err)
		}
	}

	eStart = tiles.Entry(func(pe *converse.PE, el charm.Element, idx int, payload any) {
		sendHalos(pe, el.(*tile))
		t := el.(*tile)
		if t.halos == 4 { // all-boundary tile or halos arrived early
			t.halos = 0
			relax(pe, t)
		}
	})

	eHalo = tiles.Entry(func(pe *converse.PE, el charm.Element, idx int, payload any) {
		t := el.(*tile)
		h := payload.(*haloMsg)
		for k := 1; k <= tileN; k++ {
			switch h.side {
			case 0:
				t.cur[k][0] = h.vals[k-1]
			case 1:
				t.cur[k][tileN+1] = h.vals[k-1]
			case 2:
				t.cur[0][k] = h.vals[k-1]
			case 3:
				t.cur[tileN+1][k] = h.vals[k-1]
			}
		}
		t.halos++
		if t.halos == 4 {
			t.halos = 0
			relax(pe, t)
		}
	})

	balancer.Manage(tiles, -1)

	start := time.Now()
	rt.Run(func(pe *converse.PE) {
		fmt.Printf("jacobi2d: %dx%d tiles of %d² on %d PEs\n", tilesX, tilesY, tileN, rt.NumPEs())
		if err := tiles.Broadcast(pe, eStart, nil, 8); err != nil {
			panic(err)
		}
	})
	fmt.Printf("elapsed %.1f ms, %d messages\n",
		time.Since(start).Seconds()*1e3, rt.MessagesExecuted())
}
