package charm

import (
	"container/heap"
	"sort"
)

// The placement algorithms behind the measurement-based load balancers:
// pure functions from per-element loads to an element-to-PE map. internal/lb
// measures the loads, runs these as its centralized Greedy and Refine
// strategies, and migrates elements to the map they return.

// peLoad is a heap entry for greedy assignment.
type peLoad struct {
	pe   int
	load float64
}
type peLoadHeap []peLoad

func (h peLoadHeap) Len() int           { return len(h) }
func (h peLoadHeap) Less(i, j int) bool { return h[i].load < h[j].load }
func (h peLoadHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *peLoadHeap) Push(x any)        { *h = append(*h, x.(peLoad)) }
func (h *peLoadHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// GreedyPlacement implements GreedyLB: elements sorted by descending load,
// each assigned to the least-loaded PE so far.
func GreedyPlacement(loads []float64, npes int) []int32 {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return loads[order[x]] > loads[order[y]] })
	h := make(peLoadHeap, npes)
	for p := 0; p < npes; p++ {
		h[p] = peLoad{pe: p}
	}
	heap.Init(&h)
	home := make([]int32, len(loads))
	for _, idx := range order {
		best := heap.Pop(&h).(peLoad)
		home[idx] = int32(best.pe)
		best.load += loads[idx]
		heap.Push(&h, best)
	}
	return home
}

// RefinePlacement implements RefineLB: keep the existing map, then move the
// lightest suitable elements off the most loaded PEs until every PE is
// within 5% of average (or no move helps), minimizing migrations.
func RefinePlacement(loads []float64, oldHome []int32, npes int) []int32 {
	home := append([]int32(nil), oldHome...)
	perPE := make([]float64, npes)
	byPE := make([][]int, npes)
	total := 0.0
	for i, h := range home {
		perPE[h] += loads[i]
		byPE[h] = append(byPE[h], i)
		total += loads[i]
	}
	avg := total / float64(npes)
	threshold := avg * 1.05
	for iter := 0; iter < len(loads); iter++ {
		// Find the most overloaded PE above threshold.
		src := -1
		for p := 0; p < npes; p++ {
			if perPE[p] > threshold && (src < 0 || perPE[p] > perPE[src]) {
				src = p
			}
		}
		if src < 0 {
			break
		}
		// Find the least loaded PE.
		dst := 0
		for p := 1; p < npes; p++ {
			if perPE[p] < perPE[dst] {
				dst = p
			}
		}
		// Move the largest element that does not overload dst, else the
		// smallest element.
		cand := -1
		for _, idx := range byPE[src] {
			if loads[idx] == 0 {
				continue
			}
			if perPE[dst]+loads[idx] <= threshold {
				if cand < 0 || loads[idx] > loads[cand] {
					cand = idx
				}
			}
		}
		if cand < 0 {
			for _, idx := range byPE[src] {
				if loads[idx] > 0 && (cand < 0 || loads[idx] < loads[cand]) {
					cand = idx
				}
			}
		}
		if cand < 0 || perPE[dst]+loads[cand] >= perPE[src] {
			break // no improving move
		}
		perPE[src] -= loads[cand]
		perPE[dst] += loads[cand]
		home[cand] = int32(dst)
		// update byPE
		lst := byPE[src]
		for k, idx := range lst {
			if idx == cand {
				byPE[src] = append(lst[:k], lst[k+1:]...)
				break
			}
		}
		byPE[dst] = append(byPE[dst], cand)
	}
	return home
}
