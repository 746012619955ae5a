package main

import (
	"runtime"
	"syscall"
	"time"
)

// phases holds the durations of one workload run.
type phases struct {
	warm   time.Duration // wall-clock warm-up before the first measured chunk
	round  time.Duration // measured time per round
	rounds int           // measured rounds
}

// sampleCap is the fixed capacity of the chunk-sample buffer. It is
// allocated before the baseline MemStats read, so heap_live_mb and the
// allocation deltas do not depend on how many chunks a host completes.
// The fastest workload (intra ping-pong, ~1 ms chunks) produces ~12 000
// samples over 8 × 1.5 s.
const sampleCap = 1 << 16

// roundStat is one measured round.
type roundStat struct {
	ops         int64
	wall        time.Duration // sum of the round's chunk walls
	cpuNS       int64         // process CPU time consumed during the round
	mallocs     uint64        // heap objects allocated inside the round's chunks
	mallocBytes uint64
}

// meter is the measurement state machine of one workload run. The closed
// loop calls chunk at the end of every chunk from a single goroutine (PE
// 0's scheduler, or the main goroutine for md_step); the meter reads the
// clock there and nowhere else, so the loop is timed by exactly one clock
// read per chunk.
type meter struct {
	ph      phases
	t0      time.Time // workload start (before build)
	began   time.Time // loop start, the warm-up's origin
	mark    time.Time // start of the current chunk
	warming bool

	setup   time.Duration // t0 -> first measured chunk
	samples []float64     // ns per op, one per measured chunk
	rounds  []roundStat
	cur     roundStat
	cpu0    int64

	// gaps is set by restart: chunks are not back to back, so CPU time and
	// allocation counts are read around every chunk instead of around the
	// round (the untimed gap's work must not be charged to the ops).
	gaps    bool
	memMark runtime.MemStats
	// onMeasure, when set, runs once when the warm-up ends, and
	// betweenRounds after every round; both are outside the timed span.
	// Workloads baseline layer counters in the first and verify their
	// outputs in the second.
	onMeasure     func()
	betweenRounds func()
}

func newMeter(ph phases, t0 time.Time) *meter {
	return &meter{ph: ph, t0: t0, samples: make([]float64, 0, sampleCap), rounds: make([]roundStat, 0, ph.rounds), warming: true}
}

// begin marks the start of the loop (and of the first chunk).
func (m *meter) begin() {
	m.began = time.Now()
	m.mark = m.began
}

// restart marks the start of a chunk that does not begin where the
// previous one ended (md_step builds a fresh simulation between chunks).
func (m *meter) restart() {
	m.gaps = true
	if !m.warming {
		m.readCounters()
	}
	m.mark = time.Now()
}

// readCounters takes the allocation and CPU baselines of a timed span.
func (m *meter) readCounters() {
	runtime.ReadMemStats(&m.memMark)
	m.cpu0 = processCPU()
}

// addCounters charges the allocation and CPU deltas since readCounters to
// the current round.
func (m *meter) addCounters() {
	m.cur.cpuNS += processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.cur.mallocs += ms.Mallocs - m.memMark.Mallocs
	m.cur.mallocBytes += ms.TotalAlloc - m.memMark.TotalAlloc
}

// chunk closes a chunk of ops operations and reports whether the loop
// should run another one.
func (m *meter) chunk(ops int) bool {
	now := time.Now()
	if m.warming {
		if now.Sub(m.began) < m.ph.warm {
			m.mark = now
			return true
		}
		m.warming = false
		m.setup = now.Sub(m.t0)
		if m.onMeasure != nil {
			m.onMeasure()
		}
		m.startRound()
		return true
	}
	wall := now.Sub(m.mark)
	if m.gaps {
		m.addCounters()
	}
	if len(m.samples) < cap(m.samples) {
		m.samples = append(m.samples, float64(wall)/float64(ops))
	}
	m.cur.ops += int64(ops)
	m.cur.wall += wall
	if m.cur.wall < m.ph.round {
		m.mark = now
		return true
	}
	if !m.gaps {
		m.addCounters()
	}
	m.rounds = append(m.rounds, m.cur)
	if m.betweenRounds != nil {
		m.betweenRounds()
	}
	if len(m.rounds) == m.ph.rounds {
		return false
	}
	m.startRound()
	return true
}

// startRound begins a measured round at the current instant.
func (m *meter) startRound() {
	m.cur = roundStat{}
	if !m.gaps {
		m.readCounters()
	}
	m.mark = time.Now()
}

// totalOps is the number of measured operations; mallocs and mallocBytes
// what their chunks allocated.
func (m *meter) totalOps() (n int64) {
	for _, r := range m.rounds {
		n += r.ops
	}
	return n
}

func (m *meter) mallocs() (objects, bytes uint64) {
	for _, r := range m.rounds {
		objects += r.mallocs
		bytes += r.mallocBytes
	}
	return objects, bytes
}

// opsPerSecond is the median over rounds of round ops / round wall.
func (m *meter) opsPerSecond() float64 {
	xs := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		xs[i] = float64(r.ops) / r.wall.Seconds()
	}
	return median(xs)
}

// cpuPerOp is the median over rounds of process CPU ns per op.
func (m *meter) cpuPerOp() float64 {
	xs := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		xs[i] = float64(r.cpuNS) / float64(r.ops)
	}
	return median(xs)
}

// processCPU returns the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapLiveMB forces a collection and returns the live heap in MB. The
// caller keeps the machine reachable across the call.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
