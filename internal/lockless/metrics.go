package lockless

import (
	"sync/atomic"

	"blueq/internal/obs"
)

// Observability instrumentation (internal/obs). Every update below is
// guarded by obs.On() at the call site, so the disabled cost is one atomic
// load; shard keys are per-queue ids: one per PE scheduler queue, MU
// reception FIFO, PAMI work queue and pool free list.
var (
	mEnqueue  = obs.NewCounter("lockless", "enqueue_total", 0)
	mDequeue  = obs.NewCounter("lockless", "dequeue_total", 0)
	mSpill    = obs.NewCounter("lockless", "overflow_spill_total", 0)
	mDrain    = obs.NewCounter("lockless", "overflow_drain_total", 0)
	mDepthHW  = obs.NewGauge("lockless", "ring_depth_high_water")
	mMutexEnq = obs.NewCounter("lockless", "mutex_enqueue_total", 0)
	mMutexDeq = obs.NewCounter("lockless", "mutex_dequeue_total", 0)

	// Flow-control instrumentation: cap hits count producers that found
	// the overflow queue full and parked (updated on the already-slow
	// parked path, so they are not obs.On()-guarded); overruns count the
	// MaxBlock liveness escapes that spilled past the cap.
	mCapHit     = obs.NewCounter("lockless", "overflow_cap_hits", 0)
	mCapOverrun = obs.NewCounter("lockless", "overflow_cap_overruns", 0)
)

// queueSeq hands each queue a distinct metric shard key at construction.
var queueSeq atomic.Uint64

func nextQueueID() int { return int(queueSeq.Add(1) - 1) }
