package converse

import "blueq/internal/obs"

// Observability instrumentation (internal/obs), guarded by obs.On() at
// every call site. Shard keys are PE ids: the (PE, subsystem) keying the
// paper's measurements use. The send→deliver histogram is stamped in
// PE.enqueue (the pointer-exchange publish) and observed in PE.invoke (the
// scheduler running the handler), so it covers exactly the queue+scheduler
// span the intra-node ping-pong figures measure.
var (
	mSendLocal     = obs.NewCounter("converse", "send_local_total", 0)
	mSendRemote    = obs.NewCounter("converse", "send_remote_total", 0)
	mSendImmediate = obs.NewCounter("converse", "send_immediate_total", 0)
	mSendRzv       = obs.NewCounter("converse", "send_rendezvous_total", 0)
	mSendBytes     = obs.NewCounter("converse", "send_bytes_total", 0)
	mDeliver       = obs.NewCounter("converse", "deliver_total", 0)
	mDeliverNS     = obs.NewHistogram("converse", "deliver_latency_ns", 0)
	mSchedIdle     = obs.NewCounter("converse", "sched_idle_total", 0)
	mSchedBlock    = obs.NewCounter("converse", "sched_block_total", 0)
	mBcastRoot     = obs.NewCounter("converse", "broadcast_root_total", 0)
	mBcastForward  = obs.NewCounter("converse", "broadcast_forward_total", 0)
	mBcastDeliver  = obs.NewCounter("converse", "broadcast_fanout_total", 0)
)

// DeliverLatencyQuantile returns an upper bound on the q-quantile of the
// send→deliver latency histogram, in nanoseconds (0 when nothing has been
// recorded). Probes report p50/p99 without parsing a snapshot.
func DeliverLatencyQuantile(q float64) int64 { return mDeliverNS.Quantile(q) }

// DeliverCount returns the number of deliveries the latency histogram has
// observed.
func DeliverCount() int64 { return mDeliverNS.Count() }
