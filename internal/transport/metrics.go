package transport

import "blueq/internal/obs"

// Observability instrumentation (internal/obs), guarded by obs.On() at the
// call sites. Shard keys are source node ranks: faults and stalls are
// charged to the injecting node, matching how the paper attributes network
// behaviour to the sender's injection FIFOs.
var (
	obsFaultDrop         = obs.NewCounter("transport", "faulty_drop_total", 0)
	obsFaultDup          = obs.NewCounter("transport", "faulty_dup_total", 0)
	obsFaultDelay        = obs.NewCounter("transport", "faulty_delay_total", 0)
	obsFaultCorrupt      = obs.NewCounter("transport", "faulty_corrupt_total", 0)
	obsFaultTruncate     = obs.NewCounter("transport", "faulty_truncate_total", 0)
	obsContentionStalled = obs.NewCounter("transport", "contention_stalled_total", 0)
	obsContentionStallNS = obs.NewCounter("transport", "contention_stall_ns_total", 0)
	obsKillNode          = obs.NewCounter("transport", "faulty_killed_nodes_total", 0)
	obsKillDrop          = obs.NewCounter("transport", "faulty_killed_drop_total", 0)
	// Link faults: packets lost to flaky links or partitions, charged to
	// the source rank.
	obsLinkDrop = obs.NewCounter("transport", "link_drop_total", 0)
)
