package main

import (
	"blueq/internal/converse"
	"blueq/internal/obs"
)

// metricDef names one metric. BENCHMARK.json lists the same names and
// units; bench_test.go fails when the two drift apart.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

// endToEnd are the four metrics every workload reports in the untraced
// run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ns_p50", "ns", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"heap_live_mb", "MB", "lower"},
}

// bounds is the share of the parent's median by which each end-to-end
// metric may worsen. On a shared 2-core host the interquartile spread of a
// timing metric over ten runs is 1–11 %, and two back-to-back ten-run sets
// of the same code have differed by 11 % in their medians: 10 % fails the
// benchmark's own A/A, 20 % is about twice the worst of both (README,
// "A/A"). The heap repeats within 5 %. setup_s repeats within 0.1 %; it has
// the largest bound because the benchmark contract asks for that.
var bounds = map[string]float64{
	"setup_s":      0.25,
	"op_ns_p50":    0.20,
	"ops_per_s":    0.20,
	"heap_live_mb": 0.10,
}

func boundOf(metric string) float64 { return bounds[metric] }

// lowerIsBetter reports the direction of an end-to-end metric.
func lowerIsBetter(metric string) bool {
	for _, d := range endToEnd {
		if d.name == metric {
			return d.better == "lower"
		}
	}
	return true
}

// perLayer are the traced run's metrics, outside-in. A metric that does
// not apply to a workload (no such layer runs, or it is a ratio against
// another workload's number) reads 0 there.
var perLayer = []metricDef{
	{"l2atomic.bounded_inc_ns", "ns", "lower"},
	{"lockless.enq_deq_ns", "ns", "lower"},
	{"lockless.enq_batch_ns_per_msg", "ns", "lower"},
	{"lockless.enq_per_op", "count", "lower"},
	{"lockless.spill_share", "ratio", "lower"},
	{"mempool.env_get_put_ns", "ns", "lower"},
	{"mempool.alloc_free_ns", "ns", "lower"},
	{"mempool.env_hit_ratio", "ratio", "higher"},
	{"mempool.env_remote_free_share", "ratio", "lower"},
	{"wakeup.signal_wake_ns", "ns", "lower"},
	{"converse.sched_block_per_kop", "count", "lower"},
	{"converse.sched_idle_per_op", "count", "lower"},
	{"torus.inject_poll_ns", "ns", "lower"},
	{"transport.faulty_hop_ns", "ns", "lower"},
	{"transport.injected_per_op", "count", "lower"},
	{"pami.send_dispatch_ns", "ns", "lower"},
	{"pami.send_dispatch_armed_ns", "ns", "lower"},
	{"pami.crc_ns", "ns", "lower"},
	{"pami.acks_per_op", "count", "lower"},
	{"pami.retries_per_op", "count", "lower"},
	{"pami.armed_tax_ratio", "ratio", "lower"},
	{"flowctl.acquire_release_ns", "ns", "lower"},
	{"flowctl.blocked_per_kop", "count", "lower"},
	{"aggregate.append_ns", "ns", "lower"},
	{"aggregate.single_flush_ns", "ns", "lower"},
	{"aggregate.msgs_per_batch", "count", "higher"},
	{"aggregate.flush_idle_share", "ratio", "lower"},
	{"aggregate.flush_timer_share", "ratio", "lower"},
	{"converse.send_call_ns_p50", "ns", "lower"},
	{"converse.handler_ns_p50", "ns", "lower"},
	{"converse.deliver_ns_p50", "ns", "lower"},
	{"converse.sends_local_per_op", "count", "lower"},
	{"converse.sends_remote_per_op", "count", "lower"},
	{"converse.hop_intra_bare_ns", "ns", "lower"},
	{"converse.hop_inter_bare_ns", "ns", "lower"},
	{"converse.build_first_reply_us", "us", "lower"},
	{"charm.hop_overhead_ns", "ns", "lower"},
	{"charm.reduce_bcast_ns_per_elem", "ns", "lower"},
	{"charm.msgs_per_op", "count", "lower"},
	{"charm.entries_per_op", "count", "lower"},
	{"lb.idle_tax_ratio", "ratio", "lower"},
	{"ft.idle_tax_ratio", "ratio", "lower"},
	{"m2m.burst_ns_per_msg", "ns", "lower"},
	{"m2m.msgs_per_iter", "count", "lower"},
	{"fft.line16_ns", "ns", "lower"},
	{"fft.line16_allocs", "count", "lower"},
	{"fft3d.serial_ns", "ns", "lower"},
	{"fft3d.parallel_efficiency", "ratio", "higher"},
	{"md.nonbonded_ns", "ns", "lower"},
	{"pme.recip_ns", "ns", "lower"},
	{"mdsim.build_ms", "ms", "lower"},
	{"mdsim.serial_step_ns", "ns", "lower"},
	{"mdsim.parallel_efficiency", "ratio", "higher"},
	{"bench.samples", "count", "higher"},
	{"bench.op_ns_p99", "ns", "lower"},
	{"bench.cpu_ns_per_op", "ns", "lower"},
	{"bench.allocs_per_op", "count", "lower"},
	{"bench.alloc_bytes_per_op", "B", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.unaccounted_ns_per_op", "ns", "lower"},
}

// obsCounts flattens the obs registry to "subsystem/name" → value (the
// count, for histograms).
func obsCounts() map[string]float64 {
	out := make(map[string]float64)
	for _, ms := range obs.Default.Snapshot(obs.SnapshotOptions{}).Metrics {
		v := ms.Value
		if ms.Kind == obs.KindHistogram {
			v = ms.Count
		}
		out[ms.Subsystem+"/"+ms.Name] = float64(v)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles the per-layer metrics of one workload from the
// traced run (counts, spans, samples), the untraced reference run of the
// same invocation (trace overhead) and the rungs.
func layerMetrics(w *workload, ref, traced *outcome, tr *tracer, counts map[string]float64, rungs map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for name, v := range rungs {
		out[name] = v
	}
	ops := float64(traced.m.totalOps())
	per := func(key string) float64 { return ratio(counts[key], ops) }
	p50 := median(traced.m.samples)
	refP50 := median(ref.m.samples)
	lc := traced.counts

	out["lockless.enq_per_op"] = per("lockless/enqueue_total")
	out["lockless.spill_share"] = ratio(counts["lockless/overflow_spill_total"], counts["lockless/enqueue_total"])
	out["mempool.env_hit_ratio"] = ratio(counts["mempool/env_hit_total"], counts["mempool/env_hit_total"]+counts["mempool/env_miss_total"])
	out["mempool.env_remote_free_share"] = ratio(counts["mempool/env_remote_free_total"],
		counts["mempool/env_local_free_total"]+counts["mempool/env_remote_free_total"]+counts["mempool/env_heap_free_total"])
	out["converse.sched_block_per_kop"] = 1000 * per("converse/sched_block_total")
	out["converse.sched_idle_per_op"] = per("converse/sched_idle_total")
	out["converse.sends_local_per_op"] = per("converse/send_local_total")
	out["converse.sends_remote_per_op"] = per("converse/send_remote_total")
	out["converse.deliver_ns_p50"] = float64(converse.DeliverLatencyQuantile(0.5))
	out["charm.msgs_per_op"] = per("charm/messages_sent_total")
	out["charm.entries_per_op"] = per("charm/entry_invocations_total")

	out["transport.injected_per_op"] = ratio(float64(lc.injected), ops)
	out["pami.acks_per_op"] = ratio(float64(lc.acks), ops)
	out["pami.retries_per_op"] = ratio(float64(lc.retries), ops)
	out["flowctl.blocked_per_kop"] = 1000 * ratio(float64(lc.blocked), ops)
	out["aggregate.msgs_per_batch"] = ratio(float64(lc.batchMsgs), float64(lc.batches))
	out["aggregate.flush_idle_share"] = ratio(float64(lc.flushIdle), float64(lc.batches))
	out["aggregate.flush_timer_share"] = ratio(float64(lc.flushTimer), float64(lc.batches))

	out["converse.send_call_ns_p50"], out["converse.handler_ns_p50"] = spanStats(tr.spans())

	// Ratios against this workload's own untraced median (the reference
	// run of this invocation, so both sides saw the same host).
	out["pami.armed_tax_ratio"] = 0
	out["fft3d.parallel_efficiency"] = 0
	out["mdsim.parallel_efficiency"] = 0
	out["m2m.msgs_per_iter"] = 0
	switch w.name {
	case "pingpong_inter_armed":
		out["pami.armed_tax_ratio"] = ratio(refP50, rungs["converse.hop_inter_bare_ns"])
	case "fft3d_m2m":
		out["fft3d.parallel_efficiency"] = ratio(rungs["fft3d.serial_ns"], 2*refP50)
	case "md_step":
		out["mdsim.parallel_efficiency"] = ratio(rungs["mdsim.serial_step_ns"], 2*refP50)
		out["mdsim.build_ms"] = lc.buildMS
	}
	if w.name == "fft3d_m2m" || w.name == "md_step" {
		// m2m bursts ride converse directly; charm counts its own sends.
		out["m2m.msgs_per_iter"] = per("converse/send_local_total") + per("converse/send_remote_total") - per("charm/messages_sent_total")
	}

	out["bench.samples"] = float64(len(ref.m.samples))
	out["bench.op_ns_p99"] = percentile(ref.m.samples, tailQuantile(len(ref.m.samples)))
	out["bench.cpu_ns_per_op"] = ref.m.cpuPerOp()
	refOps := float64(ref.m.totalOps())
	objects, bytes := ref.m.mallocs()
	out["bench.allocs_per_op"] = ratio(float64(objects), refOps)
	out["bench.alloc_bytes_per_op"] = ratio(float64(bytes), refOps)
	out["bench.trace_overhead_ratio"] = ratio(p50, refP50)
	out["bench.unaccounted_ns_per_op"] = refP50 - accounted(w.name, out)
	return out
}

// accounted is Σ calls-per-op × rung for one workload: the part of the
// untraced op_ns_p50 the ladder explains. What is left (scheduler loop,
// handler bodies, cache-line transfers between the two cores, waiting) is
// reported as bench.unaccounted_ns_per_op. The per-op call counts come
// from the traced run's counters. README.md spells the model out.
func accounted(workload string, v map[string]float64) float64 {
	sends := v["converse.sends_local_per_op"] + v["converse.sends_remote_per_op"]
	// Every converse message takes one envelope from a pool and gives it
	// back, and passes through one scheduler queue.
	msg := sends * (v["mempool.env_get_put_ns"] + v["lockless.enq_deq_ns"])
	wake := v["converse.sched_block_per_kop"] / 1000 * v["wakeup.signal_wake_ns"]
	switch workload {
	case "pingpong_intra":
		return msg + wake
	case "pingpong_inter_armed":
		// One batch per message: the whole armed PAMI round trip, one
		// credit and one single-message flush per hop.
		return msg + wake + v["pami.send_dispatch_armed_ns"] + v["flowctl.acquire_release_ns"] + v["aggregate.single_flush_ns"]
	case "stream_inter_armed":
		batches := ratio(1, v["aggregate.msgs_per_batch"])
		return sends*(v["mempool.env_get_put_ns"]+v["lockless.enq_batch_ns_per_msg"]+v["aggregate.append_ns"]+v["flowctl.acquire_release_ns"]) +
			batches*v["pami.send_dispatch_armed_ns"] + wake
	case "charm_stencil":
		return msg + wake + v["charm.msgs_per_op"]*v["charm.hop_overhead_ns"] + v["converse.sends_remote_per_op"]*v["pami.send_dispatch_ns"]
	case "fft3d_m2m":
		// 3 dimensions × 16² lines × forward and backward, split over 2 PEs.
		lines := 3.0 * fftN * fftN * 2 / 2
		return lines*v["fft.line16_ns"] + v["m2m.msgs_per_iter"]/2*v["m2m.burst_ns_per_msg"]
	case "md_step":
		// Serial kernels split over 2 PEs; reciprocal space every 4th step.
		return (v["md.nonbonded_ns"] + v["pme.recip_ns"]/4) / 2
	}
	return 0
}
