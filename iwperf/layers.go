package main

import (
	"fmt"
	"time"
)

// layerAcc accumulates a traced run: span self times summed over the
// traced passes, the counts the layers report, the offline walk, and
// the control-plane figures of the service workload.
type layerAcc struct {
	tr           tracer
	passes       int
	shards       int           // shards of a traced pass
	parallel     int           // concurrent simulations in the metered work (default: shards)
	tracedWall   time.Duration // sum of traced pass wall times
	untracedWall time.Duration // sum of the paired untraced pass wall times

	walk walkStats

	records, probes, launched, retransmits int64
	events, packetsSent, poolMiss, poolHit int64
	artifactBytes                          int64
	maxPending                             int
	mergeBlocked                           time.Duration
	imbalance                              []float64

	jobs jobAcc
}

// jobAcc accumulates the service workload's per-job control-plane
// figures.
type jobAcc struct {
	n                                 int
	submit, queueWait, segment, fetch time.Duration
	segments, segmentsTimed, events   int64
	recordsEmitted, launched          int64
}

func (la *layerAcc) addScan(out *scanOut, tracers []*tracer, wall time.Duration, artifactBytes int64) {
	la.passes++
	la.shards = len(tracers)
	la.tracedWall += wall
	for _, t := range tracers {
		la.tr.add(t)
	}
	la.records += out.engine.Completed
	la.launched += out.engine.Launched
	la.probes += out.scan.ProbesStarted
	la.retransmits += out.scan.Retransmits
	la.packetsSent += out.net.PacketsSent
	la.events += out.snap.Counters["netsim.events_dispatched"]
	la.poolMiss += out.snap.Counters["netsim.pool_miss"]
	la.poolHit += out.snap.Counters["netsim.packets_pooled"]
	la.artifactBytes += artifactBytes
	if out.maxBuffered > la.maxPending {
		la.maxPending = out.maxBuffered
	}
	for _, w := range out.mergeWaits {
		la.mergeBlocked += time.Duration(w.BlockedNS)
	}
	la.imbalance = append(la.imbalance, shardImbalance(out))
}

func (la *layerAcc) addWalk(ws walkStats) {
	la.walk.slots += ws.slots
	la.walk.kept += ws.kept
	la.walk.wall += ws.wall
}

// check fails the run when the span accounting is inconsistent: a
// negative self time or remainder means spans overlapped.
func (la *layerAcc) check(t *tally) {
	var sum time.Duration
	for l := layer(0); l < numLayers; l++ {
		if la.tr.self[l] < 0 {
			t.fail("traced %s self time is negative", layerNames[l])
		}
		sum += la.tr.self[l]
	}
	if budget := la.tracedWall * time.Duration(max(la.shards, 1)); sum > budget {
		t.fail("traced self times %v exceed the traced wall %v", sum, budget)
	}
	if la.passes == 0 {
		t.fail("no traced pass completed")
	}
}

func ns(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fill writes every per-layer metric. A layer a workload does not
// exercise reads 0 (no merge on a serial scan, no checkpoints on the
// sharded one, no control plane on the censuses).
func (la *layerAcc) fill(out map[string]metric, m *meter) {
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	passes := float64(la.passes)
	shards := la.shards
	if shards < 1 {
		shards = 1
	}
	budget := la.tracedWall * time.Duration(shards)
	var selfSum time.Duration
	for l := layer(0); l < numLayers; l++ {
		selfSum += la.tr.self[l]
	}
	unattributed := budget - selfSum

	put("scanner.slots_per_target", ratio(float64(la.walk.slots), float64(la.walk.kept)), "count")
	put("scanner.walk_ns_per_slot", ns(la.walk.wall, la.walk.slots), "ns")
	put("scanner.walk_share", ratio(la.walk.wall.Seconds(), budget.Seconds()), "fraction")

	put("core.launch_ns_per_target", ns(la.tr.self[layerLaunch], la.tr.count[layerLaunch]), "ns")
	put("core.ns_per_packet", ns(la.tr.self[layerCorePacket], la.tr.count[layerCorePacket]), "ns")
	put("core.probes_per_target", ratio(float64(la.probes), float64(la.launched)), "count")
	put("core.retransmits_per_probe", ratio(float64(la.retransmits), float64(la.probes)), "count")
	put("tcpstack.ns_per_packet", ns(la.tr.self[layerTCPStack], la.tr.count[layerTCPStack]), "ns")
	put("inet.ns_per_host", ns(la.tr.self[layerInet], la.tr.count[layerInet]), "ns")
	put("netsim.self_ns_per_event", ns(la.tr.self[layerNetsim], la.events), "ns")
	put("netsim.events_per_probe", ratio(float64(la.events), float64(la.probes)), "count")
	put("netsim.packets_per_probe", ratio(float64(la.packetsSent), float64(la.probes)), "count")
	put("netsim.pool_miss_frac", ratio(float64(la.poolMiss), float64(la.poolMiss+la.poolHit)), "fraction")
	put("analysis.enrich_ns_per_record", ns(la.tr.self[layerAnalysis], la.tr.count[layerAnalysis]), "ns")
	put("output.write_ns_per_record", ns(la.tr.self[layerOutput], la.records), "ns")
	put("output.bytes_per_record", ratio(float64(la.artifactBytes), float64(la.records)), "B")
	put("output.reorder_max_pending", float64(la.maxPending), "count")
	put("output.merge_blocked_frac", ratio(la.mergeBlocked.Seconds(), la.tracedWall.Seconds()), "fraction")
	put("checkpoint.save_ms", ratio(ms(la.tr.self[layerCheckpoint]), float64(la.tr.count[layerCheckpoint])), "ms")
	put("experiments.shard_imbalance", median(la.imbalance), "ratio")
	parallel := la.parallel
	if parallel < 1 {
		parallel = shards
	}
	put("experiments.cpu_util", ratio(m.total.cpu.Seconds(), m.total.wall.Seconds()*float64(parallel)), "fraction")
	put("runtime.gc_cpu_frac", ratio(m.total.gcCPU, m.total.cpu.Seconds()), "fraction")

	j := &la.jobs
	put("jobs.submit_ms", ratio(ms(j.submit), float64(j.n)), "ms")
	put("jobs.queue_wait_ms", ratio(ms(j.queueWait), float64(j.n)), "ms")
	put("jobs.segments_per_job", ratio(float64(j.segments), float64(j.n)), "count")
	put("jobs.segment_ms", ratio(ms(j.segment), float64(j.segmentsTimed)), "ms")
	put("jobs.launch_efficiency", ratio(float64(j.recordsEmitted), float64(j.launched)), "fraction")
	put("jobs.artifact_fetch_ms", ratio(ms(j.fetch), float64(j.n)), "ms")
	put("events.per_job", ratio(float64(j.events), float64(j.n)), "count")

	// Self-time breakdown per traced pass. For a sharded pass the budget
	// is wall time x shards: each shard's goroutine carries its own spans.
	for l := layer(0); l < numLayers; l++ {
		put(selfName(l), ratio(ms(la.tr.self[l]), passes), "ms")
	}
	put("trace.unattributed_ms", ratio(ms(unattributed), passes), "ms")
	put("trace.wall_ms", ratio(ms(budget), passes), "ms")
	put("trace_overhead", ratio(la.tracedWall.Seconds(), la.untracedWall.Seconds())-1, "fraction")

	fmt.Printf("# traced passes: %d x %d shard(s); self times + unattributed = %.3f ms = traced wall %.3f ms per pass\n",
		la.passes, shards, ratio(ms(selfSum+unattributed), passes), ratio(ms(budget), passes))
}

func selfName(l layer) string {
	switch l {
	case layerLaunch:
		return "core.launch_self_ms"
	case layerCorePacket:
		return "core.packet_self_ms"
	}
	return layerNames[l] + ".self_ms"
}
