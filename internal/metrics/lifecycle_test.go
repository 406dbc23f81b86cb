package metrics_test

import (
	"reflect"
	"sort"
	"testing"

	"iwscan/internal/core"
	"iwscan/internal/httpsim"
	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/tcpstack"
	"iwscan/internal/wire"
)

// TestTracerLifecycle: probe lifecycles, driven end to end through the
// core scanner, aggregate in the network's registry. Each probe adds
// one observation to every phase-edge histogram it crossed, one
// lifetime observation no shorter than those edges together, and one
// outcome count; the handles are created on the first probe, so a
// second probe adds no key to the snapshot.
func TestTracerLifecycle(t *testing.T) {
	scanAddr := wire.MustParseAddr("192.0.2.1")
	hostAddr := wire.MustParseAddr("198.51.100.10")
	n := netsim.New(11)
	n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond})
	sc := core.NewScanner(n, scanAddr, core.Config{Seed: 42})
	host := tcpstack.NewHost(n, hostAddr, tcpstack.Config{
		IW:  tcpstack.IWPolicy{Kind: tcpstack.IWSegments, Segments: 4},
		MSS: tcpstack.MSSPolicy{Floor: 64},
	})
	host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 8000}))

	edges := []string{
		"core.probe.phase.syn_sent_to_syn_ack_ns",
		"core.probe.phase.syn_ack_to_retransmit_seen_ns",
		"core.probe.phase.retransmit_seen_to_burst_collected_ns",
		"core.probe.phase.burst_collected_to_verify_release_ns",
	}
	var keys []string
	for probes := int64(1); probes <= 2; probes++ {
		var got *core.TargetResult
		sc.ProbeTarget(hostAddr, core.TargetConfig{Strategy: core.StrategyHTTP, MSSList: []int{64}, Repeats: 1},
			func(tr *core.TargetResult) { got = tr })
		n.RunUntilIdle()
		if got == nil || got.Outcome != core.OutcomeSuccess {
			t.Fatalf("probe %d: result = %+v", probes, got)
		}

		snap := n.Metrics().Snapshot()
		if v := snap.CounterValue("core.probe.outcome.success"); v != probes {
			t.Fatalf("probe %d: outcome counter = %d", probes, v)
		}
		var edgeSum int64
		for _, name := range edges {
			h, ok := snap.Histograms[name]
			if !ok || h.Count != probes {
				t.Fatalf("probe %d: %s = %+v (present %v)", probes, name, h, ok)
			}
			edgeSum += h.Sum
		}
		if rtt := snap.Histograms[edges[0]].Min; rtt < int64(20*netsim.Millisecond) {
			t.Fatalf("probe %d: SYN to SYN-ACK %d ns is shorter than the path RTT", probes, rtt)
		}
		life := snap.Histograms["core.probe.lifetime_ns"]
		if life.Count != probes || life.Sum < edgeSum {
			t.Fatalf("probe %d: lifetime = %+v, edges sum to %d", probes, life, edgeSum)
		}

		k := snapshotKeys(snap)
		if keys != nil && !reflect.DeepEqual(k, keys) {
			t.Fatalf("second probe changed the key set:\n%v\nwant\n%v", k, keys)
		}
		keys = k
	}
}

func snapshotKeys(s metrics.Snapshot) []string {
	var k []string
	for name := range s.Counters {
		k = append(k, "c "+name)
	}
	for name := range s.Gauges {
		k = append(k, "g "+name)
	}
	for name := range s.Histograms {
		k = append(k, "h "+name)
	}
	sort.Strings(k)
	return k
}
