package experiments

import (
	"reflect"
	"testing"

	"iwscan/internal/core"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/scanner"
)

// resultCounters pairs every counter field of ScanResult.Net, .Scan and
// .Engine with the registry counter that must hold the same count. The
// table is written out here rather than taken from the layers' own
// mappings, so a wrong name on either side fails the test.
func resultCounters(r *ScanResult) map[string]int64 {
	return map[string]int64{
		"netsim.packets_sent":       r.Net.PacketsSent,
		"netsim.packets_delivered":  r.Net.PacketsDelivered,
		"netsim.packets_duplicated": r.Net.PacketsDuplicated,
		"netsim.packets_reordered":  r.Net.PacketsReordered,
		"netsim.packets_lost":       r.Net.PacketsLost,
		"netsim.packets_filtered":   r.Net.PacketsFiltered,
		"netsim.packets_noroute":    r.Net.PacketsNoRoute,
		"netsim.packets_mtu_drop":   r.Net.PacketsMTUDrop,
		"netsim.packets_queue_drop": r.Net.PacketsQueueDrop,
		"netsim.bytes_sent":         r.Net.BytesSent,
		"netsim.bytes_delivered":    r.Net.BytesDelivered,
		"core.probes_started":       r.Scan.ProbesStarted,
		"core.synacks":              r.Scan.SynAcks,
		"core.packets_sent":         r.Scan.PacketsSent,
		"core.packets_rcvd":         r.Scan.PacketsRcvd,
		"core.retransmits":          r.Scan.Retransmits,
		"core.verify_releases":      r.Scan.VerifyReleases,
		"engine.launched":           r.Engine.Launched,
		"engine.completed":          r.Engine.Completed,
		"engine.skipped":            r.Engine.Skipped,
		"engine.pruned":             r.Engine.Pruned,
		"engine.retries":            r.Engine.Retries,
	}
}

// TestScanResultCountersMatchMetrics: in serial and sharded scans, each
// counter field of the result equals its entry in the result's metrics
// snapshot, and a sharded smart scan's merged Pruned is the sum over
// its shards.
func TestScanResultCountersMatchMetrics(t *testing.T) {
	// Adding a counter field to a layer must extend resultCounters.
	fields := reflect.TypeOf(netsim.Counters{}).NumField() + reflect.TypeOf(core.Counters{}).NumField() +
		reflect.TypeOf(scanner.Stats{}).NumField() - 3 // StartedAt, FinishedAt, MaxInFlight
	if n := len(resultCounters(&ScanResult{})); n != fields {
		t.Fatalf("resultCounters covers %d fields, the result types have %d", n, fields)
	}

	u := inet.NewInternet2017(2017)
	check := func(name string, res *ScanResult) {
		t.Helper()
		for counter, field := range resultCounters(res) {
			got, ok := res.Metrics.Counters[counter]
			if !ok {
				t.Errorf("%s: metrics snapshot has no %s", name, counter)
			} else if got != field {
				t.Errorf("%s: %s = %d in the snapshot, %d in the result", name, counter, got, field)
			}
		}
		if res.Engine.Launched == 0 || res.Scan.SynAcks == 0 {
			t.Errorf("%s: scan launched %d probes with %d SYN-ACKs; nothing was measured",
				name, res.Engine.Launched, res.Scan.SynAcks)
		}
	}

	serial, err := RunScanChecked(u, ScanConfig{
		Seed: 4, Strategy: core.StrategyHTTP, SampleFraction: 0.002,
		Rate: 10000, MSSList: []int{64}, Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("serial", serial)

	lossy, err := RunScanParallelChecked(u, ScanConfig{
		Seed: 6, Strategy: core.StrategyTLS, SampleFraction: 0.002,
		Rate: 10000, MSSList: []int{64}, Repeats: 1, MaxRetries: 2,
		Path: &netsim.PathParams{
			Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond,
			Loss: 0.02, Reorder: 0.02, Duplicate: 0.01,
		},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("4-shard lossy TLS", lossy)
	if lossy.Net.PacketsLost == 0 || lossy.Engine.Retries == 0 {
		t.Errorf("lossy scan lost %d packets and retried %d probes; the path is not lossy",
			lossy.Net.PacketsLost, lossy.Engine.Retries)
	}

	_, plan := trainPlan(t, u, 0.01)
	cfg := smartBaseCfg()
	cfg.Rate = 10000
	cfg.Smart = plan
	smart, err := RunScanParallelChecked(u, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("4-shard smart", smart)
	var shardPruned int64
	for _, st := range smart.ShardEngines {
		shardPruned += st.Pruned
	}
	if smart.Engine.Pruned == 0 || smart.Engine.Pruned != shardPruned {
		t.Errorf("merged Pruned = %d, shards sum to %d", smart.Engine.Pruned, shardPruned)
	}
}
