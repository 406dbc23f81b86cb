package core

import (
	"reflect"
	"testing"

	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// TestProbeLifecycleMetrics: a successful HTTP probe must populate the
// RTT histogram, the phase-duration histograms along the Figure-1 path
// (SYN sent → SYN-ACK → retransmit seen → verify release), the
// lifetime histogram, and the success outcome counter.
func TestProbeLifecycleMetrics(t *testing.T) {
	e := newEnv(t, linuxIW(10))
	e.host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 8000}))
	tr := e.probe(t, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1})
	if tr.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s", tr.Outcome)
	}

	reg := e.net.Metrics()
	rtt := reg.Histogram("core.rtt_ns").Value()
	if rtt.Count == 0 {
		t.Fatal("RTT histogram empty")
	}
	// One-way delay is 10 ms, so every RTT is exactly 20 ms of virtual
	// time.
	if want := int64(20 * netsim.Millisecond); rtt.Min != want || rtt.Max != want {
		t.Fatalf("RTT min/max = %d/%d, want %d", rtt.Min, rtt.Max, want)
	}

	for _, name := range []string{
		"core.probe.phase.syn_sent_to_syn_ack_ns",
		"core.probe.phase.syn_ack_to_retransmit_seen_ns",
		"core.probe.phase.retransmit_seen_to_burst_collected_ns",
		"core.probe.phase.burst_collected_to_verify_release_ns",
		"core.probe.lifetime_ns",
	} {
		if v := reg.Histogram(name).Value(); v.Count == 0 {
			t.Fatalf("phase histogram %s empty", name)
		}
	}
	if got := reg.Counter("core.probe.outcome.success").Value(); got == 0 {
		t.Fatal("success outcome counter empty")
	}
	// The Stats view reads exactly these registry counters.
	st := e.scan.Stats()
	if v := reg.Counter("core.probes_started").Value(); v != st.ProbesStarted {
		t.Fatalf("probes_started counter %d != struct %d", v, st.ProbesStarted)
	}
	if v := reg.Counter("core.synacks").Value(); v != st.SynAcks || st.SynAcks == 0 {
		t.Fatalf("synacks counter %d != struct %d", v, st.SynAcks)
	}
	if v := reg.Counter("core.retransmits").Value(); v != st.Retransmits {
		t.Fatalf("retransmits counter %d != struct %d", v, st.Retransmits)
	}
}

// TestProbeLifecycleOutcomeTaxa: failure classes land in distinct
// outcome counters with their refinement suffix.
func TestProbeLifecycleOutcomeTaxa(t *testing.T) {
	// No listener on the target network at all: SYN times out.
	n := netsim.New(7)
	n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond})
	sc := NewScanner(n, scanAddr, Config{Seed: 1})
	var got *TargetResult
	sc.ProbeTarget(hostAddr, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1},
		func(tr *TargetResult) { got = tr })
	n.RunUntilIdle()
	if got == nil || got.Outcome != OutcomeUnreachable {
		t.Fatalf("result = %+v", got)
	}
	if v := n.Metrics().Counter("core.probe.outcome.unreachable:syn-timeout").Value(); v == 0 {
		t.Fatal("syn-timeout taxon not counted")
	}

	// A host with a closed port: RST refuses the handshake.
	e := newEnv(t, linuxIW(10))
	_ = e.probe(t, TargetConfig{Strategy: StrategyHTTP, Port: 81, MSSList: []int{64}, Repeats: 1})
	if v := e.net.Metrics().Counter("core.probe.outcome.unreachable:refused").Value(); v == 0 {
		t.Fatal("refused taxon not counted")
	}
}

// phaseRecorder is a FlightSink fake that keeps every phase transition.
type phaseRecorder struct {
	phases  []string
	at      []netsim.Time
	targets []wire.Addr
}

func (r *phaseRecorder) ProbePhase(at netsim.Time, target wire.Addr, phase string) {
	r.phases = append(r.phases, phase)
	r.at = append(r.at, at)
	r.targets = append(r.targets, target)
}
func (r *phaseRecorder) ProbeSegment(netsim.Time, wire.Addr, int, int, string)  {}
func (r *phaseRecorder) ProbeStep(netsim.Time, wire.Addr, string, int64, int64) {}

// probeRecorded runs one successful single-connection HTTP probe with
// a phaseRecorder armed as the flight sink.
func probeRecorded(t *testing.T) (*env, *phaseRecorder) {
	t.Helper()
	e := newEnv(t, linuxIW(4))
	rec := &phaseRecorder{}
	e.scan.SetFlight(rec)
	e.host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 8000}))
	tr := e.probe(t, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1})
	if tr.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s", tr.Outcome)
	}
	return e, rec
}

var wantPhases = []string{"syn_sent", "syn_ack", "retransmit_seen", "burst_collected", "verify_release", "done:success"}

// TestProbeTraceRetention: the flight sink retains the probe's whole
// Figure-1 lifecycle — every phase, in order, for the probed target,
// with monotonic timestamps, closed by its outcome taxon.
func TestProbeTraceRetention(t *testing.T) {
	_, rec := probeRecorded(t)
	if !reflect.DeepEqual(rec.phases, wantPhases) {
		t.Fatalf("phases = %v, want %v", rec.phases, wantPhases)
	}
	for i := range rec.at {
		if rec.targets[i] != hostAddr {
			t.Fatalf("phase %s recorded for %v, want %v", rec.phases[i], rec.targets[i], hostAddr)
		}
		if i > 0 && rec.at[i] < rec.at[i-1] {
			t.Fatalf("phase %s at %v precedes %s at %v", rec.phases[i], rec.at[i], rec.phases[i-1], rec.at[i-1])
		}
	}
}

// TestProbeFlightPhases: each transition's histogram holds exactly the
// gap between the two phases the flight sink saw, and the lifetime
// histogram the span from the SYN to the outcome.
func TestProbeFlightPhases(t *testing.T) {
	e, rec := probeRecorded(t)
	if !reflect.DeepEqual(rec.phases, wantPhases) {
		t.Fatalf("phases = %v, want %v", rec.phases, wantPhases)
	}
	reg := e.net.Metrics()
	for i := 1; i < len(wantPhases)-1; i++ { // done:<taxon> closes the lifetime, not a phase edge
		name := "core.probe.phase." + wantPhases[i-1] + "_to_" + wantPhases[i] + "_ns"
		if h := reg.Histogram(name).Value(); h.Count != 1 || h.Sum != int64(rec.at[i]-rec.at[i-1]) {
			t.Fatalf("%s = %+v, want one observation of %d", name, h, rec.at[i]-rec.at[i-1])
		}
	}
	life := reg.Histogram("core.probe.lifetime_ns").Value()
	if span := int64(rec.at[len(rec.at)-1] - rec.at[0]); life.Count != 1 || life.Sum != span {
		t.Fatalf("lifetime = %+v, want one observation of %d", life, span)
	}
}

// TestDuplicationCounted: path duplication shows up in the new netsim
// counter instead of silently inflating PacketsDelivered.
func TestDuplicationCounted(t *testing.T) {
	e := newEnv(t, linuxIW(10))
	e.net.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Duplicate: 1})
	e.host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 8000}))
	_ = e.probe(t, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1})
	st := e.net.Stats()
	if st.PacketsDuplicated == 0 {
		t.Fatal("duplicates not counted")
	}
	if st.PacketsDelivered != st.PacketsSent+st.PacketsDuplicated {
		t.Fatalf("delivered %d != sent %d + duplicated %d",
			st.PacketsDelivered, st.PacketsSent, st.PacketsDuplicated)
	}
	if v := e.net.Metrics().Counter("netsim.packets_duplicated").Value(); v != st.PacketsDuplicated {
		t.Fatalf("registry duplicated %d != struct %d", v, st.PacketsDuplicated)
	}
}
