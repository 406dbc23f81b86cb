package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"iwscan/internal/analysis"
	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/scanner"
	"iwscan/internal/wire"
)

// layer names one span kind of the traced run.
type layer int

const (
	layerNetsim     layer = iota // RunUntilIdle minus every span below
	layerLaunch                  // core: Scanner.ProbeTarget
	layerCorePacket              // core: the scanner node's HandlePacket
	layerTCPStack                // tcpstack (+httpsim/tlssim): host HandlePacket
	layerInet                    // inet: Universe.CreateHost
	layerAnalysis                // analysis: FromTarget + ASOf + ReverseDNS
	layerOutput                  // output: Reorder.Add into the sink, final flush
	layerCheckpoint              // checkpoint: state build + checkpoint.Save
	numLayers
)

var layerNames = [numLayers]string{
	"netsim", "core.launch", "core.packet", "tcpstack", "inet", "analysis", "output", "checkpoint",
}

// tracer keeps a span stack for one simulation goroutine. A span's self
// time is its duration minus the time its child spans cover, so the
// self times of every span never overlap and sum to at most the traced
// wall time.
type tracer struct {
	base  time.Time
	stack []frame
	self  [numLayers]time.Duration
	count [numLayers]int64
}

type frame struct {
	l     layer
	start time.Duration
	child time.Duration
}

func newTracer() *tracer { return &tracer{base: time.Now(), stack: make([]frame, 0, 16)} }

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: time.Since(t.base)})
}

func (t *tracer) end() {
	now := time.Since(t.base)
	k := len(t.stack) - 1
	f := t.stack[k]
	t.stack = t.stack[:k]
	d := now - f.start
	t.self[f.l] += d - f.child
	t.count[f.l]++
	if k > 0 {
		t.stack[k-1].child += d
	}
}

func (t *tracer) add(o *tracer) {
	for i := range t.self {
		t.self[i] += o.self[i]
		t.count[i] += o.count[i]
	}
}

// timedNode times a netsim node's HandlePacket as one span.
type timedNode struct {
	inner netsim.Node
	tr    *tracer
	l     layer
}

func (w *timedNode) HandlePacket(pkt []byte) {
	w.tr.begin(w.l)
	w.inner.HandlePacket(pkt)
	w.tr.end()
}

// timedFactory times Universe.CreateHost and wraps every host it
// materializes so the host stack's packet handling is timed too.
type timedFactory struct {
	u  *inet.Universe
	tr *tracer
}

func (f *timedFactory) CreateHost(n *netsim.Network, addr wire.Addr) netsim.Node {
	f.tr.begin(layerInet)
	node := f.u.CreateHost(n, addr)
	f.tr.end()
	if node == nil {
		return nil
	}
	return &timedNode{inner: node, tr: f.tr, l: layerTCPStack}
}

// scanOut is what one traced scan pass reports.
type scanOut struct {
	engine      scanner.Stats
	shards      []scanner.Stats
	net         netsim.Counters
	scan        core.Counters
	snap        metrics.Snapshot
	maxBuffered int
	mergeWaits  []output.ShardWait
	shardWall   []time.Duration
}

// withDefaults applies the defaults experiments.ScanConfig documents,
// so the traced driver configures the engine exactly as RunScanChecked
// does.
func withDefaults(cfg experiments.ScanConfig) experiments.ScanConfig {
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = 1
	}
	if cfg.Rate == 0 {
		cfg.Rate = 10000
	}
	if cfg.MaxOutstanding == 0 {
		cfg.MaxOutstanding = 20000
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	cfg.Shard %= cfg.Shards
	return cfg
}

// tracedScan is experiments.RunScanChecked re-assembled from the same
// public parts, for the options the workloads use (path, sink,
// periodic checkpoints, retries, smart plan), with a span at every
// layer boundary. It must write the same bytes as the untraced entry
// point; the caller rejects its layer numbers when it does not.
func tracedScan(u *inet.Universe, cfg experiments.ScanConfig, tr *tracer) (*scanOut, error) {
	cfg = withDefaults(cfg)
	if cfg.Resume != nil || cfg.TimeLimit > 0 || len(cfg.Hitlist) > 0 || len(cfg.Filters) > 0 ||
		len(cfg.FilterFactories) > 0 || cfg.Flight != nil || cfg.Sink == nil {
		return nil, fmt.Errorf("traced driver: unsupported scan option")
	}
	n := netsim.New(cfg.Seed)
	if cfg.Path != nil {
		n.SetPath(*cfg.Path)
	} else {
		n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond, Loss: cfg.Loss})
	}
	n.SetFactory(&timedFactory{u: u, tr: tr})
	sc := core.NewScanner(n, experiments.ScannerAddr, core.Config{Seed: cfg.Seed})
	n.Register(experiments.ScannerAddr, &timedNode{inner: sc, tr: tr, l: layerCorePacket})

	space := scanner.NewSpaceFromPrefixes(u.Prefixes())
	space.AddBlacklist(cfg.Blacklist...)
	fields := cfg.ConfigFields(u)
	fp := checkpoint.FingerprintFields(fields)

	base := cfg.Sink
	reorder := output.NewReorderAt(base, 0)
	var sinkErr error
	keepErr := func(err error) {
		if err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	tc := core.TargetConfig{
		Strategy: cfg.Strategy, MSSList: cfg.MSSList, Repeats: cfg.Repeats,
		NoRedirectFollow: cfg.NoRedirectFollow, NoBloat: cfg.NoBloat,
	}
	var eng *scanner.Engine
	launch := func(addr wire.Addr, done func()) {
		seq, pos := eng.LaunchCursor()
		tr.begin(layerLaunch)
		sc.ProbeTarget(addr, tc, func(t *core.TargetResult) {
			if t.Outcome == core.OutcomeUnreachable && eng.Fail(seq) {
				return
			}
			tr.begin(layerAnalysis)
			rec := analysis.FromTarget(t)
			if as := u.ASOf(t.Addr); as != nil {
				rec.ASN = as.ASN
				rec.ASName = as.Name
			}
			rec.RDNS = u.ReverseDNS(t.Addr)
			rec.Seq = pos
			tr.end()
			tr.begin(layerOutput)
			keepErr(reorder.Add(seq, &rec))
			tr.end()
			done()
		})
		tr.end()
	}
	eng = scanner.NewEngine(n, space, scanner.Config{
		Rate: cfg.Rate, MaxOutstanding: cfg.MaxOutstanding, Seed: cfg.Seed,
		SampleFraction: cfg.SampleFraction, Shard: cfg.Shard, Shards: cfg.Shards,
		MaxRetries: cfg.MaxRetries, Smart: cfg.Smart,
	}, launch)

	writeCheckpoint := func(complete bool) error {
		tr.begin(layerCheckpoint)
		defer tr.end()
		if err := base.Flush(); err != nil {
			return err
		}
		st := eng.Stats()
		ck := &checkpoint.State{
			Fingerprint: fp,
			Config:      fields,
			Completed:   complete,
			VirtualNS:   int64(n.Now()),
			Shards: []checkpoint.ShardState{{
				Shard: cfg.Shard, Shards: cfg.Shards, Cursor: eng.Cursor(),
				Launched: st.Launched, Completed: st.Completed,
				Skipped: st.Skipped, Pruned: st.Pruned, Retries: st.Retries,
			}},
		}
		var buf bytes.Buffer
		if err := n.Metrics().Snapshot().WriteJSON(&buf); err == nil {
			ck.Metrics = buf.Bytes()
		}
		return checkpoint.Save(cfg.CheckpointPath, ck)
	}

	out := &scanOut{}
	finished := false
	var ckTimer *netsim.Timer
	eng.OnFinish(func(s scanner.Stats) {
		finished = true
		out.engine = s
		if ckTimer != nil {
			ckTimer.Cancel()
			ckTimer = nil
		}
	})
	if cfg.CheckpointPath != "" {
		interval := cfg.CheckpointInterval
		if interval <= 0 {
			interval = 10 * netsim.Second
		}
		var tick func()
		tick = func() {
			if finished {
				return
			}
			keepErr(writeCheckpoint(false))
			ckTimer = n.After(interval, tick)
		}
		ckTimer = n.After(interval, tick)
	}
	tr.begin(layerNetsim)
	eng.Start()
	n.RunUntilIdle()
	tr.end()
	if !finished {
		return nil, fmt.Errorf("traced driver: scan did not finish")
	}
	if cfg.CheckpointPath != "" {
		keepErr(writeCheckpoint(true))
	}
	tr.begin(layerOutput)
	keepErr(base.Flush())
	tr.end()
	out.net = n.Stats()
	out.scan = sc.Stats()
	out.snap = n.Metrics().Snapshot()
	out.maxBuffered = reorder.MaxPending()
	return out, sinkErr
}

// tracedParallel is experiments.RunScanParallelChecked re-assembled the
// same way: one traced shard per OS-thread-pinned goroutine, streaming
// through a k-way merge into cfg.Sink. It returns one tracer per shard.
func tracedParallel(u *inet.Universe, cfg experiments.ScanConfig, shards int) (*scanOut, []*tracer, error) {
	if shards <= 1 {
		tr := newTracer()
		out, err := tracedScan(u, cfg, tr)
		return out, []*tracer{tr}, err
	}
	merge, handles := output.NewMerge(cfg.Sink, shards)
	results := make([]*scanOut, shards)
	errs := make([]error, shards)
	tracers := make([]*tracer, shards)
	walls := make([]time.Duration, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := time.Now()
			tr := newTracer()
			c := cfg
			c.Shard, c.Shards = uint64(shard), uint64(shards)
			c.Sink = handles[shard]
			results[shard], errs[shard] = tracedScan(u, c, tr)
			tr.begin(layerOutput)
			if err := handles[shard].Close(); err != nil && errs[shard] == nil {
				errs[shard] = err
			}
			tr.end()
			tracers[shard] = tr
			walls[shard] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	merged := &scanOut{mergeWaits: merge.WaitStats(), shardWall: walls}
	for _, r := range results {
		merged.shards = append(merged.shards, r.engine)
		merged.engine.Launched += r.engine.Launched
		merged.engine.Completed += r.engine.Completed
		merged.engine.Retries += r.engine.Retries
		merged.net.PacketsSent += r.net.PacketsSent
		merged.scan.ProbesStarted += r.scan.ProbesStarted
		merged.scan.Retransmits += r.scan.Retransmits
		merged.snap.Merge(r.snap)
		if r.maxBuffered > merged.maxBuffered {
			merged.maxBuffered = r.maxBuffered
		}
	}
	merged.maxBuffered += merge.MaxPending()
	return merged, tracers, nil
}

// walkStats is the target-generation layer measured offline: the same
// permutation walk, sampler, blacklist and smart-plan decisions the
// engine makes per slot, with no network behind them.
type walkStats struct {
	slots, kept int64
	wall        time.Duration
}

func walkTargets(u *inet.Universe, cfg experiments.ScanConfig, shards int) walkStats {
	cfg = withDefaults(cfg)
	space := scanner.NewSpaceFromPrefixes(u.Prefixes())
	space.AddBlacklist(cfg.Blacklist...)
	var ws walkStats
	start := time.Now()
	for s := 0; s < shards; s++ {
		sampler := scanner.NewSampler(cfg.Seed, cfg.SampleFraction)
		var next func() (uint64, bool)
		if cfg.Smart != nil {
			next = scanner.NewSmartShard(space, cfg.Seed, uint64(s), uint64(shards), cfg.Smart).Next
		} else {
			next = scanner.NewShard(space.Size(), cfg.Seed, uint64(s), uint64(shards)).Next
		}
		for {
			idx, ok := next()
			if !ok {
				break
			}
			if !sampler.Keep(idx) {
				continue
			}
			addr := space.At(idx)
			if space.Blacklisted(addr) {
				continue
			}
			if cfg.Smart != nil && cfg.Smart.Decide(addr) == scanner.SmartPruned {
				continue
			}
			ws.kept++
		}
	}
	ws.wall = time.Since(start)
	// The smart iterator hides its cycle steps: each of its two phases
	// walks the shard's whole cycle, so count one plain cycle and double
	// it (untimed).
	for s := 0; s < shards; s++ {
		sh := scanner.NewShard(space.Size(), cfg.Seed, uint64(s), uint64(shards))
		for _, ok := sh.Next(); ok; _, ok = sh.Next() {
			ws.slots++
		}
	}
	if cfg.Smart != nil {
		ws.slots *= 2
	}
	return ws
}

// shardImbalance is the max over min per-shard launch rate.
func shardImbalance(out *scanOut) float64 {
	if len(out.shardWall) < 2 {
		return 1
	}
	rates := make([]float64, 0, len(out.shardWall))
	for i, w := range out.shardWall {
		rates = append(rates, ratio(float64(out.shards[i].Launched), w.Seconds()))
	}
	sort.Float64s(rates)
	return ratio(rates[len(rates)-1], rates[0])
}
