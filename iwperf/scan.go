package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"iwscan/internal/analysis"
	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
)

// universeSeed fixes the simulated Internet for every workload: the
// workload seed moves scan seeds only.
const universeSeed = 2017

// minHostsFound is iwbench's smart-rescan gate: a rescan must re-find
// at least this share of the training census's responsive hosts.
const minHostsFound = 0.95

// scanBench is a census or rescan workload: repeated identical passes
// through experiments.RunScanParallelChecked (which is RunScanChecked
// for one shard) into an IWB1 file.
type scanBench struct {
	dir        string
	u          *inet.Universe
	cfg        experiments.ScanConfig // Sink and CheckpointPath are set per pass
	shards     int
	checkpoint bool     // periodic checkpoints next to the artifact
	ref        [32]byte // SHA-256 every pass's artifact must have
	trainHosts int      // rescan_smart: responsive hosts of the training census
}

func setupCensusHTTP(dir string, seed uint64) (bench, error) {
	b := &scanBench{
		dir: dir, u: inet.NewInternet2017(universeSeed), shards: 1, checkpoint: true,
		cfg: experiments.ScanConfig{
			Seed: 1000 + seed, Strategy: core.StrategyHTTP, SampleFraction: 0.02,
			MSSList: []int{64, 128}, Repeats: 3,
			CheckpointInterval: netsim.Second,
		},
	}
	return b, b.reference()
}

func setupCensusTLSLossy(dir string, seed uint64) (bench, error) {
	b := &scanBench{
		dir: dir, u: inet.NewInternet2017(universeSeed), shards: 2,
		cfg: experiments.ScanConfig{
			Seed: 2000 + seed, Strategy: core.StrategyTLS, SampleFraction: 0.03,
			MSSList: []int{64, 128}, Repeats: 3, MaxRetries: 2,
			Path: &netsim.PathParams{
				Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond,
				Loss: 0.02, Reorder: 0.02, Duplicate: 0.01,
			},
		},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Reference: each shard of the same config run alone, one after the
	// other, its records ordered by permutation position. The merged
	// stream of the concurrent shards must equal it byte for byte.
	var recs []analysis.Record
	for s := 0; s < b.shards; s++ {
		c := b.cfg
		c.Shard, c.Shards = uint64(s), uint64(b.shards)
		res, err := experiments.RunScanChecked(b.u, c)
		if err != nil {
			return nil, err
		}
		recs = append(recs, res.Records...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	var buf bytes.Buffer
	sink := output.NewBinarySink(&buf)
	if err := output.WriteAll(sink, recs); err != nil {
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	b.ref = sha256.Sum256(buf.Bytes())
	return b, nil
}

func setupRescanSmart(dir string, seed uint64) (bench, error) {
	b := &scanBench{
		dir: dir, u: inet.NewInternet2017(universeSeed), shards: 1,
		cfg: experiments.ScanConfig{
			Seed: 3000 + seed, Strategy: core.StrategyHTTP, SampleFraction: 0.01,
			MSSList: []int{64}, Repeats: 1,
		},
	}
	// Train the plan on a 1% census of the same seed and sample, as
	// iwbench's smart workload does.
	train, err := experiments.RunScanChecked(b.u, b.cfg)
	if err != nil {
		return nil, err
	}
	model := prefixtree.New()
	model.ObserveRecords(train.Records)
	b.cfg.Smart = prefixtree.NewPlan(model, prefixtree.PlanConfig{Threshold: 0.01, Seed: b.cfg.Seed})
	b.trainHosts = len(prefixtree.Hitlist(train.Records))
	return b, b.reference()
}

// reference runs one pass and adopts its artifact digest after the
// pass's other checks hold.
func (b *scanBench) reference() error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	p, err := b.pass(nil)
	if err != nil {
		return err
	}
	b.ref = sha256.Sum256(p.data)
	_, err = b.check(p, false)
	return err
}

type passOut struct {
	res     *experiments.ScanResult
	latency time.Duration
	data    []byte
}

func (b *scanBench) paths(tag string) (art, ck string) {
	return filepath.Join(b.dir, tag+".iwb"), filepath.Join(b.dir, tag+".ck")
}

// pass runs one untraced pass through the public entry point, metering
// the call plus closing the artifact; reading the artifact back for
// the checks happens outside the meter.
func (b *scanBench) pass(m *meter) (*passOut, error) {
	art, ck := b.paths("pass")
	f, err := os.Create(art)
	if err != nil {
		return nil, err
	}
	sink, err := output.NewFileSink(f, "bin", false)
	if err != nil {
		f.Close()
		return nil, err
	}
	cfg := b.cfg
	cfg.Sink = sink
	if b.checkpoint {
		cfg.CheckpointPath = ck
	}
	if m != nil {
		m.begin()
	}
	start := time.Now()
	res, runErr := experiments.RunScanParallelChecked(b.u, cfg, b.shards)
	if err := sink.Close(); runErr == nil {
		runErr = err
	}
	if err := f.Close(); runErr == nil {
		runErr = err
	}
	lat := time.Since(start)
	if m != nil {
		m.end()
	}
	if runErr != nil {
		return nil, runErr
	}
	data, err := os.ReadFile(art)
	if err != nil {
		return nil, err
	}
	return &passOut{res: res, latency: lat, data: data}, nil
}

// check verifies a pass's artifact: the digest every pass of this run
// must share, a clean IWB1 decode with one record per completed target,
// a completed final checkpoint, and for the smart rescan the share of
// training hosts re-found. It returns the record count.
func (b *scanBench) check(p *passOut, digest bool) (int64, error) {
	if digest && sha256.Sum256(p.data) != b.ref {
		return 0, fmt.Errorf("artifact SHA-256 differs from the run's reference")
	}
	recs, err := output.ReadBinary(bytes.NewReader(p.data))
	if err != nil {
		return 0, fmt.Errorf("artifact does not decode: %w", err)
	}
	if int64(len(recs)) != p.res.Engine.Completed {
		return 0, fmt.Errorf("artifact holds %d records for %d completed targets", len(recs), p.res.Engine.Completed)
	}
	if b.checkpoint {
		_, ck := b.paths("pass")
		st, err := checkpoint.Load(ck)
		if err != nil {
			return 0, fmt.Errorf("final checkpoint: %w", err)
		}
		if !st.Completed {
			return 0, fmt.Errorf("final checkpoint is not marked complete")
		}
	}
	if b.cfg.Smart != nil {
		found := float64(len(prefixtree.Hitlist(recs))) / float64(b.trainHosts)
		if found < minHostsFound {
			return 0, fmt.Errorf("smart rescan re-found %.1f%% of training hosts, want >= %.0f%%",
				100*found, 100*minHostsFound)
		}
	}
	return int64(len(recs)), nil
}

func (b *scanBench) measure(deadline time.Time, m *meter, acc *e2eAcc, t *tally) {
	for time.Now().Before(deadline) {
		p, err := b.pass(m)
		if err != nil {
			t.fail("pass: %v", err)
			continue
		}
		n, err := b.check(p, true)
		if err != nil {
			t.fail("pass check: %v", err)
			continue
		}
		t.ok()
		acc.intervals = append(acc.intervals, interval{
			sample: m.last(), records: n, probes: p.res.Scan.ProbesStarted, jobs: 1,
		})
		acc.latencies = append(acc.latencies, ms(p.latency))
	}
}

// trace alternates an untraced pass with a traced one until the
// deadline. The traced pass's artifact must match the reference (and
// so the untraced pass) byte for byte, or its layer numbers are
// dropped and the run fails.
func (b *scanBench) trace(deadline time.Time, m *meter, la *layerAcc, t *tally) {
	for i := 0; time.Now().Before(deadline) || la.passes == 0; i++ {
		// Alternate which side of the pair runs first, so neither always
		// runs on the other's warm caches.
		var out *scanOut
		var tracers []*tracer
		var wall time.Duration
		var data []byte
		var err error
		if i%2 == 1 {
			if out, tracers, wall, data, err = b.tracedPass(); err != nil {
				t.fail("traced pass: %v", err)
				break
			}
		}
		p, err := b.pass(m)
		if err != nil {
			t.fail("untraced pass: %v", err)
			break
		}
		if _, err := b.check(p, true); err != nil {
			t.fail("untraced pass check: %v", err)
			break
		}
		t.ok()
		if i%2 == 0 {
			if out, tracers, wall, data, err = b.tracedPass(); err != nil {
				t.fail("traced pass: %v", err)
				break
			}
		}
		if sha256.Sum256(data) != b.ref {
			t.fail("traced artifact differs from the untraced one; layer numbers rejected")
			break
		}
		t.ok()
		la.untracedWall += p.latency
		la.addScan(out, tracers, wall, int64(len(data)))
		la.addWalk(walkTargets(b.u, b.cfg, b.shards))
	}
	la.check(t)
}

func (b *scanBench) tracedPass() (*scanOut, []*tracer, time.Duration, []byte, error) {
	art, ck := b.paths("traced")
	f, err := os.Create(art)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	sink, err := output.NewFileSink(f, "bin", false)
	if err != nil {
		f.Close()
		return nil, nil, 0, nil, err
	}
	cfg := b.cfg
	cfg.Sink = sink
	if b.checkpoint {
		cfg.CheckpointPath = ck
	}
	start := time.Now()
	out, tracers, runErr := tracedParallel(b.u, cfg, b.shards)
	if err := sink.Close(); runErr == nil {
		runErr = err
	}
	if err := f.Close(); runErr == nil {
		runErr = err
	}
	wall := time.Since(start)
	if runErr != nil {
		return nil, nil, 0, nil, runErr
	}
	data, err := os.ReadFile(art)
	return out, tracers, wall, data, err
}

func (b *scanBench) close() {}
