package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"iwscan/internal/core"
	"iwscan/internal/events"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/jobs"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
)

// Service settings: cmd/iwserve's defaults (150 kpps budget, two
// concurrent segments, 10 s virtual slices, 5 s SSE heartbeat).
const (
	serviceTenants = 2
	// specsPerTenant is how many job specs (scan seeds) each tenant
	// cycles through. One job's work depends on its seed by up to ~15%
	// (how many targets answer and how long their tails run), so a run
	// spreads its jobs over several seeds.
	specsPerTenant     = 4
	serviceConcurrency = 2
	serviceSlice       = 10 * time.Second
	// jobDeadline bounds one job from submit to artifact; a job still
	// running past it counts as failed and is cancelled, so the run
	// never hangs on it.
	jobDeadline = 30 * time.Second
	longPoll    = "5s"
	// replayPairs is how many untraced/traced replays of one job spec
	// give the service workload's scan-layer figures.
	replayPairs = 5
)

// serviceBench is a job service on a loopback listener with the event
// journal armed, and one closed-loop client per tenant.
type serviceBench struct {
	dir    string
	mgr    *jobs.Manager
	srv    *http.Server
	served chan error
	base   string
	specs  []jobs.Spec // tenant k's specs are specs[k*specsPerTenant:][:specsPerTenant]
	refs   [][32]byte
}

func setupServiceJobs(dir string, seed uint64) (bench, error) {
	b := &serviceBench{dir: dir}
	for k := 0; k < serviceTenants; k++ {
		for j := 0; j < specsPerTenant; j++ {
			b.specs = append(b.specs, jobs.Spec{
				Tenant: fmt.Sprintf("tenant%d", k), Seed: 4000 + 100*seed + uint64(10*k+j),
				SampleFraction: 0.002, Rate: 50, Format: "bin",
			})
		}
	}
	// Reference artifacts: every spec run uninterrupted.
	for _, s := range b.specs {
		data, _, err := referenceRun(s)
		if err != nil {
			return nil, err
		}
		b.refs = append(b.refs, sha256.Sum256(data))
	}
	// The daemon, wired as cmd/iwserve wires it.
	j, err := events.Open(filepath.Join(dir, "events"))
	if err != nil {
		return nil, err
	}
	b.mgr, err = jobs.NewManager(jobs.Config{
		Dir: filepath.Join(dir, "state"), BudgetPPS: 150000, MaxConcurrent: serviceConcurrency,
		SliceVirtual: netsim.Time(serviceSlice), Events: j,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.mgr.Close()
		return nil, err
	}
	js := jobs.NewServer(b.mgr)
	js.Heartbeat = 5 * time.Second
	b.srv = &http.Server{Handler: js.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	resp, err := http.Get(b.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// scanConfig is the scan a job runs for spec, as the job manager
// builds it for the options these specs use; the effective rate equals
// the requested one because it is far below each tenant's budget share.
func scanConfig(spec jobs.Spec) (experiments.ScanConfig, *inet.Universe, error) {
	if err := spec.Normalize(); err != nil {
		return experiments.ScanConfig{}, nil, err
	}
	cfg := experiments.ScanConfig{
		Seed: spec.Seed, Strategy: core.StrategyHTTP, SampleFraction: spec.SampleFraction,
		Rate: spec.Rate, MSSList: spec.MSSList, Repeats: spec.Repeats,
	}
	return cfg, inet.NewInternet2017(spec.UniverseSeed), nil
}

// referenceRun runs spec uninterrupted through the untraced entry point
// into an IWB1 buffer.
func referenceRun(spec jobs.Spec) ([]byte, *experiments.ScanResult, error) {
	cfg, u, err := scanConfig(spec)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	sink := output.NewBinarySink(&buf)
	cfg.Sink = sink
	res, err := experiments.RunScanChecked(u, cfg)
	if err == nil {
		err = sink.Close()
	}
	if err == nil && res.Incomplete {
		err = errors.New("reference run incomplete")
	}
	return buf.Bytes(), res, err
}

func (b *serviceBench) close() {
	if b.mgr != nil {
		// As cmd/iwserve stops: drain the manager (which closes the
		// journal and ends every watcher), then the HTTP side.
		b.mgr.Close()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = b.srv.Shutdown(ctx) // at exit; a slow drain only delays it
		cancel()
		<-b.served
	}
}

// jobOutcome is one job as its tenant saw it.
type jobOutcome struct {
	id            string
	err           error
	latency       time.Duration
	submit, fetch time.Duration
	view          jobs.JobView
}

// loop runs every tenant's closed loop until the deadline: submit one
// job (cycling through the tenant's specs), follow it on the long-poll
// events endpoint, fetch and check its artifact, repeat. Each tenant
// uses one keep-alive connection.
func (b *serviceBench) loop(deadline time.Time, m *meter, t *tally) []jobOutcome {
	var mu sync.Mutex
	var outs []jobOutcome
	var wg sync.WaitGroup
	m.begin()
	for k := 0; k < serviceTenants; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			cursor := uint64(1)
			for i := 0; time.Now().Before(deadline); i++ {
				o := b.runJob(client, k*specsPerTenant+i%specsPerTenant, &cursor)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	m.end()
	for _, o := range outs {
		if o.err != nil {
			t.fail("job %s: %v", o.id, o.err)
		} else {
			t.ok()
		}
	}
	return outs
}

func (b *serviceBench) runJob(client *http.Client, spec int, cursor *uint64) (o jobOutcome) {
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	start := time.Now()
	body, _ := json.Marshal(b.specs[spec])
	var view jobs.JobView
	if err := call(ctx, client, http.MethodPost, b.base+"/jobs", body, &view); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.id = view.ID
	o.submit = time.Since(start)
	if view.EffectiveRate != b.specs[spec].Rate {
		o.err = fmt.Errorf("effective rate %v, want the requested %v", view.EffectiveRate, b.specs[spec].Rate)
	}
	final := ""
	for final == "" {
		var page jobs.EventsPage
		url := fmt.Sprintf("%s/jobs/%s/events?from=%d&limit=1000&wait=%s", b.base, view.ID, *cursor, longPoll)
		if err := call(ctx, client, http.MethodGet, url, nil, &page); err != nil {
			if ctx.Err() != nil {
				b.cancelJob(client, view.ID)
				err = fmt.Errorf("missed its %v deadline", jobDeadline)
			}
			o.err = err
			return o
		}
		*cursor = page.Next
		for _, ev := range page.Events {
			if ev.Type != events.TypeStateChange {
				continue
			}
			if to, _ := ev.Fields["to"].(string); jobs.State(to).Terminal() {
				final = to
			}
		}
	}
	if err := call(ctx, client, http.MethodGet, b.base+"/jobs/"+view.ID, nil, &o.view); err != nil {
		o.err = fmt.Errorf("job view: %w", err)
		return o
	}
	fetchStart := time.Now()
	var data []byte
	if err := call(ctx, client, http.MethodGet, b.base+"/jobs/"+view.ID+"/artifact", nil, &data); err != nil {
		o.err = fmt.Errorf("artifact: %w", err)
		return o
	}
	o.fetch = time.Since(fetchStart)
	o.latency = time.Since(start)
	if o.err != nil {
		return o
	}
	switch {
	case jobs.State(final) != jobs.StateCompleted:
		o.err = fmt.Errorf("finished %s: %s", final, o.view.Error)
	case sha256.Sum256(data) != b.refs[spec]:
		o.err = fmt.Errorf("artifact (%d bytes) differs from the uninterrupted run of its spec", len(data))
	default:
		recs, err := output.ReadBinary(bytes.NewReader(data))
		if err != nil {
			o.err = fmt.Errorf("artifact does not decode: %w", err)
		} else if uint64(len(recs)) != o.view.RecordsEmitted {
			o.err = fmt.Errorf("artifact holds %d records, job reports %d", len(recs), o.view.RecordsEmitted)
		}
	}
	return o
}

func (b *serviceBench) cancelJob(client *http.Client, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Best effort: the job already counts as failed, and Close drains it.
	_ = call(ctx, client, http.MethodPost, b.base+"/jobs/"+id+"/cancel", nil, nil)
}

// call makes one request and decodes a 2xx answer into out (*[]byte
// takes the raw body). Any other status is an error.
func call(ctx context.Context, client *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	switch v := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*v = data
		return nil
	default:
		return json.Unmarshal(data, v)
	}
}

func (b *serviceBench) measure(deadline time.Time, m *meter, acc *e2eAcc, t *tally) {
	iv := interval{}
	for _, o := range b.loop(deadline, m, t) {
		if o.err != nil {
			continue
		}
		iv.records += int64(o.view.RecordsEmitted)
		iv.probes += o.view.Launched
		iv.jobs++
		acc.latencies = append(acc.latencies, ms(o.latency))
	}
	iv.sample = m.last()
	acc.intervals = append(acc.intervals, iv)
}

// trace runs the same closed loop for the control-plane figures, walks
// the journal for the per-job spans, then replays tenant 0's spec once
// untraced and once traced for the scan-layer figures.
func (b *serviceBench) trace(deadline time.Time, m *meter, la *layerAcc, t *tally) {
	ids := map[string]bool{}
	for _, o := range b.loop(deadline, m, t) {
		if o.err != nil {
			continue
		}
		ids[o.id] = true
		la.jobs.n++
		la.jobs.submit += o.submit
		la.jobs.fetch += o.fetch
		la.jobs.segments += int64(o.view.Slices)
		la.jobs.recordsEmitted += int64(o.view.RecordsEmitted)
		la.jobs.launched += o.view.Launched
	}
	if err := b.journalFigures(ids, &la.jobs); err != nil {
		t.fail("journal: %v", err)
	}
	la.parallel = serviceConcurrency

	for i := 0; i < replayPairs; i++ {
		if !b.replay(la, t, i%2 == 1) {
			return
		}
	}
	la.check(t)
}

// replay runs tenant 0's spec uninterrupted, once untraced and once
// traced (traced first when tracedFirst); both must reproduce the
// set-up reference artifact.
func (b *serviceBench) replay(la *layerAcc, t *tally, tracedFirst bool) bool {
	var tr *tracer
	var out *scanOut
	var traced []byte
	var wall time.Duration
	var err error
	if tracedFirst {
		tr, out, traced, wall, err = b.tracedReplay()
	}
	start := time.Now()
	ref, _, uerr := referenceRun(b.specs[0])
	untraced := time.Since(start)
	if uerr != nil || sha256.Sum256(ref) != b.refs[0] {
		t.fail("untraced replay differs from the set-up reference (%v)", uerr)
		return false
	}
	t.ok()
	if !tracedFirst {
		tr, out, traced, wall, err = b.tracedReplay()
	}
	if err != nil || !bytes.Equal(traced, ref) {
		t.fail("traced replay differs from the untraced one (%v); layer numbers rejected", err)
		return false
	}
	t.ok()
	la.untracedWall += untraced
	la.addScan(out, []*tracer{tr}, wall, int64(len(traced)))
	cfg, u, _ := scanConfig(b.specs[0])
	la.addWalk(walkTargets(u, cfg, 1))
	return true
}

func (b *serviceBench) tracedReplay() (*tracer, *scanOut, []byte, time.Duration, error) {
	cfg, u, err := scanConfig(b.specs[0])
	if err != nil {
		return nil, nil, nil, 0, err
	}
	var buf bytes.Buffer
	sink := output.NewBinarySink(&buf)
	cfg.Sink = sink
	tr := newTracer()
	start := time.Now()
	out, err := tracedScan(u, cfg, tr)
	if err == nil {
		err = sink.Close()
	}
	return tr, out, buf.Bytes(), time.Since(start), err
}

// journalFigures pages through the whole journal and derives, for the
// given jobs, queue wait (submitted to first segment start), segment
// wall time and events per job.
func (b *serviceBench) journalFigures(ids map[string]bool, ja *jobAcc) error {
	submitted := map[string]int64{}
	firstSeg := map[string]int64{}
	for from := uint64(1); ; {
		var page jobs.EventsPage
		url := fmt.Sprintf("%s/events?from=%d&limit=1000", b.base, from)
		if err := call(context.Background(), http.DefaultClient, http.MethodGet, url, nil, &page); err != nil {
			return err
		}
		for _, ev := range page.Events {
			if !ids[ev.Job] {
				continue
			}
			ja.events++
			switch ev.Type {
			case events.TypeJobSubmitted:
				submitted[ev.Job] = ev.WallNS
			case events.TypeSegmentStart:
				if _, ok := firstSeg[ev.Job]; !ok {
					firstSeg[ev.Job] = ev.WallNS
				}
			case events.TypeSegmentEnd:
				if w, ok := ev.Fields["wall_ns"].(float64); ok {
					ja.segment += time.Duration(w)
					ja.segmentsTimed++
				}
			}
		}
		if len(page.Events) == 0 || page.Next > page.HighWater {
			break
		}
		from = page.Next
	}
	for id := range ids {
		s, ok1 := submitted[id]
		f, ok2 := firstSeg[id]
		if !ok1 || !ok2 {
			return fmt.Errorf("job %s has no submitted or segment_start event", id)
		}
		ja.queueWait += time.Duration(f - s)
	}
	return nil
}
