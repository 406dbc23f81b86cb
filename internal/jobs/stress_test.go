package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iwscan/internal/events"
	"iwscan/internal/netsim"
)

// runWatcher consumes /events/watch as an SSE client, reconnecting
// with a resume cursor whenever the stream ends (slow-watcher
// disconnect, server restart) and enforcing that the sequence numbers
// arrive with no gap — the journal's core streaming guarantee. base
// is called per reconnect so a restarted server's new address is
// picked up. It returns once done says so; n counts delivered events,
// which equals last exactly when the watcher missed nothing from 1.
func runWatcher(client *http.Client, base func() string, deadline time.Time, done func(ev events.Event) bool) (last uint64, n int, err error) {
	next := uint64(1)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		req, _ := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/events/watch?from=%d", base(), next), nil)
		resp, err := client.Do(req)
		if err != nil {
			// Mid-restart there is a window with no listener; retry.
			cancel()
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cancel()
			time.Sleep(20 * time.Millisecond)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		finished := false
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev events.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				resp.Body.Close()
				cancel()
				return last, n, fmt.Errorf("bad SSE data after seq %d: %v", last, err)
			}
			if ev.Seq != next {
				resp.Body.Close()
				cancel()
				return last, n, fmt.Errorf("sequence gap: got %d, want %d", ev.Seq, next)
			}
			last, next = ev.Seq, ev.Seq+1
			n++
			if done(ev) {
				finished = true
				break
			}
		}
		resp.Body.Close()
		cancel()
		if finished {
			return last, n, nil
		}
	}
	return last, n, fmt.Errorf("watcher timed out at seq %d", last)
}

// terminalCounter returns a done predicate that fires once `want`
// distinct jobs have reached a terminal state on the stream.
func terminalCounter(want int) func(ev events.Event) bool {
	seen := map[string]bool{}
	return func(ev events.Event) bool {
		if ev.Type == events.TypeStateChange {
			if to, _ := ev.Fields["to"].(string); State(to).Terminal() {
				seen[ev.Job] = true
			}
		}
		return len(seen) >= want
	}
}

// TestConcurrentClientsStress drives the HTTP API with hundreds of
// concurrent clients — submitters, pollers and cancellers — and then
// audits every job: completed jobs' artifacts must be byte-identical to
// a reference run of the same spec (no lost or duplicated records), and
// cancelled jobs must hold an exact prefix of it.
func TestConcurrentClientsStress(t *testing.T) {
	// Four distinct workloads: three finish within one segment, the
	// fourth (seed 404) spans several segments so cancellation has a
	// real window to land mid-flight.
	seeds := []uint64{101, 202, 303, 404}
	makeSpec := func(tenant string, seed uint64) Spec {
		s := Spec{
			Tenant: tenant, Seed: seed, SampleFraction: 0.0003,
			Rate: 2000, MSSList: []int{64}, Repeats: 1,
		}
		if seed == 404 {
			s.SampleFraction, s.Rate = 0.002, 60
		}
		return s
	}
	refs := make(map[uint64][]byte, len(seeds))
	for _, seed := range seeds {
		refs[seed] = referenceBytes(t, makeSpec("ref", seed))
	}

	dir := t.TempDir()
	m := armedManager(t, dir, Config{MaxConcurrent: 4, SliceVirtual: 5 * netsim.Second})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()
	client := srv.Client()

	const (
		submitters = 40
		pollers    = 100
		cancellers = 60
		watchers   = 8
		jobsEach   = 2
	)

	// Watchers: live SSE streams running for the whole stress, each
	// required to observe every job's terminal edge with gap-free
	// sequences (reconnecting with a resume cursor if it falls behind
	// and is disconnected).
	type watchResult struct {
		last uint64
		n    int
		err  error
	}
	watchRes := make(chan watchResult, watchers)
	var watchWG sync.WaitGroup
	watchDeadline := time.Now().Add(120 * time.Second)
	for i := 0; i < watchers; i++ {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			last, n, err := runWatcher(client, func() string { return srv.URL }, watchDeadline,
				terminalCounter(submitters*jobsEach))
			watchRes <- watchResult{last, n, err}
		}()
	}

	var (
		mu        sync.Mutex
		jobSeed   = make(map[string]uint64) // job id → workload seed
		submitErr []string
	)
	ids := make(chan string, submitters*jobsEach)

	var wg sync.WaitGroup
	// Submitters: POST specs, record the returned ids.
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < jobsEach; k++ {
				seed := seeds[(i+k)%len(seeds)]
				spec := makeSpec(fmt.Sprintf("t%02d", i%8), seed)
				body, _ := json.Marshal(spec)
				resp, err := client.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					submitErr = append(submitErr, err.Error())
					mu.Unlock()
					continue
				}
				var view JobView
				err = json.NewDecoder(resp.Body).Decode(&view)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusCreated {
					mu.Lock()
					submitErr = append(submitErr, fmt.Sprintf("submit: HTTP %d (%v)", resp.StatusCode, err))
					mu.Unlock()
					continue
				}
				mu.Lock()
				jobSeed[view.ID] = seed
				mu.Unlock()
				ids <- view.ID
			}
		}(i)
	}
	// Cancellers: race cancellation against execution. Any of 200
	// (applied), 404 (id not seen — impossible here) or 409 (already
	// terminal) is legitimate; anything else is a server bug.
	cancelled := make(chan string, cancellers)
	for i := 0; i < cancellers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case id := <-ids:
				resp, err := client.Post(srv.URL+"/jobs/"+id+"/cancel", "", nil)
				if err != nil {
					t.Errorf("cancel %s: %v", id, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					cancelled <- id
				case http.StatusConflict:
				default:
					t.Errorf("cancel %s: HTTP %d", id, resp.StatusCode)
				}
			case <-time.After(5 * time.Second):
			}
		}()
	}
	// Pollers: hammer the read endpoints while the fleet churns.
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/jobs", "/scheduler", "/healthz"}
			for k := 0; k < 10; k++ {
				resp, err := client.Get(srv.URL + paths[(i+k)%len(paths)])
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("poll %s: HTTP %d", paths[(i+k)%len(paths)], resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(cancelled)
	if len(submitErr) > 0 {
		t.Fatalf("%d submissions failed; first: %s", len(submitErr), submitErr[0])
	}
	if len(jobSeed) != submitters*jobsEach {
		t.Fatalf("submitted %d jobs, want %d", len(jobSeed), submitters*jobsEach)
	}

	// Drain to quiescence: every job must reach a terminal state.
	deadline := time.Now().Add(120 * time.Second)
	for {
		views := m.List()
		done := 0
		for _, v := range views {
			if v.State.Terminal() {
				done++
			}
		}
		if done == len(views) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs terminal after 120s", done, len(views))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Audit: completed artifacts byte-identical to the reference (no
	// record lost, none duplicated); cancelled ones an exact prefix.
	counts := map[State]int{}
	for _, v := range m.List() {
		counts[v.State]++
		want, ok := refs[jobSeed[v.ID]]
		if !ok {
			t.Fatalf("job %s has no recorded seed", v.ID)
		}
		path, _ := m.ArtifactPath(v.ID)
		got, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		switch v.State {
		case StateCompleted:
			if !bytes.Equal(got, want) {
				t.Fatalf("job %s completed with %d artifact bytes, reference has %d",
					v.ID, len(got), len(want))
			}
			// The HTTP artifact endpoint serves the same bytes.
			resp, err := client.Get(srv.URL + "/jobs/" + v.ID + "/artifact")
			if err != nil {
				t.Fatal(err)
			}
			served, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !bytes.Equal(served, want) {
				t.Fatalf("job %s: artifact endpoint served %d bytes, want %d",
					v.ID, len(served), len(want))
			}
		case StateCancelled:
			if !bytes.HasPrefix(want, got) {
				t.Fatalf("job %s cancelled with a non-prefix artifact (%d bytes)", v.ID, len(got))
			}
		default:
			t.Fatalf("job %s ended as %s (%s)", v.ID, v.State, v.Error)
		}
	}
	if counts[StateCompleted] == 0 {
		t.Fatal("no job completed — stress audit proved nothing")
	}

	// Every watcher saw every job die, with zero sequence gaps; since
	// each started from 1 and reconnects on disconnect, its delivered
	// count must equal its last sequence — nothing skipped.
	watchWG.Wait()
	close(watchRes)
	highWater := m.Journal().HighWater()
	for res := range watchRes {
		if res.err != nil {
			t.Fatalf("watcher: %v", res.err)
		}
		if res.n != int(res.last) {
			t.Fatalf("watcher delivered %d events up to seq %d — something was skipped", res.n, res.last)
		}
		if res.last > highWater {
			t.Fatalf("watcher saw seq %d beyond journal high water %d", res.last, highWater)
		}
	}

	// The journal itself must pass full semantic validation over the
	// whole churn, and account for every submitted job.
	m.Close()
	evs, torn, err := events.ReadFile(filepath.Join(dir, "events", events.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn journal tail of %d bytes after clean close", torn)
	}
	sum, err := ValidateJournal(evs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != submitters*jobsEach {
		t.Fatalf("journal accounts for %d jobs, want %d", sum.Jobs, submitters*jobsEach)
	}
	t.Logf("stress: %d completed, %d cancelled across %d clients; %d journal events, all %d watchers gap-free",
		counts[StateCompleted], counts[StateCancelled], submitters+pollers+cancellers+watchers, sum.Events, watchers)
}

// TestWatchersAcrossRestart keeps SSE watchers attached while the
// daemon is stopped mid-stress and rebooted on the same state. Each
// watcher must ride through the restart by reconnecting from its last
// sequence and still observe every job's terminal edge with no gap;
// the combined journal must validate with both daemon generations in
// it.
func TestWatchersAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxConcurrent: 2, SliceVirtual: 5 * netsim.Second}
	m1 := armedManager(t, dir, cfg)
	srv1 := httptest.NewServer(NewServer(m1).Handler())

	// Multi-segment workloads so the restart lands mid-flight.
	const jobsN = 4
	spec := Spec{
		Tenant: "w", Seed: 404, SampleFraction: 0.002,
		Rate: 60, MSSList: []int{64}, Repeats: 1,
	}
	for i := 0; i < jobsN; i++ {
		spec.Tenant = fmt.Sprintf("w%d", i%2)
		if _, err := m1.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}

	var baseMu sync.Mutex
	base := srv1.URL
	baseFn := func() string { baseMu.Lock(); defer baseMu.Unlock(); return base }

	const watchers = 4
	type watchResult struct {
		last uint64
		n    int
		err  error
	}
	watchRes := make(chan watchResult, watchers)
	var watchWG sync.WaitGroup
	deadline := time.Now().Add(120 * time.Second)
	for i := 0; i < watchers; i++ {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			last, n, err := runWatcher(http.DefaultClient, baseFn, deadline, terminalCounter(jobsN))
			watchRes <- watchResult{last, n, err}
		}()
	}

	// Let the fleet make real progress, then stop the daemon: the
	// manager drain emits server_shutdown (ending every watch stream
	// politely) before the HTTP server goes away.
	progress := time.Now().Add(60 * time.Second)
	for {
		ran := 0
		for _, v := range m1.List() {
			if v.Slices >= 1 {
				ran++
			}
		}
		if ran >= 2 {
			break
		}
		if time.Now().After(progress) {
			t.Fatal("no job made progress before the restart")
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()
	srv1.Close()

	// Reboot on the same state directory: recovery requeues whatever
	// was running, sequences continue from the reopened journal.
	m2 := armedManager(t, dir, cfg)
	defer m2.Close()
	srv2 := httptest.NewServer(NewServer(m2).Handler())
	defer srv2.Close()
	baseMu.Lock()
	base = srv2.URL
	baseMu.Unlock()

	drain := time.Now().Add(120 * time.Second)
	for {
		done := 0
		views := m2.List()
		for _, v := range views {
			if v.State == StateCompleted {
				done++
			} else if v.State.Terminal() {
				t.Fatalf("job %s ended as %s (%s)", v.ID, v.State, v.Error)
			}
		}
		if done == len(views) && len(views) == jobsN {
			break
		}
		if time.Now().After(drain) {
			t.Fatalf("only %d of %d jobs completed after restart", done, jobsN)
		}
		time.Sleep(5 * time.Millisecond)
	}

	watchWG.Wait()
	close(watchRes)
	for res := range watchRes {
		if res.err != nil {
			t.Fatalf("watcher across restart: %v", res.err)
		}
		if res.n != int(res.last) {
			t.Fatalf("watcher delivered %d events up to seq %d — restart lost some", res.n, res.last)
		}
	}

	m2.Close()
	evs, torn, err := events.ReadFile(filepath.Join(dir, "events", events.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn journal tail of %d bytes", torn)
	}
	sum, err := ValidateJournal(evs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Restarts != 2 || sum.Shutdowns != 2 {
		t.Fatalf("journal shows %d starts / %d shutdowns, want 2 / 2", sum.Restarts, sum.Shutdowns)
	}
	if sum.TypeCounts["recovery"] == 0 {
		t.Fatal("no recovery events after a mid-stress restart")
	}
}

// TestServerAPISurface covers the HTTP status mapping: 404s for unknown
// jobs, 400 for malformed specs, 409 for illegal lifecycle verbs, and
// the per-job debug endpoint lifecycle (503 between segments, live
// during them — here we only see the settled 503 since the job is
// terminal).
func TestServerAPISurface(t *testing.T) {
	m, err := NewManager(Config{Dir: t.TempDir(), SliceVirtual: 5 * netsim.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()
	client := srv.Client()

	status := func(method, path, body string) int {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, bytes.NewReader([]byte(body)))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("POST", "/jobs", `{"tenant":""}`); got != http.StatusBadRequest {
		t.Fatalf("invalid spec: HTTP %d, want 400", got)
	}
	if got := status("POST", "/jobs", `{"tenant":"x","bogus_field":1}`); got != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", got)
	}
	for _, path := range []string{"/jobs/nope", "/jobs/nope/artifact", "/jobs/nope/debug/metrics"} {
		if got := status("GET", path, ""); got != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, got)
		}
	}
	if got := status("POST", "/jobs/nope/pause", ""); got != http.StatusNotFound {
		t.Fatalf("pause unknown: HTTP %d, want 404", got)
	}

	// A real job: submit a tiny spec, wait for completion.
	spec := Spec{Tenant: "api", Seed: 9, SampleFraction: 0.0003, Rate: 2000, MSSList: []int{64}, Repeats: 1}
	body, _ := json.Marshal(spec)
	resp, err := client.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	waitJob(t, m, view.ID, "completion", func(v JobView) bool { return v.State.Terminal() })

	if got := status("POST", "/jobs/"+view.ID+"/pause", ""); got != http.StatusConflict {
		t.Fatalf("pause completed job: HTTP %d, want 409", got)
	}
	if got := status("GET", "/jobs/"+view.ID, ""); got != http.StatusOK {
		t.Fatalf("get job: HTTP %d", got)
	}
	// Between/after segments the per-job debug data handlers answer 503
	// (the segment's registries were reset), but the endpoint routes.
	if got := status("GET", "/jobs/"+view.ID+"/debug/metrics", ""); got != http.StatusServiceUnavailable {
		t.Fatalf("debug metrics on settled job: HTTP %d, want 503", got)
	}
	if got := status("GET", "/jobs/"+view.ID+"/debug/dash", ""); got != http.StatusOK {
		t.Fatalf("debug dash: HTTP %d, want 200", got)
	}
}

// TestSubmitRejectsOversizedSpec: POST /jobs reads at most maxSpecBytes
// of body; a larger spec gets 413 and creates no job.
func TestSubmitRejectsOversizedSpec(t *testing.T) {
	m, err := NewManager(Config{Dir: t.TempDir(), SliceVirtual: 5 * netsim.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()

	body := `{"tenant":"x","name":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: HTTP %d, want 413", resp.StatusCode)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("oversized spec created %d job(s)", len(jobs))
	}
}
