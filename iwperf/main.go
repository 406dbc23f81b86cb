// Command iwperf is the repository's end-to-end benchmark. It runs one
// workload through the entry points users call — the checked scan
// drivers with an IWB1 sink, or the job service over a loopback
// listener wired as cmd/iwserve wires it — checks every artifact it
// produces, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures of an untraced
// run. With -trace 1 they are the per-layer figures of a traced run,
// whose artifacts must match the untraced run's byte for byte.
//
// Usage, from the repository root (iwperf/run.sh builds and runs it):
//
//	iwperf -workload census_http -seed 1 -seconds 20 -trace 0
//
// The workload seed shifts the scan seeds, never the simulated
// universe, so a claim can be re-checked on a seed not used while
// writing the change. The command exits non-zero when any output check
// fails. See NOTES.md for what each workload loads and which layer
// metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median. Only the last instance is measured.
const setupRepeats = 5

// workload is one benchmark input set.
type workload struct {
	name  string
	setup func(dir string, seed uint64) (bench, error)
}

// bench is a set-up workload instance.
type bench interface {
	// measure runs untraced work until the deadline, metering only the
	// work itself.
	measure(deadline time.Time, m *meter, acc *e2eAcc, t *tally)
	// trace alternates untraced and traced work until the deadline and
	// accumulates the per-layer figures.
	trace(deadline time.Time, m *meter, la *layerAcc, t *tally)
	close()
}

var workloads = []workload{
	{"census_http", setupCensusHTTP},
	{"census_tls_lossy", setupCensusTLSLossy},
	{"rescan_smart", setupRescanSmart},
	{"service_jobs", setupServiceJobs},
}

// tally counts attempted and failed operations (scan passes, jobs) and
// keeps the first few failure reasons.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// e2eAcc accumulates the end-to-end figures of an untraced run: one
// interval per scan pass (the service's closed loop is one interval),
// and one latency per completed pass or job.
type e2eAcc struct {
	intervals []interval
	latencies []float64 // ms
}

// interval is one metered window and the work it completed.
type interval struct {
	sample
	records, probes int64
	jobs            int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed (shifts scan seeds, not the universe)")
	seconds := flag.Float64("seconds", 20, "measurement window in wall seconds")
	traceRun := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	workdir := flag.String("workdir", "", "directory for artifacts, checkpoints and service state (default: system temp)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintf(os.Stderr, "iwperf: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	root := *workdir
	if root == "" {
		root = os.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	res, err := run(w, dir, *seed, time.Duration(*seconds*float64(time.Second)), *traceRun == 1)
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iwperf:", err)
	os.Exit(1)
}

// run sets the workload up (several times for an untraced run), then
// measures it for the window.
func run(w *workload, dir string, seed uint64, window time.Duration, traced bool) (*result, error) {
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var b bench
	var setupTimes []float64
	for i := 0; i < repeats; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		b, err = w.setup(filepath.Join(dir, fmt.Sprintf("setup%d", i)), seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer b.close()

	m := newMeter()
	defer m.close()
	t := &tally{}
	res := &result{Metrics: map[string]metric{}}
	deadline := time.Now().Add(window)
	if traced {
		la := &layerAcc{}
		b.trace(deadline, m, la, t)
		la.fill(res.Metrics, m)
	} else {
		acc := &e2eAcc{}
		b.measure(deadline, m, acc, t)
		fillE2E(res.Metrics, setupTimes, m, acc)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "iwperf: FAILED:", r)
	}
	return res, nil
}

func fillE2E(out map[string]metric, setupTimes []float64, m *meter, acc *e2eAcc) {
	// Rates are medians over intervals, so one disturbed pass does not
	// move a run's figure.
	per := func(f func(iv interval) float64) float64 {
		xs := make([]float64, len(acc.intervals))
		for i, iv := range acc.intervals {
			xs[i] = f(iv)
		}
		return median(xs)
	}
	out["setup_s"] = metric{median(setupTimes), "s"}
	out["targets_per_s"] = metric{per(func(iv interval) float64 { return ratio(float64(iv.records), iv.wall.Seconds()) }), "1/s"}
	out["probes_per_s"] = metric{per(func(iv interval) float64 { return ratio(float64(iv.probes), iv.wall.Seconds()) }), "1/s"}
	out["cpu_us_per_record"] = metric{per(func(iv interval) float64 { return ratio(float64(iv.cpu.Nanoseconds())/1e3, float64(iv.records)) }), "us"}
	out["allocs_per_probe"] = metric{per(func(iv interval) float64 { return ratio(float64(iv.allocs), float64(iv.probes)) }), "count"}
	out["alloc_bytes_per_probe"] = metric{per(func(iv interval) float64 { return ratio(float64(iv.bytes), float64(iv.probes)) }), "B"}
	out["peak_heap_mb"] = metric{float64(m.peakLive.Load()) / (1 << 20), "MiB"}
	out["job_latency_p50_ms"] = metric{quantile(acc.latencies, 0.5), "ms"}
	out["jobs_per_s"] = metric{per(func(iv interval) float64 { return ratio(float64(iv.jobs), iv.wall.Seconds()) }), "1/s"}
	// p90 is printed but not a result metric: a run completes too few
	// jobs or passes for ten samples to lie beyond it (see NOTES.md).
	tail := tailPercentile(len(acc.latencies))
	if tail == "" {
		tail = "none"
	}
	fmt.Printf("# %d latency samples; highest percentile with >= 10 samples beyond it: %s\n",
		len(acc.latencies), tail)
	fmt.Printf("%-32s %16.6g ms (not a result metric)\n", "job_latency_p90_ms", quantile(acc.latencies, 0.9))
}

func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%-32s %16.6g fraction (%d of %d operations)\n", "failed_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}
