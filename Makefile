# Developer workflow for the iwscan reproduction. `make check` is the
# pre-commit gate (see README.md): formatting, vet, full build, full
# test suite, a race-detector pass over the packages with concurrency,
# a repeat run of the concurrency stress test, and the ground-truth
# validation smoke (oracle accuracy report plus golden population
# comparisons).

GO ?= go

# Where validation artifacts (accuracy report, sweep CSV) land; CI
# uploads this directory.
VALIDATE_OUT ?= artifacts

# Per-target budget for fuzz-smoke.
FUZZ_TIME ?= 3s
# Packages with native fuzz targets (Fuzz* functions).
FUZZ_PKGS := ./internal/wire ./internal/output ./internal/httpsim ./internal/tlssim ./internal/prefixtree ./internal/checkpoint

# Coverage floor for the non-blocking report `make cover` prints; the
# build does not fail below it, the number is for trend-watching.
COVER_TARGET ?= 70

.PHONY: check fmt vet build test race cover bench bench-check bench-compare bench-refresh bench-smoke flake-guard fuzz-smoke flight-smoke telemetry-smoke serve-smoke events-smoke smart-smoke validate-smoke validate-sweep

check: fmt vet build test race flake-guard flight-smoke telemetry-smoke serve-smoke events-smoke smart-smoke validate-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scanner fans out over shards, the output pipeline runs async
# sinks, and experiments drives both end to end — all under -race along
# with the shared metrics registry, the core estimator, and the packet
# paths (each netsim.Network now owns its packet/event free lists, so
# the race pass guards the remaining cross-shard surfaces: the k-way
# merge, the timeseries store, the debug server, and the jobs
# scheduler; the experiments stress tests hammer them with concurrent
# parallel scans, checkpoint interrupts, and live scrapes).
race:
	$(GO) test -race ./internal/metrics/... ./internal/core/... \
		./internal/scanner/... ./internal/output/... ./internal/experiments/... \
		./internal/netsim/... ./internal/tcpstack/... ./internal/flight/... \
		./internal/timeseries/... ./internal/jobs/... ./internal/events/...

# flake-guard reruns the scrape/checkpoint stress test 20 times
# (about 10 s without -race), so an ordering flake fails the gate
# instead of passing by luck on a single run.
flake-guard:
	$(GO) test ./internal/experiments -run TestParallelScrapeCheckpointRaceStress -count=20

# cover writes one aggregate coverage profile across every package to
# $(VALIDATE_OUT)/cover.out (CI uploads it) plus an HTML render, and
# prints the total against $(COVER_TARGET)%. The threshold is a report,
# not a gate: the line is marked LOW when under target but the target
# never fails, so coverage drift is visible without blocking merges.
cover:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) test -count=1 -coverprofile=$(VALIDATE_OUT)/cover.out -coverpkg=./... ./...
	@$(GO) tool cover -html=$(VALIDATE_OUT)/cover.out -o $(VALIDATE_OUT)/cover.html
	@total=$$($(GO) tool cover -func=$(VALIDATE_OUT)/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	status=ok; awk "BEGIN{exit !($$total < $(COVER_TARGET))}" && status="LOW (target $(COVER_TARGET)%)"; \
	echo "coverage: $$total% total — $$status ($(VALIDATE_OUT)/cover.out, cover.html)"

# bench runs the canonical fixed-seed benchmark harness (cmd/iwbench)
# and writes $(VALIDATE_OUT)/BENCH_scan.json (ns/op, B/op, allocs/op,
# probes/sec per workload); CI uploads it as an artifact. The absolute
# gates run here: smart-rescan efficiency always, the 4-shard
# scaling-efficiency floor on runners with >= 4 cores.
bench:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwbench -out $(VALIDATE_OUT)/BENCH_scan.json

# bench-check measures afresh and compares against the checked-in
# baseline BENCH_scan.json, failing on a >25% ns/op or allocs/op
# regression. Timing on shared CI runners is noisy — CI runs this as a
# non-blocking annotation job; treat local failures as real.
bench-check:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwbench -out $(VALIDATE_OUT)/BENCH_scan.json \
		-check BENCH_scan.json -tolerance 0.25

# bench-refresh rewrites the checked-in baseline; run it (on a quiet
# machine) whenever a deliberate change shifts the numbers.
bench-refresh:
	$(GO) run ./cmd/iwbench -out BENCH_scan.json

# bench-compare re-gates the report `make bench` just wrote against the
# checked-in baseline without measuring again. CI runs bench (blocking,
# absolute gates) then bench-compare (non-blocking — timing noise on
# shared runners makes baseline-relative deltas advisory).
bench-compare:
	$(GO) run ./cmd/iwbench -replay $(VALIDATE_OUT)/BENCH_scan.json \
		-check BENCH_scan.json -tolerance 0.25

# bench-smoke runs every benchmark in the module exactly once — a fast
# CI guard that the benchmark harnesses still build and run, without
# measuring anything.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# fuzz-smoke runs every native fuzz target briefly ($(FUZZ_TIME) each):
# the wire decoders, the IWB1 binary reader, and the HTTP/TLS parsers.
# `go test -fuzz` takes one target at a time, hence the loop.
fuzz-smoke:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "==> fuzz $$pkg $$target ($(FUZZ_TIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME); \
		done; \
	done

# flight-smoke is the forensic-pipeline gate: a short fixed-seed
# adversity scan with anomaly triggers armed must freeze at least one
# flight record, and every export must validate as Chrome trace-event
# JSON (iwtrace smoke). The records land in $(VALIDATE_OUT)/flight,
# which CI uploads with the other validation artifacts.
flight-smoke:
	@mkdir -p $(VALIDATE_OUT)
	rm -rf $(VALIDATE_OUT)/flight
	$(GO) run ./cmd/iwscan -sample 0.004 -seed 3 -loss 0.15 -tail-loss 0.3 \
		-flight-dir $(VALIDATE_OUT)/flight -flight-on ghost,byte-limit-misread \
		-out /dev/null -q
	$(GO) run ./cmd/iwtrace smoke $(VALIDATE_OUT)/flight
	@$(GO) run ./cmd/iwtrace list $(VALIDATE_OUT)/flight

# telemetry-smoke is the observability gate: a fixed-seed 4-shard scan
# under tail loss streams its telemetry to
# $(VALIDATE_OUT)/telemetry.jsonl (CI uploads it), then iwtrace
# re-parses the stream and requires every line tagged, contiguous
# per-shard sample indices, at least one sample from each of the four
# shards, and at least one anomaly — tail loss at 0.3 reliably trips
# the drop-spike detector.
telemetry-smoke:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwscan -sample 0.02 -seed 3 -tail-loss 0.3 -parallel 4 \
		-telemetry-out $(VALIDATE_OUT)/telemetry.jsonl -out /dev/null -q
	$(GO) run ./cmd/iwtrace telemetry -shards 4 -require-anomaly \
		$(VALIDATE_OUT)/telemetry.jsonl

# serve-smoke is the control-plane gate: boot the iwserve daemon
# against a real listener, run two tenants at 3:1 weights, pause and
# resume one job mid-flight, and require (a) fair-share convergence
# within +-10 points of the 75/25 split measured over contended probes
# and (b) the paused-and-resumed job's artifact byte-identical to its
# uninterrupted twin's. The smoke's state directory (job files,
# artifacts, checkpoints) lands in $(VALIDATE_OUT)/serve for CI to
# upload.
serve-smoke:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwserve -smoke -state $(VALIDATE_OUT)/serve

# events-smoke is the control-plane observability gate: the iwserve
# -events-smoke scenario runs a fixed-seed job twice (journal disarmed
# for the reference artifact, then armed with a live SSE watcher) and
# requires (a) the full queued -> running -> completed lifecycle
# observed from the watch stream alone — no /jobs/{id} polls, (b) the
# armed run's artifact byte-identical to the disarmed reference, and
# (c) sequence numbers continuing gap-free across a mid-scenario
# daemon restart. The journal it leaves in
# $(VALIDATE_OUT)/events-serve/events is then re-read offline by
# iwtrace jobs -validate, which enforces the semantic invariants
# (legal lifecycle edges, balanced segment spans, at least one
# dispatch-audit event per job that ran) and that the Chrome trace
# export parses. CI uploads the journal with the other artifacts.
events-smoke:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwserve -events-smoke -state $(VALIDATE_OUT)/events-serve
	$(GO) run ./cmd/iwtrace jobs -validate -min-dispatch 1 \
		$(VALIDATE_OUT)/events-serve/events/events.jsonl

# smart-smoke is the topology-aware-scanning gate: a fixed-seed full
# scan trains a fresh responsiveness model (-smart-update), a rescan of
# the same sample under the trained model prunes dark space, and
# iwtrace smartcmp gates the pair — the smart pass must save >= 30% of
# the probes while re-finding >= 95% of the responsive hosts. The
# model, both record files and the scan logs land in
# $(VALIDATE_OUT)/smart for CI to upload.
smart-smoke:
	@mkdir -p $(VALIDATE_OUT)/smart
	rm -f $(VALIDATE_OUT)/smart/model.iwsm
	$(GO) run ./cmd/iwscan -sample 0.004 -seed 11 -format bin \
		-out $(VALIDATE_OUT)/smart/full.iwb \
		-smart-model $(VALIDATE_OUT)/smart/model.iwsm -smart-update -q
	$(GO) run ./cmd/iwscan -sample 0.004 -seed 11 -format bin \
		-out $(VALIDATE_OUT)/smart/smart.iwb \
		-smart-model $(VALIDATE_OUT)/smart/model.iwsm \
		-smart-threshold 0.01 -smart-explore -1 -q
	$(GO) run ./cmd/iwtrace smartcmp -min-saved 0.30 -min-found 0.95 \
		$(VALIDATE_OUT)/smart/full.iwb $(VALIDATE_OUT)/smart/smart.iwb

# validate-smoke is the ground-truth gate: scan a sample of the 2017
# universe, require >= 99% oracle exact-match accuracy and zero bound
# violations, then compare both checked-in goldens. The accuracy report
# is written to $(VALIDATE_OUT) for CI to upload.
validate-smoke:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwvalidate -mode report -sample 0.02 -min-accuracy 0.99 \
		-out $(VALIDATE_OUT)/accuracy-report.txt
	@cat $(VALIDATE_OUT)/accuracy-report.txt
	$(GO) run ./cmd/iwvalidate -mode golden \
		-golden internal/validate/testdata/golden-http-2017.json
	$(GO) run ./cmd/iwvalidate -mode golden \
		-golden internal/validate/testdata/golden-tls-2017.json

# validate-sweep produces the accuracy-vs-adversity curve artifact
# (full default grid; slower than validate-smoke, CI-only by default).
validate-sweep:
	@mkdir -p $(VALIDATE_OUT)
	$(GO) run ./cmd/iwvalidate -mode sweep -sample 0.01 \
		-out $(VALIDATE_OUT)/sweep.txt -csv $(VALIDATE_OUT)/sweep.csv
	@cat $(VALIDATE_OUT)/sweep.txt
