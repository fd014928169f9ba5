# CI runs exactly these targets (.github/workflows/ci.yml), so local runs
# and the gate can never drift apart.

GO ?= go

.PHONY: build test race fuzz bench bench-pair fmt loc loc-ref cover cover-ref examples smoke smoke-shards smoke-workspace smoke-ref smoke-split

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The multi-seed runner is concurrent; always gate it under the race
# detector.
race:
	$(GO) test -race ./...

# Every Fuzz* target in the module, each on its own for FUZZTIME: `go test
# -list` prints a package's targets and then its "ok <pkg>" line, and -fuzz
# takes one target of one package at a time. Plain `go test` only replays
# the seed corpora. Each input that finds new coverage is minimised in at
# most 50 runs: by default the engine spends up to a minute per input on it,
# and a target seeded with a real run's kilobytes (FuzzMetricsDecode,
# FuzzDecodeResult) then spends its whole FUZZTIME minimising, not fuzzing.
FUZZTIME ?= 5s
fuzz:
	@set -e; \
	$(GO) test -list '^Fuzz' ./... \
	| awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' \
	| while read pkg f; do \
		echo "== fuzz: $$pkg $$f ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 50x $$pkg; \
	done

# The repo's benchmark (BENCHMARK.json, bench/README.md): four
# closed-loop workloads with per-layer probes, every iteration's result
# digest checked against the pins in bench/workloads.go. CI uploads the
# report as an artifact.
bench:
	$(GO) run ./bench -out bench.json

# Paired comparison behind a performance claim: build ./bench at REF (in a
# temporary git worktree) and from the working tree, then alternate the two
# binaries per workload with tracing off, PAIRS times, and print per
# metric both sides' medians and quartiles, the pairs the working tree won
# and REF's own interquartile range (cmd/benchpair). ~3 min per pair of all
# four workloads; WORKLOADS=churn,bulk pairs only those named.
PAIRS ?= 10
WORKLOADS ?=
bench-pair:
	@test -n "$(REF)" || { echo "usage: make bench-pair REF=<commit> [PAIRS=10] [WORKLOADS=a,b]"; exit 2; }
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'git worktree remove --force '$$tmp'/ref >/dev/null 2>&1; rm -rf '$$tmp EXIT; \
	git worktree add --detach $$tmp/ref $(REF) >/dev/null; \
	( cd $$tmp/ref && $(GO) build -o $$tmp/bench-ref ./bench ); \
	$(GO) build -o $$tmp/bench-head ./bench; \
	$(GO) run ./cmd/benchpair -ref $$tmp/bench-ref -head $$tmp/bench-head -pairs $(PAIRS) $(if $(WORKLOADS),-workloads $(WORKLOADS))

# Non-test Go lines outside bench/: the size figure ROADMAP.md and every
# CHANGES.md entry report before and after a change.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# What a change does to `make loc`: the count at REF (unpacked from a `git
# archive` of it, as cover-ref does) and in the working tree, and the
# difference. Report only.
loc-ref:
	@test -n "$(REF)" || { echo "usage: make loc-ref REF=<commit>"; exit 2; }
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf '$$tmp EXIT; \
	git archive $(REF) | tar -x -C $$tmp; \
	ref=$$($(MAKE) -s --no-print-directory -C $$tmp -f $(CURDIR)/Makefile loc); \
	head=$$($(MAKE) -s --no-print-directory loc); \
	echo "== loc-ref: $$ref lines at $(REF), $$head in the working tree ($$(printf '%+d' $$((head - ref))))"

# Statement coverage of internal/ and cmd/ by every test of both: the total,
# then the count and names of the functions no test runs. A function with no
# statements (an empty body) reads 0.0% from `go tool cover -func` whether it
# ran or not, so a 0.0% function is listed only when the profile has no run
# block starting on its first line either. Report only; the profile lives in
# a temporary directory.
cover:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf '$$tmp EXIT; \
	$(GO) test -coverpkg=./internal/...,./cmd/... -coverprofile=$$tmp/cover.out ./internal/... ./cmd/... >$$tmp/test.log 2>&1 \
		|| { cat $$tmp/test.log; exit 1; }; \
	$(GO) tool cover -func=$$tmp/cover.out >$$tmp/func.txt; \
	grep '^total:' $$tmp/func.txt | awk '{ print "statement coverage: " $$NF }'; \
	awk 'NR > 1 && $$NF > 0 { split($$1, b, ":"); split(b[2], l, "."); print b[1] ":" l[1] ":" }' $$tmp/cover.out >$$tmp/ran.txt; \
	grep -v '^total:' $$tmp/func.txt | awk 'NR == FNR { ran[$$1]; next } $$NF == "0.0%" && !($$1 in ran) { sub(/:[0-9]+:$$/, "", $$1); print "  " $$1 " " $$2 }' $$tmp/ran.txt - >$$tmp/zero.txt; \
	echo "functions at 0%: $$(wc -l <$$tmp/zero.txt)"; \
	cat $$tmp/zero.txt

# The rule that a change may not raise the number of functions no test
# runs: `make cover` on the working tree and on REF (unpacked from a `git
# archive` of it and covered by this Makefile's recipe, so a REF older than
# the target works too), both counts printed, and the target fails when the
# working tree's is higher, naming the functions only it lists.
cover-ref:
	@test -n "$(REF)" || { echo "usage: make cover-ref REF=<commit>"; exit 2; }
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf '$$tmp EXIT; \
	mkdir $$tmp/ref; \
	git archive $(REF) | tar -x -C $$tmp/ref; \
	$(MAKE) -s --no-print-directory -C $$tmp/ref -f $(CURDIR)/Makefile cover >$$tmp/ref.txt || { cat $$tmp/ref.txt; exit 1; }; \
	$(MAKE) -s --no-print-directory cover >$$tmp/head.txt || { cat $$tmp/head.txt; exit 1; }; \
	ref=$$(sed -n 's/^functions at 0%: //p' $$tmp/ref.txt); \
	head=$$(sed -n 's/^functions at 0%: //p' $$tmp/head.txt); \
	echo "== cover-ref: functions at 0%: $$ref at $(REF), $$head in the working tree"; \
	if [ "$$head" -gt "$$ref" ]; then \
		grep '^  ' $$tmp/ref.txt | sort >$$tmp/ref.list; \
		grep '^  ' $$tmp/head.txt | sort >$$tmp/head.list; \
		echo "== cover-ref: the never-run count rose; at 0% only in the working tree:"; \
		comm -13 $$tmp/ref.list $$tmp/head.list; \
		exit 1; \
	fi

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The one-off cells no other target runs; any non-zero exit fails. Every
# registered scenario at -set smoke runs twice in smoke-workspace (and at
# shards=4 in smoke-shards), so it is not run again here. An explicit -set
# beats the smoke size of its key, and the larger fleet cell checks that it
# ran the 48 devices it names. The last step exercises the tracing pipeline
# end to end: record a traced fig2a run and analyse it with `mpexp report`
# (text, JSON, and CSV exports all must succeed). The first step runs the
# scale cell under every in-kernel path manager and the userspace controller
# that reimplements each, by policy name: each must finish all four
# transfers.
smoke:
	@set -e; \
	bin=$$(mktemp -u); \
	$(GO) build -o $$bin ./cmd/mpexp; \
	trap 'rm -f '$$bin EXIT; \
	for p in kernel kernel-ndiffports kernel-none fullmesh ndiffports; do \
		echo "== smoke: mpexp run scale -set policy=$$p (4/4 done)"; \
		$$bin run scale -set smoke -set policy=$$p | grep -E "^[^ ]+ +$$p +4/4 " >/dev/null; \
	done; \
	echo "== smoke: mpexp run fleet (48 devices, 2x handover rate)"; \
	$$bin run fleet -set smoke -set devices=48 -set handover_rate=2 | grep '^48 devices' >/dev/null; \
	echo "== smoke: mpexp run ctlstress (wide window, tight queue)"; \
	$$bin run ctlstress -set smoke -set window=1ms -set queue=16 >/dev/null; \
	tdir=$$(mktemp -d); \
	echo "== smoke: mpexp run fleet -set metrics=FILE (runtime metrics export)"; \
	$$bin run fleet -set smoke -set metrics=$$tdir/fleet.metrics.json >/dev/null; \
	test -s $$tdir/fleet.metrics.json; \
	echo "== smoke: mpexp run fig2a -set trace=FILE && mpexp report"; \
	$$bin run fig2a -set smoke -set trace=$$tdir/fig2a.trace >/dev/null; \
	$$bin report $$tdir/fig2a.trace -csv $$tdir/csv >/dev/null 2>&1; \
	$$bin report $$tdir/fig2a.trace -json >/dev/null; \
	rm -rf $$tdir

# Every registered scenario once more, but with shards=4 on a
# race-instrumented binary: the end-to-end gate for the sharded parallel
# core's cross-shard synchronisation. Per-seed results are bit-identical
# at any shard count, so any divergence or data race here is a bug in
# the lookahead windows, not the model. Tracing is single-shard only
# (rejected with shards > 1), so the traced run stays in `smoke` and a
# manifest that asks for a trace is skipped here. Every other committed
# manifest runs too: the controller, scheduler, fleet and scale sweeps are
# data (examples/manifests/), and this is where their every cell meets the
# sharded core. The two explicit cells are larger than their scenario's
# smoke size (an explicit key beats smoke); the fleet one checks it ran 64
# devices.
smoke-shards:
	@set -e; \
	bin=$$(mktemp -u); \
	$(GO) build -race -o $$bin ./cmd/mpexp; \
	trap 'rm -f '$$bin EXIT; \
	for s in $$($$bin list -names); do \
		echo "== smoke (-race, shards=4): mpexp run $$s"; \
		$$bin run $$s -set smoke -set shards=4 >/dev/null; \
	done; \
	echo "== smoke (-race, shards=4): mpexp run fleet (64 devices)"; \
	$$bin run fleet -set smoke -set shards=4 -set devices=64 | grep '^64 devices' >/dev/null; \
	echo "== smoke (-race, shards=4): mpexp run ctlstress (8 conns)"; \
	$$bin run ctlstress -set smoke -set shards=4 -set conns=8 >/dev/null; \
	for m in examples/manifests/*.json; do \
		if grep -q '"trace' $$m; then \
			echo "== smoke (-race, shards=4): skipping $$m (traced: single-shard only)"; \
			continue; \
		fi; \
		echo "== smoke (-race, shards=4): mpexp run $$m"; \
		$$bin run $$m -set shards=4 -ws none >/dev/null; \
	done

# Workspace round-trip gate: init a temp .mpexp workspace, run every
# registered scenario twice (same seed, captured into the workspace) and
# require `mpexp diff` to come back clean at tolerance 0 — any drift
# between two identical runs is a determinism regression. The committed
# example manifests (examples/manifests/) are also run twice and diffed,
# gating the manifest loader and the sweep cell layout end to end. The
# fleet and ctlstress pairs run with -set metrics, so the diff also covers the
# captured metrics snapshots — fleet's metrics.json and the
# metrics.json.immediate/.coalesced a two-run spec writes (wall-clock-tagged
# metrics excluded, everything else compared at tolerance 0). The last pair
# runs fig2b over two seeds, so the diff pairs the result.json.seed1 and
# result.json.seed2 each multi-seed run stores.
smoke-workspace:
	@set -e; \
	bin=$$(mktemp -u); \
	$(GO) build -o $$bin ./cmd/mpexp; \
	trap 'rm -f '$$bin EXIT; \
	ws=$$(mktemp -d); \
	( cd $$ws; $$bin init >/dev/null; \
	  for s in $$($$bin list -names); do \
		echo "== workspace smoke: $$s (run twice + diff)"; \
		$$bin run $$s -set smoke >/dev/null; \
		$$bin run $$s -set smoke >/dev/null; \
		$$bin diff $$s-001 $$s-002; \
	  done; \
	  for m in $(CURDIR)/examples/manifests/*.json; do \
		n=$$(basename $$m .json); \
		echo "== workspace smoke: manifest $$n (run twice + diff)"; \
		$$bin run $$m >/dev/null; \
		$$bin run $$m >/dev/null; \
		$$bin diff $$n-001 $$n-002; \
	  done; \
	  echo "== workspace smoke: fleet -set metrics (run twice + diff metrics.json)"; \
	  $$bin run fleet -set smoke -set metrics >/dev/null; \
	  $$bin run fleet -set smoke -set metrics >/dev/null; \
	  test -s .mpexp/runs/fleet-003/metrics.json; \
	  $$bin diff fleet-003 fleet-004; \
	  echo "== workspace smoke: ctlstress -set metrics (run twice + diff metrics.json.<run>)"; \
	  $$bin run ctlstress -set smoke -set metrics >/dev/null; \
	  $$bin run ctlstress -set smoke -set metrics >/dev/null; \
	  test -s .mpexp/runs/ctlstress-003/metrics.json.coalesced; \
	  $$bin diff ctlstress-003 ctlstress-004; \
	  echo "== workspace smoke: fig2b -seeds 2 (run twice + diff result.json.seed<N>)"; \
	  $$bin run fig2b -set smoke -seeds 2 >/dev/null; \
	  $$bin run fig2b -set smoke -seeds 2 >/dev/null; \
	  test -s .mpexp/runs/fig2b-003/result.json.seed2; \
	  $$bin diff fig2b-003 fig2b-004 ); \
	rm -rf $$ws

# Parent-vs-change gate for a refactor that must keep every simulated
# byte: build cmd/mpexp at REF (from a `git archive` of it) and from the
# working tree, run every registered scenario at smoke size three ways
# (plain, -set metrics, -set shards=2) into one workspace per side, and require `mpexp
# diff` at tolerance 0 on every pair across the two — metrics.json
# included. Then compare `mpexp report -json` of a traced fig2a, scale and
# fleet run: the analysis must be byte-identical even where the raw trace
# orders its shards differently. Then the sweep side of the executor: one
# flag-driven multi-seed sweep, one traced and one metered single-seed
# sweep and every examples/manifests/*.json, each diffed at tolerance 0
# cell directory by cell directory, and the stdout each side printed
# compared with cmp (a difference is sized as lines added and removed; a
# sweep report prints no wall-clock scalar, so every stdout is compared).
# The scenario and manifest lists are the working tree's, and each side
# runs its own copy of a manifest, spelled as its loader reads it. A
# scenario only one side registers, and a manifest only the working tree
# has or over such a scenario, cannot be compared: it is named, not
# failed on. Every other pair is compared;
# under each run that differs the keys that do are listed, and the target
# fails at the end if any did — so a change that is meant to move some
# runtime counters (and nothing else) can show exactly that. One kind of
# difference is named but not counted: a run whose every differing value is
# a `pool_*` metric. Those count free-list traffic — how the allocator was
# used, not what was simulated — and move whenever an event or buffer
# starts or stops being pooled.
#
# A REF from before multi-seed runs stored one result.json.seed<N> per seed
# (it stored one summary.json) differs on fig2b-004 in result shape only:
# its result.json.seed1 and result.json.seed2 are "only in B", and its
# stdout is identical.
smoke-ref:
	@test -n "$(REF)" || { echo "usage: make smoke-ref REF=<commit>"; exit 2; }
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf '$$tmp EXIT; \
	mkdir $$tmp/ref; \
	git archive $(REF) | tar -x -C $$tmp/ref; \
	( cd $$tmp/ref && $(GO) build -o $$tmp/mpexp-ref ./cmd/mpexp ); \
	$(GO) build -o $$tmp/mpexp-head ./cmd/mpexp; \
	$$tmp/mpexp-ref list -names | sort >$$tmp/names-ref; \
	$$tmp/mpexp-head list -names | sort >$$tmp/names-head; \
	names=$$(comm -12 $$tmp/names-ref $$tmp/names-head); \
	for n in $$(comm -23 $$tmp/names-ref $$tmp/names-head); do echo "== smoke-ref: scenario $$n only at $(REF), not compared"; done; \
	for n in $$(comm -13 $$tmp/names-ref $$tmp/names-head); do echo "== smoke-ref: scenario $$n only in the working tree, not compared"; done; \
	manifests=; \
	for m in $$(cd examples/manifests && ls *.json | sed 's/\.json$$//'); do \
		scn=$$(sed -n 's/.*"scenario": *"\([^"]*\)".*/\1/p' examples/manifests/$$m.json); \
		if [ ! -f $$tmp/ref/examples/manifests/$$m.json ]; then \
			echo "== smoke-ref: manifest $$m only in the working tree, not compared"; \
		elif echo "$$names" | grep -qx "$$scn"; then \
			manifests="$$manifests $$m"; \
		else \
			echo "== smoke-ref: manifest $$m runs $$scn, which only one side has, not compared"; \
		fi; \
	done; \
	for side in ref head; do \
		bin=$$tmp/mpexp-$$side; \
		mdir=$(CURDIR)/examples/manifests; \
		if [ $$side = ref ]; then mdir=$$tmp/ref/examples/manifests; fi; \
		mkdir $$tmp/$$side-ws; \
		( cd $$tmp/$$side-ws; $$bin init >/dev/null; \
		  for s in $$names; do \
			$$bin run $$s -set smoke >/dev/null 2>&1; \
			$$bin run $$s -set smoke -set metrics >/dev/null 2>&1; \
			$$bin run $$s -set smoke -set shards=2 >/dev/null 2>&1; \
		  done; \
		  for s in fig2a scale fleet; do \
			$$bin run $$s -set smoke -ws none -set trace=$$s.trace >/dev/null 2>&1; \
			$$bin report $$s.trace -json >$$s.report.json; \
		  done; \
		  $$bin sweep fig2b -set smoke -vary policy=fullmesh,stream -vary loss=0.1,0.3 -seeds 2 >fig2b-004.out 2>/dev/null; \
		  $$bin sweep fig2a -set smoke -vary loss=0.2,0.4 -set trace >fig2a-004.out 2>/dev/null; \
		  $$bin sweep fig2a -set smoke -vary loss=0.2,0.4 -set metrics >fig2a-005.out 2>/dev/null; \
		  for m in $$manifests; do \
			$$bin run $$mdir/$$m.json >$$m-001.out 2>/dev/null; \
		  done ); \
	done; \
	echo "== smoke-ref: runs 001 = plain, 002 = -set metrics, 003 = -set shards=2;"; \
	echo "== fig2b-004 = sweep -seeds 2, fig2a-004 = traced sweep, fig2a-005 = metered sweep, <manifest>-001"; \
	differing=0; \
	runs=$$(for s in $$names; do echo $$s-001 $$s-002 $$s-003; done); \
	sweeps="fig2b-004 fig2a-004 fig2a-005 $$(for m in $$manifests; do echo $$m-001; done)"; \
	for r in $$runs $$sweeps; do \
		if out=$$($$tmp/mpexp-head diff $$tmp/ref-ws/.mpexp/runs/$$r $$tmp/head-ws/.mpexp/runs/$$r); then \
			echo "== smoke-ref: $$r identical"; \
		elif echo "$$out" | grep -q '^  ' && ! echo "$$out" | grep '^  ' | grep -qvE '(^  |: )metric pool_[a-z0-9_]+: [0-9]+ -> '; then \
			echo "== smoke-ref: $$r identical but for pool counters ($$(echo "$$out" | grep -c '^  ') of them)"; \
		else \
			echo "== smoke-ref: $$r DIFFERS in:"; \
			echo "$$out" | sed -n 's/^  \([^:]*\):.*/     \1/p'; \
			differing=$$((differing+1)); \
		fi; \
	done; \
	for r in $$sweeps; do \
		if cmp -s $$tmp/ref-ws/$$r.out $$tmp/head-ws/$$r.out; then \
			echo "== smoke-ref: $$r stdout identical"; \
		else \
			d=$$(diff $$tmp/ref-ws/$$r.out $$tmp/head-ws/$$r.out || true); \
			echo "== smoke-ref: $$r stdout DIFFERS: $$(echo "$$d" | grep -c '^>') lines added, $$(echo "$$d" | grep -c '^<') removed"; \
			differing=$$((differing+1)); \
		fi; \
	done; \
	for s in fig2a scale fleet; do \
		if cmp -s $$tmp/ref-ws/$$s.report.json $$tmp/head-ws/$$s.report.json; then \
			echo "== smoke-ref: traced $$s, report -json identical"; \
		else \
			echo "== smoke-ref: traced $$s, report -json DIFFERS"; \
			differing=$$((differing+1)); \
		fi; \
	done; \
	echo "== smoke-ref: $$differing of $$(( $$(echo $$runs | wc -w) + 2 * $$(echo $$sweeps | wc -w) + 3 )) comparisons differ"; \
	test $$differing -eq 0

# The paper's split deployment across a real process boundary, end to end:
# smappd (the kernel half: a canned two-path world paced on the wall clock)
# serves its Netlink PM on a Unix socket under a temporary directory, and
# smappctl attaches from a second process with the fullmesh policy. smappd
# must run its 3 s to the end and report what the receiver got, and
# smappctl must have answered the connection's events with at least one
# command by the time the socket closes. No network: one Unix socket.
smoke-split:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf '$$tmp EXIT; \
	$(GO) build -o $$tmp/smappd ./cmd/smappd; \
	$(GO) build -o $$tmp/smappctl ./cmd/smappctl; \
	echo "== smoke-split: smappd -run 3s | smappctl -policy fullmesh"; \
	$$tmp/smappd -sock $$tmp/s -run 3s >$$tmp/smappd.out 2>$$tmp/smappd.err & pid=$$!; \
	for i in $$(seq 100); do test -S $$tmp/s && break; sleep 0.1; done; \
	test -S $$tmp/s || { echo "smappd never opened its socket"; cat $$tmp/smappd.err; exit 1; }; \
	$$tmp/smappctl -sock $$tmp/s -policy fullmesh >$$tmp/smappctl.out 2>&1; \
	wait $$pid; \
	grep 'done; receiver got' $$tmp/smappd.out || { echo "smappd did not finish its run"; cat $$tmp/smappd.err; exit 1; }; \
	grep -oE 'events=[0-9]+ commands=[1-9][0-9]*' $$tmp/smappctl.out || { echo "smappctl sent no command"; cat $$tmp/smappctl.out; exit 1; }

# Build and RUN every example end to end; any non-zero exit fails. The
# examples are the facade's acceptance surface, so they are executed,
# not just compiled. examples/manifests/ holds scenario manifests, not
# Go programs — directories without Go files are skipped (the manifests
# are exercised by smoke-workspace instead).
examples:
	@set -e; for d in examples/*/; do \
		ls $$d*.go >/dev/null 2>&1 || continue; \
		echo "== $$d"; $(GO) run ./$$d; \
	done
