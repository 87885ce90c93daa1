GO ?= go

.PHONY: build test verify lint fuzz-smoke doc-flags doc-links bench-lod bench-steps bench-batch bench-codec bench-wire bench-smoke bench-repo fmt loc knobs prefix-sums serve cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 recipe (see README "Testing" and
# .claude/skills/verify/SKILL.md), plus a -race leg over the concurrent
# serving packages (the per-trace file store's appends, GC rewrites and
# readers, result cache singleflight and trace-ownership hooks, stored
# responses spilled at eviction racing their lookups on disk,
# HTTP handlers with the trace-residency, row-route golden/differential,
# aborted-render and pooled-compressor tests, query engine, the JSON writer,
# the cluster gateway + multi-node E2E harness) and over the
# conformance harness + adversarial generators (parallel extraction
# sweeps at three worker counts).
verify: build test
	$(GO) vet ./...
	$(GO) test -race ./internal/core ./internal/partition ./internal/tracefile
	$(GO) test -race ./internal/store ./internal/resultcache ./internal/server ./internal/query ./internal/jsonw ./internal/cluster ./internal/lod
	$(GO) test -race ./internal/conformance ./internal/apps/lbmigrate ./internal/apps/faultsim ./internal/apps/ordstress

# lint runs staticcheck when it is installed (CI installs it; offline dev
# boxes may not have it — the gate keeps `make lint` usable everywhere).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fuzz-smoke, the CI fuzz leg, gives every Fuzz* target in the tree ten
# seconds. It finds them itself: `go test -list '^Fuzz'` over each package
# with tests, so a target added or deleted needs no edit here. It runs one
# target per `go test -fuzz` (the pattern must match exactly one) and prints
# each name before its run. The targets are the untrusted-input decoders
# (format sniffing, the text reader, the persisted event table, the
# structure codec, the store's open, the -peers and spec parsers, the page
# cursor) and the rewritten kernels held against the code they replaced
# (JSON writer, CSR grouper, varint reader, LOD pyramid, ordering stage);
# each target's doc comment says what it holds. Their seed corpora replay
# on every plain `go test`; this leg is not in tier-1.
fuzz-smoke:
	@n=0; \
	for p in $$($(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		ts=$$($(GO) test -list '^Fuzz' $$p) || exit 1; \
		for t in $$(echo "$$ts" | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$t ($$p)"; \
			$(GO) test -run '^$$' -fuzz="^$$t\$$" -fuzztime=10s -fuzzminimizetime=1s $$p || exit 1; \
			n=$$((n+1)); \
		done; \
	done; \
	echo "fuzz-smoke: $$n targets"

# doc-flags is a gate (CI's verify job): every `go run ./cmd/<bin> ...`,
# `$(GO) run ./cmd/<bin> ...` and `/tmp/<bin> ...` command line in the files
# below (the docs and this Makefile's recipes) is held to `<bin> -h`: the
# cmd/<bin> a `go run` names must exist, and each -flag token before the
# first #, |, >, ;, & or backtick must be a flag the binary lists, so a
# renamed or deleted flag or command cannot stay documented. Each binary is
# built once, as for `make knobs`.
DOCFILES ?= README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md Makefile
doc-flags:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; bad=0; \
	for d in cmd/*; do \
		b=$${d#cmd/}; $(GO) build -o $$tmp/$$b ./$$d || exit 1; \
		$$tmp/$$b -h 2>&1 | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' > $$tmp/$$b.flags; \
	done; \
	set -f; for f in $(DOCFILES); do \
		grep -nEo '(go run \./cmd/|\$$\(GO\) run \./cmd/|/tmp/)[a-z-]+[^#|>;&`]*' $$f > $$tmp/lines || continue; \
		while IFS= read -r line; do \
			n=$${line%%:*}; cmd=$${line#*:}; b=$${cmd#*run ./cmd/}; b=$${b#/tmp/}; b=$${b%% *}; \
			if [ ! -f $$tmp/$$b.flags ]; then \
				case $$cmd in /tmp/*) ;; *) echo "$$f:$$n: there is no cmd/$$b"; bad=1;; esac; continue; \
			fi; \
			cmd=$${cmd#*$$b}; \
			for tok in $$cmd; do \
				case $$tok in -[a-z]*|--[a-z]*) ;; *) continue;; esac; \
				flag=$${tok#-}; flag=$${flag#-}; flag=$${flag%%=*}; \
				grep -qx -- "$$flag" $$tmp/$$b.flags || { echo "$$f:$$n: $$b has no -$$flag"; bad=1; }; \
			done; \
		done < $$tmp/lines; \
	done; \
	[ $$bad = 0 ] && echo "doc-flags: every documented flag exists"

# doc-links is a gate (CI's verify job): every relative Markdown link in the
# files below and under docs/ must name a file or directory that exists,
# resolved from the linking file's directory (a #fragment is dropped; http,
# https and mailto links are not checked), so a moved or deleted document
# cannot stay linked.
LINKFILES ?= README.md DESIGN.md EXPERIMENTS.md ROADMAP.md
doc-links:
	@bad=0; for f in $(LINKFILES) $$(find docs -name '*.md' 2>/dev/null); do \
		d=$$(dirname $$f); \
		for t in $$(grep -o '](\([^)]*\))' $$f | sed 's/^](//; s/)$$//; s/#.*//'); do \
			case $$t in ''|http://*|https://*|mailto:*) continue;; esac; \
			[ -e "$$d/$$t" ] || { echo "$$f: link to missing $$t"; bad=1; }; \
		done; \
	done; \
	[ $$bad = 0 ] && echo "doc-links: every relative link resolves"

# bench-smoke runs the repository benchmark (bench/, BENCHMARK.json) at toy
# sizes in about ten seconds: all four workloads, real child processes,
# every answer checked. It proves the benchmark runs, not a number.
bench-smoke:
	$(GO) run ./bench -quick

# bench-repo is the full repository benchmark: four workloads, each
# untraced (eight end-to-end metrics) then traced (per-layer metrics),
# written to bench/out/ with one trajectory line appended to
# bench/out/history.jsonl. Performance claims are made against this
# benchmark and only by the rule in bench/README.md "Claiming a gain"
# (alternating pairs against the parent commit).
bench-repo:
	$(GO) run ./bench -seed 1 -append bench/out/history.jsonl

# bench-lod times lod.Build over the nine zoo apps at the repository
# benchmark's medium scale (the traces cold-ingest uploads), with the levels
# each shape of traffic reads built — the overview; the overview and the
# first zoom; every level — and reports ns/event and pyramid B/event beside
# the usual -benchmem columns, and lod.Query on the same pyramids in
# warm-explore's request shapes (ns/op, allocs/op). For measuring while working on internal/lod; claims go
# through bench-repo. BENCHRUNS as for bench-steps.
bench-lod:
	$(GO) test -run '^$$' -bench 'Benchmark(Build|Query)$$' -benchmem $(BENCHRUNS) ./internal/lod

# bench-steps times Extract on the five trace shapes of the repository
# benchmark's batch-extract workload and the nine medium zoo shapes its
# cold-ingest workload uploads (zoo-<app>), and reports every pipeline
# stage's wall time per event (<stage>-ns/event, from Stats.StageTime:
# initial ... step-assignment) beside the whole extraction's ns/event, each
# shape's events and phases, and the -benchmem columns, on one core and on
# two. For measuring while working on
# internal/core or internal/partition; claims go through bench-repo.
# BENCHRUNS sets the repetitions of this target, bench-batch, bench-codec,
# bench-lod and bench-wire (CI runs each once: BENCHRUNS='-benchtime 1x').
BENCHRUNS ?= -benchtime 5x -count 3
bench-steps:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelStepAssignment$$' -benchmem $(BENCHRUNS) -cpu 1,2 .

# bench-batch times one op of the repository benchmark's batch-extract
# workload — decode the binary trace, Extract, ComputeMetrics — on each of its
# five shapes at -cpu 2 (the workload's one worker on a two-core runner):
# ns/event and the -benchmem columns. The in-process twin of
# `go run ./bench --workload batch-extract`, for profiling
# (-cpuprofile); claims go through bench-repo.
bench-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkBatchExtractOp$$' -benchmem $(BENCHRUNS) -cpu 2 .

# bench-codec times the three binary formats on the five batch-extract
# shapes: .cstr encode, full decode and summary, .trace WriteBinary and
# ReadBinary, .tbl WriteTable and ReadTable — ns/event and the -benchmem
# columns (allocs/op). For measuring while working on internal/varint or a
# codec; a report, not a gate. BENCHRUNS as for bench-steps.
bench-codec:
	$(GO) test -run '^$$' -bench 'BenchmarkCodec$$' -benchmem $(BENCHRUNS) .

# bench-wire times one warm, gzip-accepting request per iteration on the four
# row-shaped routes (full /steps, a /steps window through the query engine,
# grouped /metrics, /structure) and on POST /query over the medium jacobi,
# handler to discarded socket: -benchmem columns plus ns and body bytes per
# row. Each iteration asks for a URL or a spec not seen before, so it
# renders, compresses and stores the response rather than serving a stored
# one; BenchmarkServeStored times the repeats (a full /steps GET, a POST
# /query) that are served from the stored bytes kept with the resident entry,
# and (/spilled) the /steps GET served from the section its bytes were
# spilled to when the entry was evicted. For measuring while working
# on the wire path (internal/jsonw, the renderers and the compressor pool in
# internal/server, query.Rows, stored responses); claims go through
# bench-repo. BENCHRUNS as for bench-steps.
bench-wire:
	$(GO) test -run '^$$' -bench 'Benchmark(Render|ServeStored)' -benchmem $(BENCHRUNS) ./internal/server

# serve starts the charmd analysis service on :8080 with its cache in
# .charmd-cache/ (gitignored). See README "Serving".
serve:
	$(GO) run ./cmd/charmd -addr :8080 -data-dir .charmd-cache

# cluster starts a 3-node charmd fleet (:8081-:8083) plus the
# consistent-hash gateway on :8090, all on this machine — the quickest way
# to try sharded routing, failover and peer cache fill. Ctrl-C stops all
# four. See README "Clustering".
cluster: build
	@trap 'kill 0' INT TERM; \
	$(GO) run ./cmd/charmd -addr :8081 -data-dir .charmd-n0 -node-name n0 -peers 'n0=http://127.0.0.1:8081,n1=http://127.0.0.1:8082,n2=http://127.0.0.1:8083' & \
	$(GO) run ./cmd/charmd -addr :8082 -data-dir .charmd-n1 -node-name n1 -peers 'n0=http://127.0.0.1:8081,n1=http://127.0.0.1:8082,n2=http://127.0.0.1:8083' & \
	$(GO) run ./cmd/charmd -addr :8083 -data-dir .charmd-n2 -node-name n2 -peers 'n0=http://127.0.0.1:8081,n1=http://127.0.0.1:8082,n2=http://127.0.0.1:8083' & \
	$(GO) run ./cmd/charm-gateway -addr :8090 -peers 'n0=http://127.0.0.1:8081,n1=http://127.0.0.1:8082,n2=http://127.0.0.1:8083' & \
	wait

fmt:
	gofmt -l -w .

# loc prints the non-test Go lines of each package (the root package, cmd/*,
# internal/* and internal/apps/*) and their total — the figure a simplicity
# PR is judged by (DESIGN.md §5). A report, not a gate; bench/ and examples/
# are not product code and are left out.
loc:
	@total=0; for d in . cmd/* internal/* internal/apps/*; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		[ $$n -gt 0 ] || continue; \
		printf '%7d  %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%7d  total\n' $$total

# prefix-sums lists the hand-written count -> prefix-sum -> fill loops left in
# non-test Go outside internal/flat, by their `x[i] += x[i-1]` line. DESIGN.md
# §5 names the ones kept on purpose and why; a new one is a copy of
# flat.Group. A report, not a gate.
prefix-sums:
	@grep -rnE '\[[a-z]+\] \+= [a-zA-Z.]*\[[a-z]+ ?- ?1\]' --include='*.go' --exclude='*_test.go' --exclude-dir=flat *.go cmd internal \
		| awk '{print} END {printf "%7d  hand-written prefix-sum loops outside internal/flat\n", NR}'

# knobs counts what can be set independently: the flags each cmd/* binary's
# -h prints, and the exported fields of the configuration structs behind
# them. The figure a simplicity PR reports beside `make loc` (DESIGN.md §5).
# A report, not a gate.
knobs:
	@total=0; bins=0; tmp=$$(mktemp -d); for d in cmd/*; do \
		$(GO) build -o $$tmp/bin ./$$d || exit 1; \
		n=$$($$tmp/bin -h 2>&1 | grep -c '^  -'); \
		printf '%7d  %s flags\n' $$n $$d; total=$$((total + n)); bins=$$((bins + 1)); \
	done; rm -rf $$tmp; printf '%7d  flags over %d binaries\n' $$total $$bins
	@for spec in internal/server/server.go:Config internal/resultcache/resultcache.go:Config \
		internal/cluster/gateway.go:GatewayConfig internal/cluster/peers.go:PeersConfig \
		internal/core/options.go:Options; do \
		f=$${spec%%:*}; t=$${spec##*:}; \
		n=$$(awk -v t="$$t" '$$0 ~ "^type " t " struct" {on=1; next} on && /^}/ {on=0} on && /^\t[A-Z]/ {n++} END {print n+0}' $$f); \
		printf '%7d  %s.%s exported fields\n' $$n $$(basename $$(dirname $$f)) $$t; \
	done
