GO ?= go

.PHONY: build test verify lint fuzz fuzz-smoke bench-lod bench-steps bench-wire bench-smoke bench-repo fmt loc knobs prefix-sums serve cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 recipe (see README "Testing" and
# .claude/skills/verify/SKILL.md), plus a -race leg over the concurrent
# serving packages (result cache singleflight and trace-ownership hooks,
# HTTP handlers with the trace-residency, row-route golden/differential,
# aborted-render and pooled-compressor tests, query engine, the JSON writer,
# the cluster gateway + multi-node E2E harness) and over the
# conformance harness + adversarial generators (parallel extraction
# sweeps at three worker counts).
verify: build test
	$(GO) vet ./...
	$(GO) test -race ./internal/core ./internal/partition ./internal/tracefile
	$(GO) test -race ./internal/resultcache ./internal/server ./internal/query ./internal/jsonw ./internal/cluster ./internal/lod
	$(GO) test -race ./internal/conformance ./internal/apps/lbmigrate ./internal/apps/faultsim ./internal/apps/ordstress

# lint runs staticcheck when it is installed (CI installs it; offline dev
# boxes may not have it — the gate keeps `make lint` usable everywhere).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fuzz is the CI smoke leg: short coverage-guided runs over the
# untrusted-input decoders — format sniffing (ReadAuto, which for inputs
# with the binary magic also holds the windowed decoder and flat index
# against the field-by-field decoder and naive maps they replaced) and the
# Projections log reader. The checked-in corpora under
# internal/tracefile/testdata/fuzz replay on every plain `go test`. Each run
# targets one fuzz function: `go test -fuzz` requires the pattern to match
# exactly one target.
fuzz:
	$(GO) test -fuzz=FuzzReadAuto -fuzztime=20s -fuzzminimizetime=1s ./internal/tracefile
	$(GO) test -fuzz=FuzzReadProjections -fuzztime=20s -fuzzminimizetime=1s ./internal/tracefile

# fuzz-smoke gives every Fuzz* target in the tree ten seconds: the two above,
# the text reader, and the decoders that run with no trace to lean on — the
# persisted event table (FuzzReadTable) and the structure codec against a
# table alone (FuzzDecodeStructure, FuzzDecodeStructureSummary) — and the
# row-response writer against encoding/json's indenting Encoder over random
# value trees (FuzzJSONWriter) — and the CSR grouper against a stable sort
# over random key columns (FuzzGroup). Their seed corpora replay on every
# plain `go test`; this leg is not in tier-1.
fuzz-smoke:
	@for t in FuzzRead FuzzReadAuto FuzzReadProjections FuzzReadTable; do \
		$(GO) test -run '^$$' -fuzz="^$$t\$$" -fuzztime=10s -fuzzminimizetime=1s ./internal/tracefile || exit 1; \
	done
	@for t in FuzzDecodeStructure FuzzDecodeStructureSummary; do \
		$(GO) test -run '^$$' -fuzz="^$$t\$$" -fuzztime=10s -fuzzminimizetime=1s ./internal/core || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz='^FuzzJSONWriter$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/jsonw
	$(GO) test -run '^$$' -fuzz='^FuzzGroup$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/flat

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
# benchmark's medium scale (the traces cold-ingest uploads) and reports
# ns/event and pyramid B/event beside the usual -benchmem columns. For
# measuring while working on internal/lod; claims go through bench-repo.
bench-lod:
	$(GO) test -run '^$$' -bench 'BenchmarkBuild$$' -benchmem -benchtime 20x -count 3 ./internal/lod

# bench-steps times the ordering stage (core's step-assignment, §3.2) on the
# five trace shapes of the repository benchmark's batch-extract workload and
# reports its wall time per event (steps-ns/event) beside the whole
# extraction's ns/event and the -benchmem columns, on one core and on two. For
# measuring while working on internal/core/steps.go; claims go through
# bench-repo.
bench-steps:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelStepAssignment$$' -benchmem -benchtime 5x -count 3 -cpu 1,2 .

# bench-wire times one warm, gzip-accepting request per iteration on the four
# row-shaped routes (full /steps, a /steps window through the query engine,
# grouped /metrics, /structure) over the medium jacobi, handler to discarded
# socket: -benchmem columns plus ns and body bytes per row. For measuring
# while working on the wire path (internal/jsonw, the renderers and the
# compressor pool in internal/server, query.Rows); claims go through
# bench-repo.
bench-wire:
	$(GO) test -run '^$$' -bench 'BenchmarkRender' -benchmem -benchtime 50x -count 3 ./internal/server

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
