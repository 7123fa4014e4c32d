GO ?= go

.PHONY: build test examples vet fmt-check race server-race shard-race bench-harness bench-smoke lines api kernel-bench ci bench bench-json clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples runs every examples/* program: each drives the public facade
# (Table.Query, Where, MedianContext, ...) end to end, and a non-zero exit
# — log.Fatal on an aggregate's error exits 1, a panic 2 — fails the
# target. It then drives the cmd/bpagg CLI the same way: a three-row CSV
# through `load`, and one SELECT through `query -stats`, in a temporary
# directory.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" > /dev/null || exit 1; done
	@echo "== cmd/bpagg"; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	printf 'price,qty,region\n1.50,3,EU\n2.25,7,US\n0.75,1,EU\n' > "$$tmp/t.csv" && \
	$(GO) build -o "$$tmp/bpagg" ./cmd/bpagg && \
	"$$tmp/bpagg" load -csv "$$tmp/t.csv" -schema 'price:decimal(2,1000),qty:uint(4):hbp,region:string' -out "$$tmp/t.bpag" && \
	"$$tmp/bpagg" query -table "$$tmp/t.bpag" -stats "SELECT SUM(price), MEDIAN(qty) WHERE qty < 5 GROUP BY region"

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would rewrite any file (benchmark/ included:
# it is a module of its own, but gofmt walks directories, not modules).
fmt-check:
	test -z "$$(gofmt -l .)"

# The race target is the tier the hardened execution layer is held to:
# every parallel driver, the fault-injection hooks, and the cancellation
# paths run under the race detector.
race:
	$(GO) test -race ./...

# server-race runs the bpaggd chaos suite (admission, deadlines, drain,
# shared-scan batching under injected faults) with the race detector and
# a hard wall-clock budget: a deadlock or goroutine leak fails as a
# timeout instead of hanging CI.
server-race:
	$(GO) test -race -timeout 60s -count=1 ./internal/server/...

# shard-race is the sharded store's gate and the one place its test
# filter lives (the CI job calls this target): append atomicity, shard
# rollover, catalog pruning, the fan-out's counter pin, cancellation and
# twin method sets, range and window sweeps, the route matrix (its
# statement row runs 3 parts whose workers read one shared plan), the
# oracle sweep's sharded half (TestShardedOracleSweep) and the seeds of the
# one oracle fuzz target (FuzzOracleEquivalence, sharded seeds included),
# and the sqlmini executor, which runs every statement against the store.
shard-race:
	$(GO) test -race -run 'Append|Shard|Range|Window|FanOut|EvalRoutes|TwinMethodSets|Rownum|Store|GenerativeQueries|SQLCounterPin|ExecuteShared|OracleEquivalence' -count=1 ./...

# bench-harness vets and tests the repo benchmark (benchmark/ is its own
# module, so the targets above do not see it): an internal/* signature
# change that breaks the harness fails here, not at the next benchmark
# build.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test .

# bench-smoke runs the repo benchmark the way it is run to compare two
# commits (benchmark/run.sh: every workload, built from this checkout),
# for 10 s per workload, and fails unless the run exits cleanly and every
# workload's result line reads "correct":true and "failed":0. It is not
# part of ci: it takes a few minutes and wants a quiet host.
bench-smoke:
	@out="$$(bash benchmark/run.sh --workload all --seconds 10)"; code=$$?; echo "$$out"; \
	lines="$$(echo "$$out" | grep -c '^{"correct"')"; \
	good="$$(echo "$$out" | grep '^{"correct":true,' | grep -c '"failed":0,')"; \
	echo "bench-smoke: exit $$code, $$good of $$lines workloads correct with no failed operation"; \
	test "$$code" -eq 0 && test "$$lines" -gt 0 && test "$$good" -eq "$$lines"

# lines prints the size every [simplicity] PR is held to: non-blank,
# non-comment lines of non-test Go outside benchmark/, per package and in
# total. An issue's line targets are this target's output.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| while read -r f; do echo "$$(dirname "$$f" | sed 's|^\./||') $$(grep -vcE '^\s*(//|$$)' "$$f")"; done \
		| awk '{n[$$1] += $$2; t += $$2} END {for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t}' | sort -k2

# api prints the root package's public surface: the count, then the list,
# of exported func and type lines and exported-method lines in `go doc -all
# -u .` — -u so that methods an exported type promotes from an unexported
# embedded one (fanOut's, flatView's) are listed too.
api:
	@$(GO) doc -all -u . | grep -E '^(type [A-Z]|func [A-Z]|func \([^)]*\) [A-Z])' \
		| awk '{l[NR] = $$0} END {print NR " exported func/type lines"; for (i = 1; i <= NR; i++) print l[i]}'

# kernel-bench is the core.agg/core.fused rung pair at kernel level (SUM,
# MIN and MAX) and the core.rank rung through its driver (MEDIAN at one
# thread), fed a bitmap or a predicate, at 1/10/50/90 % selectivity on two
# VBP and two HBP widths, plus the core.group rung (partition and SUM at 4
# to 4 096 groups, kept run list against banked at emit), at a fixed
# iteration count so two trees' outputs compare cell by cell.
kernel-bench:
	$(GO) test ./internal/core ./internal/parallel -run '^$$' -bench '^Benchmark(Kernel|Rank|Group)$$' -benchtime 100x -count 5

ci: vet fmt-check build test examples race server-race shard-race bench-harness

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-json runs the paper's experiment suite at a CI-friendly size and
# writes machine-readable results to BENCH_results.json (schema
# bpagg-bench/v1) — the artifact CI uploads; the file is not committed.
bench-json:
	$(GO) run ./cmd/bpagg-bench -n 1048576 -mintime 25ms -json

clean:
	$(GO) clean ./...
