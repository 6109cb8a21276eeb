#!/usr/bin/env bash
# check.sh — the repo's full correctness gate, kept identical to CI
# (.github/workflows/ci.yml) so a green local run means a green pipeline:
#
#   1. gofmt        formatting drift
#   2. go vet       the stock toolchain analyzers
#   3. wfasic-vet   the project-specific analyzers (determinism, panicpolicy,
#                   magicoffset, errpath, tickphase, regmap, doccomment,
#                   isolation, perfmono, hotalloc, suppress — see
#                   internal/lint), ratcheted against vet-baseline.json:
#                   new findings and stale baseline entries fail
#   4. callgraph    the interprocedural call graph and the hotalloc allocation
#                   map each dump byte-identically twice in a row (the CI
#                   artifact contract), and the analyzer fixtures still load
#                   and fire
#   5. go build     everything compiles, including examples
#   6. go test -race  the full suite under the race detector (the bench
#                     package takes a few minutes under -race; use
#                     SKIP_RACE=1 for a quick non-race pass)
#   7. hostbench    the host-plane benchmark is its own module (replace
#                   repro => ../), so steps 2-6 never compile it: vet and
#                   test it separately so an API change cannot break it
#                   unnoticed
#   8. hot-path benchmarks  the software-WFA micro-benchmarks, the
#                   simulated accelerator, the backtrace decoder and the
#                   shared packed extend run 100 iterations each, so they
#                   must execute, not just compile
#   9. fuzz         FuzzAlignersAgree for 30 s: software WFA, the simulated
#                   accelerator and the SWG oracle agree on fuzzed pairs
#  10. fuzz         FuzzCIGARWitness for 15 s: ReplayScore, the witness run on
#                   every CIGAR the shared backtrace builds, agrees with
#                   CIGAR.Validate + CIGAR.Score on arbitrary transcripts
#  11. fuzz         FuzzAuditImage for 15 s: the readback audit of the input
#                   image never panics on arbitrary bytes, MAX_READ_LEN
#                   values and pair counts
#  12. invariantdebug  the invariant and core packages under the verbose
#                   invariant build tag
#  13. chaos, SDC and soak campaigns (-count=1)
#  14. regen + diff of the committed benchmark snapshots: BENCH_8 (serve
#                   model), BENCH_9 (SDC-defense cost), BENCH_5 (perf
#                   counters), BENCH_10 (fleet determinism)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
badfmt=$(gofmt -l .)
if [[ -n "$badfmt" ]]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== wfasic-vet =="
go run ./cmd/wfasic-vet -baseline vet-baseline.json ./...

echo "== callgraph dump (byte-stability) =="
go run ./cmd/wfasic-vet -dump-callgraph callgraph.json
go run ./cmd/wfasic-vet -dump-callgraph callgraph.json.2
cmp callgraph.json callgraph.json.2
rm -f callgraph.json.2

echo "== allocs dump (byte-stability) =="
go run ./cmd/wfasic-vet -dump-allocs allocs.json
go run ./cmd/wfasic-vet -dump-allocs allocs.json.2
cmp allocs.json allocs.json.2
rm -f allocs.json.2

echo "== wfasic-vet fixtures =="
go run ./cmd/wfasic-vet -fixtures internal/lint/testdata/src > /dev/null

echo "== go build =="
go build ./...

if [[ "${SKIP_RACE:-0}" == "1" ]]; then
    echo "== go test (race detector skipped) =="
    go test ./...
else
    echo "== go test -race =="
    go test -race ./...
fi

echo "== hostbench module (go vet + go test) =="
(cd hostbench && go vet . && go test .)

echo "== hot-path benchmarks (100 iterations each) =="
go test -run '^$' -bench 'WFAScore|WFABacktrace|SoftwareAlign|MachineAlign|BTDecode|ExtendUnit' -benchtime 100x .

echo "== three-way aligner differential (fuzz, 30 s) =="
go test -run '^$' -fuzz '^FuzzAlignersAgree$' -fuzztime 30s ./internal/soc/

echo "== CIGAR replay witness (fuzz, 15 s) =="
go test -run '^$' -fuzz '^FuzzCIGARWitness$' -fuzztime 15s ./internal/integrity/

echo "== input image audit (fuzz, 15 s) =="
go test -run '^$' -fuzz '^FuzzAuditImage$' -fuzztime 15s ./internal/seqio/

echo "== go test (invariantdebug build) =="
go test -tags invariantdebug ./internal/invariant/ ./internal/core/

# The seeded chaos campaign (internal/soc/chaos_test.go) re-runs explicitly
# with -count=1 so a cached pass can never mask a schedule regression: every
# campaign is pinned to a fault seed and must reproduce byte-identical fault
# schedules, bit-identical outcomes and identical cycle counts on every run.
# The quick pass uses the -short campaign; CI runs the full one under -race.
echo "== chaos campaign (pinned fault seeds) =="
if [[ "${SKIP_RACE:-0}" == "1" ]]; then
    go test -short -count=1 -run 'TestChaos' ./internal/soc/
else
    go test -count=1 -run 'TestChaos' ./internal/soc/
fi

# The silent-corruption campaign (internal/soc/sdc_test.go) is the SDC
# defense's acceptance bar: silent bit flips on, the all-pair oracle off,
# shadow sampling at most 5% — and every delivered answer must still equal
# the software WFA exactly, plus the exhaustive every-single-bit-flip sweep
# of the input witness. -count=1 for the same reason as above.
echo "== silent-corruption campaign (SDC defense, pinned seeds) =="
if [[ "${SKIP_RACE:-0}" == "1" ]]; then
    go test -short -count=1 -run 'TestChaosSilentZeroWrongAnswers|TestInputWitnessCatchesEverySingleBitFlip' ./internal/soc/
else
    go test -count=1 -run 'TestChaosSilentZeroWrongAnswers|TestInputWitnessCatchesEverySingleBitFlip' ./internal/soc/
fi

# The serving soak (internal/serve/soak_test.go) is the no-drop proof: ~50k
# pairs in -short mode with chaos injected on two devices mid-traffic, run
# twice and compared journal-byte for journal-byte. -count=1 for the same
# reason as the chaos campaign: it must actually execute.
echo "== serve soak (short, chaos on 2 devices) =="
if [[ "${SKIP_RACE:-0}" == "1" ]]; then
    go test -short -count=1 -run 'TestSoakChaosNoDrop' ./internal/serve/
else
    go test -race -short -count=1 -run 'TestSoakChaosNoDrop' ./internal/serve/
fi

# BENCH_8.json is the committed capacity model for the serving layer. The
# calibration and the queueing model are deterministic, so a diff means the
# service's cost model really changed and the snapshot must be regenerated
# deliberately (go run ./cmd/wfasic-serve -bench).
echo "== serve bench model (regen + diff) =="
go run ./cmd/wfasic-serve -bench -out serve-bench.json > /dev/null
diff BENCH_8.json serve-bench.json
rm -f serve-bench.json

# BENCH_9.json is the committed cost sheet for the SDC defense: the same
# seeded fault-free workload priced at every verification level (off,
# witness, 1%, 5%, full). Cycle counts are deterministic, so a diff means
# the defense's cost really changed and the snapshot must be regenerated
# deliberately (go run ./cmd/wfasic-serve -bench-integrity).
echo "== SDC-defense cost bench (regen + diff) =="
go run ./cmd/wfasic-serve -bench-integrity -out integrity-bench.json > /dev/null
diff BENCH_9.json integrity-bench.json
rm -f integrity-bench.json

# BENCH_5.json is the committed perf-counter attribution of the paper's six
# input sets. The counters are deterministic, so a diff means the hardware
# model's behavior really changed and the snapshot must be regenerated
# deliberately (go run ./cmd/wfasic-bench -exp perf -perf-json BENCH_5.json).
echo "== perf attribution (regen + diff) =="
go run ./cmd/wfasic-bench -exp perf -perf-json perf-counters.json -trace-chrome perf-trace.json > /dev/null
diff BENCH_5.json perf-counters.json
rm -f perf-counters.json perf-trace.json

# BENCH_10.json is the committed fleet artifact: the fleet-determinism sweep
# (an identical result digest asserted at every worker count). Lines carrying
# the "wall_" key prefix are host wall-clock measurements and are the only
# sanctioned nondeterminism — they are stripped before the diff; everything
# else must be byte-stable. Regenerate deliberately with
# go run ./cmd/wfasic-bench -exp fleet -fleet-json BENCH_10.json.
echo "== fleet bench (regen + diff, wall_ lines excluded) =="
go run ./cmd/wfasic-bench -exp fleet -fleet-json fleet-bench.json > /dev/null
diff <(grep -v '"wall_' BENCH_10.json) <(grep -v '"wall_' fleet-bench.json)
rm -f fleet-bench.json

echo "all checks passed"
