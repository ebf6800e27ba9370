#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, and the full test suite.
# Everything runs offline (external crates are vendored under vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test --release =="
cargo test --workspace --release -q

echo "== perfbench correctness smoke (device-small, 2 s) =="
# Thousands of small calls on one reused Udp per corpus program, both
# backends, pooled and sequential: every report must match the CPU
# references and the first report of its input set, and each program's
# output digest must match perfbench/digests.txt. Exits nonzero on any
# mismatch, so the process-wide prepared-kernel cache is held to the
# same outputs as a fresh preparation. The measured numbers are not
# gated here.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload device-small --seed 1 --seconds 2 --trace 0

echo "== perfbench correctness smoke (device-stream, 2 s) =="
# The same checks over 64 x 8 KiB chunks per call: long streams keep
# the byte-burst and bit-burst loops running (device-small's 256 B
# chunks barely enter them), on both backends, pooled and sequential,
# against the pinned digests. No number is gated.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload device-stream --seed 1 --seconds 2 --trace 0

echo "== perfbench correctness smoke (serve-journaled, 2 s) =="
# csv rows served over the Unix socket by a journaled runtime (one
# scheduler-held device for every wave), across a warm restart: every
# served row must match the CPU csv framing. Exits nonzero on any
# mismatch or failed operation; no number is gated.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload serve-journaled --seed 1 --seconds 2 --trace 0

echo "== perfbench correctness smoke (serve-open, 2 s) =="
# The csv kernel served in-process to four tenants, backlogged and then
# open loop, with its device waves probed pooled and sequential: every
# row must match the CPU csv framing. Its waves are small, so the
# pool's helper-thread decision changes on them (DESIGN.md §2.6.1).
# Exits nonzero on any mismatch or failed operation; no number is
# gated.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload serve-open --seed 1 --seconds 2 --trace 0

echo "== backend matrix: full suite on the compiled backend (DESIGN.md §2.6.3) =="
# UDP_SIM_BACKEND=compiled flips every default-constructed run to the
# tier-2 compiled engine; the whole suite (determinism, supervisor,
# oracle, codec round-trips) must pass identically, since the compiled
# backend is required to reproduce interpreter reports bit-for-bit.
UDP_SIM_BACKEND=compiled cargo test --workspace --release -q

echo "== backend matrix: fault_fuzz on the compiled backend =="
# Chaos/fault hooks are honored by the compiled engine too; hold it to
# the same recovery bar as the interpreter (no artifact refresh here —
# the interpreter run below owns results/BENCH_fault_fuzz.json).
UDP_SIM_BACKEND=compiled cargo run --release -q -p udp-bench --bin fault_fuzz -- \
  --iters 200 --seed 0xDEC0DE --min-static-reject 1 --min-recovery-rate 100 \
  --store-iters 16

echo "== backend matrix: serve_fuzz on the compiled backend =="
# The service-chaos plan (overload, disconnects, stalled readers,
# poison tenants) must hold the §10.6 invariant on the compiled engine
# too: typed errors only, no panics, no hung clients, clean tenants
# byte-identical to the reference.
UDP_SIM_BACKEND=compiled cargo run --release -q -p udp-bench --bin serve_fuzz -- \
  --smoke --seed 0xC1

echo "== verifier soundness gate (DESIGN.md §9) =="
# Gates on zero errors across the corpus and on every program either
# earning a complete resource certificate or carrying structured
# cost-unbounded blockers; refreshes results/BENCH_verify.json.
cargo run --release -q -p udp-bench --bin verify -- --json

echo "== certification soundness gate (DESIGN.md §9.1) =="
# Certified bounds must hold empirically: every certified corpus
# program, generic inputs, sequential + pooled + compiled paths, plus
# the bit-flip mutation sweep and the random-program property.
cargo test --release -q -p udp-bench --test cert_soundness

echo "== rustdoc gate: isa, asm, sim, verify, store, serve, fault, compilers, udp (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p udp-isa -p udp-asm -p udp-sim -p udp-verify \
  -p udp-store -p udp-serve -p udp-fault -p udp-compilers -p udp

echo "== fault_fuzz smoke gate (DESIGN.md §8) + static-reject oracle (§9) =="
# Gates on zero whole-run aborts, the static-reject floor, and a 100%
# recovered-or-fallback rate for transient chaos injections; refreshes
# the results/BENCH_fault_fuzz.json artifact tracked across PRs.
cargo run --release -q -p udp-bench --bin fault_fuzz -- \
  --iters 200 --seed 0xDEC0DE --min-static-reject 1 --min-recovery-rate 100 \
  --store-iters 16 --json

echo "== artifact-store round trip gate (DESIGN.md §11) =="
# Populate a fresh store with the whole compiler corpus (assemble +
# verify + certify + durable write), then demand that a second pass is
# a pure cache hit whose stored image is byte-identical to a fresh
# parse-and-assemble of the same source. Exercises the AOT workflow a
# warm serve restart depends on.
rm -rf target/ci-aot-store
cargo run --release -q -p udp-bench --bin aot -- --dir target/ci-aot-store
cargo run --release -q -p udp-bench --bin aot -- --dir target/ci-aot-store --check

echo "== serve smoke gate (DESIGN.md §10.6) =="
# One cycle of every service chaos mode at the CI seed: a mixed batch
# of clean, overloading, disconnecting, stalling, and poison tenants.
# Gates on zero invariant violations (panics, hangs, collateral
# quarantine, reference mismatches on clean tenants); refreshes the
# results/BENCH_serve_fuzz.json artifact.
cargo run --release -q -p udp-bench --bin serve_fuzz -- --smoke --seed 0xC1 --json

echo "== hostperf: compiled-backend speedup gate + trend smoke (DESIGN.md §2.6.2–3) =="
# One hostperf run serves two purposes. Gating: the compiled backend
# must hold >= 2x the predecoded interpreter's MB/s on the csv
# scenarios and >= 1.5x on the huffman (bit-burst) scenarios —
# measured as same-process interleaved ratios, so host load cancels
# out and the gates are portable across machines. Trend
# (non-gating): absolute MB/s deltas against the previous
# results/BENCH_hostperf.json are printed and the artifact refreshed;
# absolute perf is machine- and load-dependent, so it reports only.
prev=""
if [ -f results/BENCH_hostperf.json ]; then
  prev="$(cat results/BENCH_hostperf.json)"
fi
cargo run --release -q -p udp-bench --bin hostperf -- --json \
  --gate-csv-speedup 2.0 --gate-huffman-speedup 1.5 \
  | grep -E '^gate' || { echo "hostperf speedup gate failed"; exit 1; }
(
  set +e
  if [ -f results/BENCH_hostperf.json ]; then
    echo "$prev" | awk -v cur="$(cat results/BENCH_hostperf.json)" '
      function field(line, key,   s) {
        s = line
        if (!sub(".*\"" key "\":", "", s)) return ""
        sub("[,}].*", "", s); gsub("\"", "", s)
        return s
      }
      NF { prev_mbps[field($0, "name")] = field($0, "predecoded_par_mbps") }
      END {
        n = split(cur, lines, "\n")
        for (i = 1; i <= n; i++) {
          if (lines[i] == "") continue
          name = field(lines[i], "name")
          now = field(lines[i], "predecoded_par_mbps") + 0
          iseq = field(lines[i], "predecoded_seq_mbps") + 0
          cseq = field(lines[i], "compiled_seq_mbps") + 0
          speedup = (iseq > 0) ? cseq / iseq : 0
          was = (name in prev_mbps) ? prev_mbps[name] + 0 : 0
          if (was > 0)
            printf "  %-16s par %8.1f MB/s (prev %8.1f, %+.1f%%)  compiled-seq %8.1f MB/s (%.2fx interp)\n", name, now, was, (now / was - 1) * 100, cseq, speedup
          else
            printf "  %-16s par %8.1f MB/s (no previous record)  compiled-seq %8.1f MB/s (%.2fx interp)\n", name, now, cseq, speedup
        }
      }'
  else
    echo "  hostperf produced no JSON; skipping delta"
  fi
  exit 0
)

echo "CI green."
