#!/usr/bin/env sh
# Local CI gate: formatting, release build, full test suite, the dirty-
# pipeline e2e gate, lint-clean clippy, rustdoc, and the benchmark
# self-test. Run from the repository root. Fails fast on the first broken
# step.
set -eu

cargo fmt --check
cargo build --release --workspace
cargo test --workspace -q
# Fast-tier statistical conformance gate: 3-seed prefix of the calibrated
# full-scenario sweep plus the differential oracle suite, byte-compared
# against the committed baseline report (regenerate with the same flags
# plus --report results/conformance.json after an intentional change).
cargo run --release -q -p rainshine-conformance --bin conformance -- \
    --scenario scenarios/full.json --seeds 3 --baseline results/conformance.json
cargo test -q --test determinism run_report_bytes_do_not_depend_on_thread_count
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc must build warning-free (broken intra-doc links fail the gate).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
# The standalone benchmark package (skipped by `cargo build --workspace`)
# must still build against the crates' public API, and every artifact CSV
# must stay byte-identical to `experiments` (clean and `--corrupt 0.05`)
# and to the recorded seed-42 digests. About 3-4 minutes on 2 cores.
python3 benchmark/run.py --self-test

echo "ci: all green"
