#!/usr/bin/env python3
"""Builds and runs the rainshine benchmark.

Usage, from the repository root:

    python3 benchmark/run.py --workload paper_artifacts|seed_sweep|dirty_paper \\
        --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test [--seed N]

A workload run builds `benchmark/` in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs one workload in one process, prints a
fingerprint line and, last, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` prints the end-to-end metrics and
`--trace 1` the per-layer ones; the names and units must match
`BENCHMARK.json`. Extra flags (`--record`) pass through to the binary.

`--self-test` checks three things at one seed (default 42): every count
metric repeats bit for bit across two traced runs of each workload; the
benchmark's in-process artifact loop writes the same CSV bytes as the shipped
`experiments` binary; and the outputs match the recorded digests.
"""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ".bench_out"
WORKLOADS = ["paper_artifacts", "seed_sweep", "dirty_paper"]
# Paper workloads as `experiments` flags, for the shipped-path check.
SHIPPED = {"paper_artifacts": [], "dirty_paper": ["--corrupt", "0.05"]}


def target_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    # Build output goes to stderr: stdout carries only the result.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def build_benchmark(trace):
    """Builds both binaries; only the traced one installs the counting allocator."""
    if not cargo_build(["--manifest-path", "benchmark/Cargo.toml"]):
        return None
    name = "rainshine-benchmark-traced" if trace else "rainshine-benchmark"
    return ROOT / target_dir() / "release" / name


def run_binary(binary, args):
    """Runs one workload; returns (stdout lines, result) or exits on failure."""
    proc = subprocess.run([str(binary), *args, "--out", OUT], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    return lines, json.loads(lines[-1])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "shims", "scenarios", "benchmark"]
    for root in roots:
        path = ROOT / root
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint():
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": source_digest(),
    }


def workload_run(args):
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    binary = build_benchmark(trace)
    if binary is None:
        sys.exit("benchmark: build failed")
    lines, result = run_binary(binary, args)
    if trace:
        # Tracing overhead: the traced iteration against one iteration of the
        # untraced binary, which has no counting allocator.
        plain_args = list(args)
        plain_args[plain_args.index("--trace") + 1] = "0"
        plain_args[plain_args.index("--seconds") + 1] = "1"
        plain = run_binary(build_benchmark(False), plain_args)[1]
        base = plain["metrics"]["wall_s"]["value"]
        traced = result["metrics"]["traced.wall_s"]["value"]
        result["metrics"]["obs.overhead_frac"] = {"value": (traced - base) / base, "unit": "ratio"}
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["correct"] = result["correct"] and plain["correct"]
        lines[-1] = json.dumps(result)
    declared = declared_metrics(trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        sys.exit(f"benchmark: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(printed.items()) ^ set(declared.items()))}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"fingerprint": fingerprint()}))
    print(lines[-1])


def self_test(seed):
    binary = build_benchmark(True)
    if binary is None or not cargo_build(["-p", "rainshine-bench", "--bin", "experiments"]):
        sys.exit("self-test: build failed")
    ok = True
    counts = [n for n, unit in declared_metrics(True).items() if unit == "count"]
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
        runs = [run_binary(binary, args)[1] for _ in range(2)]
        differ = [n for n in counts if runs[0]["metrics"][n] != runs[1]["metrics"][n]]
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(counts) - len(differ)}/{len(counts)} counts repeat, "
              f"outputs {'match' if correct else 'DO NOT match'} their digests")
        ok &= not differ and correct
        if workload in SHIPPED:
            shipped = ROOT / OUT / f"shipped-{workload}"
            shutil.rmtree(shipped, ignore_errors=True)
            cmd = [str(ROOT / target_dir() / "release" / "experiments"), "--scale", "paper",
                   "--seed", str(seed), "--threads", "1", "--out", str(shipped),
                   *SHIPPED[workload]]
            subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           check=True)
            ours = ROOT / OUT / workload
            names = sorted(p.name for p in shipped.glob("*.csv"))
            same = [n for n in names if (ours / n).read_bytes() == (shipped / n).read_bytes()]
            print(f"{workload}: {len(same)}/{len(names)} CSVs byte-identical to `experiments`")
            ok &= len(names) == 27 and len(same) == len(names)
    print("self-test:", "pass" if ok else "FAIL")
    sys.exit(0 if ok else 1)


def main():
    args = sys.argv[1:]
    if args[:1] == ["--self-test"]:
        seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 42
        self_test(seed)
    else:
        workload_run(args)


if __name__ == "__main__":
    main()
