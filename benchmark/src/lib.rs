//! Benchmark of the rainshine pipeline: runs one workload per process and
//! prints its metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! rainshine-benchmark        --workload W --seed N --seconds S --trace 0 [--out DIR] [--record]
//! rainshine-benchmark-traced --workload W --seed N --seconds S --trace 1 [--out DIR]
//! ```
//!
//! `W` is `paper_artifacts`, `seed_sweep` or `dirty_paper`. Run from the
//! repository root (`benchmark/run.py` builds this package and does so).
//! `--trace 0` repeats the workload for `--seconds` and reports end-to-end
//! medians; `--trace 1` runs it once with every layer call timed, then
//! replays one timed call per layer entry point on the workload's own fleet
//! (see `benchmark/README.md`). Only the traced binary installs the counting
//! allocator, so untraced runs use the system allocator exactly as the
//! shipped binaries do. Every run checks its outputs: each iteration's
//! output digests must match the first iteration's and the digests recorded
//! in `benchmark/expected-digests.txt` for this workload and seed.
//! `--record` rewrites those entries instead.

pub mod alloc;
mod replay;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rainshine_bench::{run_experiment, ExperimentContext, Scale, ALL_EXPERIMENTS};
use rainshine_conformance::oracle::{standard_oracles, OracleReport};
use rainshine_conformance::{run_scenario, ConformanceReport, Obs, Parallelism, Scenario};
use rainshine_dcsim::CorruptionConfig;

/// Scenario whose claims `seed_sweep` evaluates.
const SCENARIO: &str = "scenarios/full.json";
/// Output digests recorded from known-good runs.
const DIGESTS: &str = "benchmark/expected-digests.txt";
/// Consecutive seeds per sweep. The scenario's envelopes require 90%
/// recovery, so a 20-seed batch tolerates two misses per claim; no batch
/// of seeds 1–200 misses an envelope.
const SWEEP_SEEDS: u64 = 20;
/// Sweep workers: one per core of the 2-core reference machine.
const SWEEP_WORKERS: usize = 2;
/// Total defect rate of `dirty_paper` (the `--corrupt 0.05` profile).
const DIRTY_RATE: f64 = 0.05;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    /// The paper-scale fleet and all 27 artifacts on one thread.
    PaperArtifacts,
    /// The `full` scenario's claims over consecutive seeds plus the oracles.
    SeedSweep,
    /// `PaperArtifacts` with the `--corrupt 0.05` dirty-data profile.
    DirtyPaper,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_artifacts" => Some(Workload::PaperArtifacts),
            "seed_sweep" => Some(Workload::SeedSweep),
            "dirty_paper" => Some(Workload::DirtyPaper),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperArtifacts => "paper_artifacts",
            Workload::SeedSweep => "seed_sweep",
            Workload::DirtyPaper => "dirty_paper",
        }
    }

    /// Scale of the workload's own fleet (for `seed_sweep`, the fleet of
    /// its first seed).
    pub(crate) fn scale(self) -> Scale {
        match self {
            Workload::SeedSweep => Scale::Medium,
            _ => Scale::Paper,
        }
    }

    /// Total defect rate injected into the workload's fleet.
    pub(crate) fn corruption_rate(self) -> f64 {
        if self == Workload::DirtyPaper {
            DIRTY_RATE
        } else {
            0.0
        }
    }

    fn workers(self) -> usize {
        match self {
            Workload::SeedSweep => SWEEP_WORKERS,
            _ => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(value("--seed")?.parse().map_err(|e| format!("bad seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("bad seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--record" => record = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        record,
    })
}

/// Named metrics in report order.
#[derive(Default)]
pub(crate) struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub(crate) fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// User plus system CPU seconds of this process, all threads included.
fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them, in USER_HZ (100 per second on Linux).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a 64-bit digest of an output file's bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One checked operation of an iteration: an artifact, a claim over the
/// sweep's seeds, an oracle, or the sweep's report.
struct Op {
    name: String,
    attempted: u64,
    failed: u64,
    /// Digest of the output the operation wrote, when it writes one.
    digest: Option<u64>,
}

/// One run of the whole workload.
struct Iteration {
    wall: f64,
    setup: f64,
    analysis: f64,
    cpu: f64,
    /// Seeds simulated and evaluated, and the time from the start of the
    /// iteration until the last of them was evaluated.
    seeds: u64,
    seeds_wall: f64,
    /// The process's peak RSS in MiB when the analysis ended.
    peak_rss: f64,
    ops: Vec<Op>,
}

/// All 27 artifacts built on one fleet: context construction, then each
/// artifact, timed from outside.
pub(crate) struct ArtifactRun {
    /// The context, kept for the per-layer replays.
    pub(crate) ctx: ExperimentContext,
    /// Context construction: simulate, sanitize, ready for analysis.
    pub(crate) setup: f64,
    /// Set-up plus all artifacts.
    pub(crate) wall: f64,
    /// All artifacts after set-up.
    analysis: f64,
    /// Per-artifact seconds, in `ALL_EXPERIMENTS` order.
    pub(crate) per_artifact: Vec<f64>,
    /// Artifacts that returned an error.
    pub(crate) errors: Vec<&'static str>,
}

/// Builds the context and writes all 27 artifacts into `out`.
pub(crate) fn run_artifacts(workload: Workload, seed: u64, out: &Path) -> ArtifactRun {
    let t0 = Instant::now();
    let corruption = CorruptionConfig::with_total_rate(workload.corruption_rate());
    let mut ctx = ExperimentContext::new_with_corruption(
        workload.scale(),
        seed,
        Parallelism::Sequential,
        corruption,
    );
    let setup = secs(t0);
    let t1 = Instant::now();
    let mut per_artifact = Vec::with_capacity(ALL_EXPERIMENTS.len());
    let mut errors = Vec::new();
    for &id in ALL_EXPERIMENTS {
        let t = Instant::now();
        let result = run_experiment(id, &mut ctx, out);
        per_artifact.push(secs(t));
        if let Err(e) = result {
            eprintln!("benchmark: artifact {id} failed: {e}");
            errors.push(id);
        }
    }
    ArtifactRun { ctx, setup, wall: secs(t0), analysis: secs(t1), per_artifact, errors }
}

fn paper_iteration(workload: Workload, seed: u64, out: &Path) -> (Iteration, ArtifactRun) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let run = run_artifacts(workload, seed, out);
    let wall = secs(t0);
    let cpu = cpu_seconds() - cpu0;
    let peak_rss = peak_rss_mib();
    let ops = ALL_EXPERIMENTS
        .iter()
        .map(|&id| {
            let name = format!("{id}.csv");
            let bytes = fs::read(out.join(&name)).ok();
            Op {
                attempted: 1,
                failed: u64::from(run.errors.contains(&id) || bytes.is_none()),
                digest: bytes.as_deref().map(digest),
                name,
            }
        })
        .collect();
    let it = Iteration {
        wall,
        setup: run.setup,
        analysis: run.analysis,
        cpu,
        seeds: 1,
        seeds_wall: wall,
        peak_rss,
        ops,
    };
    (it, run)
}

/// One sweep iteration and the seconds its oracle suite took.
fn sweep_iteration(seed: u64, out: &Path) -> Result<(Iteration, f64), String> {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let text = fs::read_to_string(SCENARIO).map_err(|e| format!("cannot read {SCENARIO}: {e}"))?;
    let scenario = Scenario::from_json(&text).map_err(|e| format!("{SCENARIO}: {e}"))?;
    let setup = secs(t0);
    let t1 = Instant::now();
    let last = seed.checked_add(SWEEP_SEEDS).ok_or("seed too large for a 20-seed sweep")?;
    let seeds: Vec<u64> = (seed..last).collect();
    let obs = Obs::disabled();
    let outcome = run_scenario(&scenario, &seeds, Parallelism::Threads(SWEEP_WORKERS), &obs)
        .map_err(|e| format!("sweep: {e}"))?;
    let analysis = secs(t1);
    let seeds_wall = secs(t0);
    let peak_rss = peak_rss_mib();
    // The oracles check the sweep's code paths, after it, as the
    // `conformance` binary runs them.
    let t_oracles = Instant::now();
    let oracles: Vec<OracleReport> =
        standard_oracles(&scenario, seed).map_err(|e| format!("oracles: {e}"))?;
    let oracle_secs = secs(t_oracles);
    let mut ops: Vec<Op> = outcome
        .claims
        .iter()
        .map(|c| {
            let missed = if c.pass { 0 } else { (c.seeds - c.recovered - c.errors) as u64 };
            Op {
                name: format!("claim {}", c.name),
                attempted: c.seeds as u64,
                failed: c.errors as u64 + missed,
                digest: None,
            }
        })
        .collect();
    ops.extend(oracles.iter().map(|o| Op {
        name: format!("oracle {}", o.name),
        attempted: 1,
        failed: u64::from(o.violation),
        digest: None,
    }));
    let report = ConformanceReport::new(vec![outcome], oracles, &obs.snapshot());
    let json = report.deterministic_json() + "\n";
    fs::write(out.join("conformance.json"), &json).map_err(|e| format!("write report: {e}"))?;
    ops.push(Op {
        name: "conformance.json".into(),
        attempted: 1,
        failed: 0,
        digest: Some(digest(json.as_bytes())),
    });
    let wall = secs(t0);
    let cpu = cpu_seconds() - cpu0;
    let it =
        Iteration { wall, setup, analysis, cpu, seeds: SWEEP_SEEDS, seeds_wall, peak_rss, ops };
    Ok((it, oracle_secs))
}

/// Recorded digests: `workload seed file digest` lines; seed `*` holds for
/// every seed.
fn load_digests() -> Vec<(String, String, String, u64)> {
    let text = fs::read_to_string(DIGESTS).unwrap_or_default();
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let d = u64::from_str_radix(f.get(3)?, 16).ok()?;
            Some((f[0].to_string(), f[1].to_string(), f[2].to_string(), d))
        })
        .collect()
}

fn record_digests(workload: Workload, seed: u64, it: &Iteration) -> Result<(), String> {
    let seed = seed.to_string();
    let mut kept: Vec<String> = fs::read_to_string(DIGESTS)
        .unwrap_or_default()
        .lines()
        .filter(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            !(f.len() == 4 && f[0] == workload.name() && f[1] == seed)
        })
        .map(str::to_string)
        .collect();
    for op in &it.ops {
        if let Some(d) = op.digest {
            kept.push(format!("{} {seed} {} {d:016x}", workload.name(), op.name));
        }
    }
    fs::write(DIGESTS, kept.join("\n") + "\n").map_err(|e| format!("write {DIGESTS}: {e}"))
}

/// Applies the output checks to every iteration and returns
/// `(attempted, failed)`. An operation whose digest differs from the first
/// iteration's or from the recorded one fails as a whole.
fn check(workload: Workload, seed: u64, iterations: &[Iteration]) -> (u64, u64) {
    let recorded = load_digests();
    let seed = seed.to_string();
    let expected = |name: &str| {
        recorded
            .iter()
            .find(|(w, s, f, _)| w == workload.name() && (*s == seed || s == "*") && f == name)
            .map(|r| r.3)
    };
    let first: BTreeMap<&str, Option<u64>> =
        iterations[0].ops.iter().map(|op| (op.name.as_str(), op.digest)).collect();
    let (mut attempted, mut failed) = (0, 0);
    for it in iterations {
        for op in &it.ops {
            attempted += op.attempted;
            let drifted = first.get(op.name.as_str()) != Some(&op.digest);
            let unexpected =
                matches!((op.digest, expected(&op.name)), (Some(d), Some(e)) if d != e);
            if drifted || unexpected {
                let against = if drifted { "the first iteration's" } else { "the recorded one" };
                eprintln!("benchmark: output {} does not match {against} digest", op.name);
                failed += op.attempted;
            } else {
                failed += op.failed;
            }
        }
    }
    (attempted, failed)
}

/// Median of a non-empty sample.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn end_to_end(iterations: &[Iteration], metrics: &mut Metrics) {
    let med = |f: &dyn Fn(&Iteration) -> f64| {
        let mut v: Vec<f64> = iterations.iter().map(f).collect();
        median(&mut v)
    };
    metrics.put("wall_s", med(&|it| it.wall), "s");
    metrics.put("setup_s", med(&|it| it.setup), "s");
    metrics.put("analysis_s", med(&|it| it.analysis), "s");
    metrics.put("seeds_per_s", med(&|it| it.seeds as f64 / it.seeds_wall), "1/s");
    metrics.put("cpu_s", med(&|it| it.cpu), "s");
    // The first pass of a fresh process: later passes only add the
    // allocator's fragmentation across the sweep's worker threads.
    metrics.put("peak_rss_mb", iterations[0].peak_rss, "MiB");
}

fn iteration(workload: Workload, seed: u64, out: &Path) -> Result<Iteration, String> {
    match workload {
        Workload::SeedSweep => sweep_iteration(seed, out).map(|(it, _)| it),
        _ => Ok(paper_iteration(workload, seed, out).0),
    }
}

fn run(args: &Args) -> Result<(Vec<Iteration>, Metrics), String> {
    if args.trace != alloc::installed() {
        return Err("--trace 1 runs only in rainshine-benchmark-traced, --trace 0 only in \
                    rainshine-benchmark"
            .into());
    }
    let out = args.out.join(args.workload.name());
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut metrics = Metrics::default();
    if !args.trace {
        // Repeat while another iteration of the last one's length still
        // ends within the budget.
        let start = Instant::now();
        let mut iterations: Vec<Iteration> = Vec::new();
        while iterations.last().is_none_or(|it| secs(start) + it.wall <= args.seconds) {
            iterations.push(iteration(args.workload, args.seed, &out)?);
        }
        end_to_end(&iterations, &mut metrics);
        return Ok((iterations, metrics));
    }

    // Traced run: one iteration with every layer call timed, then the
    // per-layer replays. On the paper workloads the iteration is itself the
    // artifact replay.
    let replay_out = args.out.join(format!("{}-replay", args.workload.name()));
    fs::create_dir_all(&replay_out).map_err(|e| format!("create {}: {e}", replay_out.display()))?;
    let (traced, artifacts, oracles_s) = match args.workload {
        Workload::SeedSweep => {
            let (it, oracles_s) = sweep_iteration(args.seed, &out)?;
            (it, run_artifacts(args.workload, args.seed, &replay_out), Some(oracles_s))
        }
        _ => {
            let (it, artifacts) = paper_iteration(args.workload, args.seed, &out);
            (it, artifacts, None)
        }
    };
    let workers = args.workload.workers() as f64;
    metrics.put("traced.wall_s", traced.wall, "s");
    metrics.put("parallel.busy_frac", traced.cpu / (traced.wall * workers), "ratio");
    replay::layers(args.workload, args.seed, artifacts, oracles_s, &mut metrics)?;
    Ok((vec![traced], metrics))
}

/// Runs the command line in `std::env::args` and returns the exit code.
pub fn cli() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (iterations, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.record {
        if let Err(e) = record_digests(args.workload, args.seed, &iterations[0]) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (attempted, failed) = check(args.workload, args.seed, &iterations);
    let metrics = match metrics.to_json() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let walls: Vec<String> = iterations.iter().map(|it| format!("{:.3}", it.wall)).collect();
    println!("iterations: {} (wall_s {})", iterations.len(), walls.join(" "));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
