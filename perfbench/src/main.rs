//! The repository benchmark.
//!
//! ```text
//! cppc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it sets up the named
//! workload, measures it for at least `--seconds`, checks its outputs
//! against an independent path in the program and prints the
//! end-to-end metrics. With `--trace 1` it runs the traced
//! decomposition of every layer instead: the named workload at full
//! size and the other three as small probes, so every per-layer metric
//! is measured on every traced run. Human-readable lines come first;
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for
//! the metric definitions and the per-layer -> end-to-end mapping.

mod explore;
mod mbe;
mod serve;
mod span;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use span::SpanLog;

const WORKLOADS: [&str; 4] = ["mbe-batched", "explore-full", "trace-replay", "serve-jobs"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// What every workload receives.
pub struct Opts {
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Scratch directory (relative, inside the checkout).
    pub work: PathBuf,
}

/// Size of a traced decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload's own inputs.
    Full,
    /// A small instance, so every layer appears in every traced run.
    Probe,
}

/// Operations attempted and failed (campaigns, jobs, output checks).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    pub fn expect_ok(&mut self, r: Result<(), String>) {
        let err = r.err();
        self.expect(err.is_none(), || err.unwrap_or_default());
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// An untraced workload run.
pub struct Run {
    /// Each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// What one unit of work is (trials, configs, ops, jobs).
    pub unit: &'static str,
    /// The workload's own name for `rate`.
    pub rate_name: &'static str,
    pub units: u64,
    /// Units per second: per-round units over the median round time
    /// for round-based workloads, units over the timed phase otherwise.
    pub rate: f64,
    pub timed_s: f64,
    /// User + system CPU of the timed phase.
    pub cpu_s: f64,
    /// What one latency sample times.
    pub latency_name: &'static str,
    pub latencies_ms: Vec<f64>,
    pub checks: Checks,
    /// Digest of the simulated results: a speed-only change keeps it.
    pub digest: u64,
    /// `cppc-obs` counter deltas over the timed phase.
    pub obs: BTreeMap<&'static str, u64>,
}

impl Run {
    pub fn failed(
        checks: Checks,
        setup_s: Vec<f64>,
        unit: &'static str,
        rate_name: &'static str,
    ) -> Run {
        Run {
            setup_s,
            unit,
            rate_name,
            units: 0,
            rate: 0.0,
            timed_s: 0.0,
            cpu_s: 0.0,
            latency_name: "",
            latencies_ms: Vec::new(),
            checks,
            digest: 0,
            obs: BTreeMap::new(),
        }
    }
}

/// `(name, unit, value)` of each reported metric.
pub type Metrics = Vec<(String, &'static str, f64)>;

/// A traced decomposition's per-layer metrics.
#[derive(Debug, Default)]
pub struct Layers {
    pub metrics: Metrics,
    pub checks: Checks,
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (use {})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The commit of a git checkout, read from `.git` without running git.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none (not a git checkout)".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Digest of the program's sources (`crates/`), identifying the code
/// measured even where the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut d = stats::Digest::default();
    for f in files {
        d.str(&f.to_string_lossy());
        d.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    d.value()
}

fn host_context() -> String {
    format!(
        "host: nproc={} kernel={} obs={} commit={} source_digest={:016x}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cppc_ecc::kernels::active().name(),
        if stats::obs_compiled_in() {
            "compiled-in"
        } else {
            "off"
        },
        git_commit(),
        source_digest(),
    )
}

fn untraced(args: &Args, opts: &Opts, out: &mut String) -> (Metrics, Checks) {
    let run = match args.workload.as_str() {
        "mbe-batched" => mbe::run(opts),
        "explore-full" => explore::run(opts),
        "trace-replay" => trace::run(opts),
        _ => serve::run(opts),
    };
    let rate = run.rate;
    let (tail, pct, n) = stats::tail(&run.latencies_ms);
    let metrics: Metrics = vec![
        ("setup_s".into(), "s", stats::median(&run.setup_s)),
        ("work_per_s".into(), "1/s", rate),
        (
            "latency_p50_ms".into(),
            "ms",
            stats::median(&run.latencies_ms),
        ),
        ("peak_rss_mb".into(), "MiB", stats::peak_rss_mb()),
    ];
    let _ = writeln!(
        out,
        "workload {} seed {}: {} {} in {:.3}s ({} latency samples)",
        args.workload,
        args.seed,
        run.units,
        run.unit,
        run.timed_s,
        run.latencies_ms.len()
    );
    let _ = writeln!(out, "  {} = {rate:.1} {}/s", run.rate_name, run.unit);
    // The tail is printed, not gated: on serve-jobs it follows the host's
    // journal-sync latency spikes and its run-to-run spread exceeded the
    // largest bound the benchmark may set.
    let _ = writeln!(
        out,
        "  latency of one {}: p50 {:.3} ms, tail p{pct:.1} {tail:.3} ms ({n} samples)",
        run.latency_name,
        stats::median(&run.latencies_ms)
    );
    // Printed, not gated: on a shared host the system-time share (the
    // daemon's journal and checkpoint syncs) varies too much to bound.
    let _ = writeln!(
        out,
        "  cpu_s = {:.3} s over the timed phase ({:.3} us per {})",
        run.cpu_s,
        run.cpu_s / run.units as f64 * 1e6,
        run.unit.trim_end_matches('s')
    );
    let _ = writeln!(out, "  setup repetitions (s): {:?}", run.setup_s);
    let _ = writeln!(
        out,
        "  fail_ratio = {} ({} of {} operations failed)",
        run.checks.failed as f64 / run.checks.attempted.max(1) as f64,
        run.checks.failed,
        run.checks.attempted
    );
    let _ = writeln!(out, "  sim_digest = {:016x}", run.digest);
    for (k, v) in &run.obs {
        let _ = writeln!(out, "  obs {k} += {v}");
    }
    (metrics, run.checks)
}

fn traced(args: &Args, opts: &Opts, out: &mut String) -> (Metrics, Checks) {
    let mut log = SpanLog::new(Instant::now());
    let mut metrics = Metrics::new();
    let mut checks = Checks::default();
    for w in WORKLOADS {
        let size = if w == args.workload {
            Size::Full
        } else {
            Size::Probe
        };
        let t = Instant::now();
        let layers = match w {
            "mbe-batched" => mbe::traced(opts, size, &mut log),
            "explore-full" => explore::traced(opts, size, &mut log),
            "trace-replay" => trace::traced(opts, size, &mut log),
            _ => serve::traced(opts, size, &mut log),
        };
        let _ = writeln!(
            out,
            "traced {w} ({size:?}) in {:.2}s",
            t.elapsed().as_secs_f64()
        );
        for n in &layers.notes {
            let _ = writeln!(out, "  {n}");
        }
        metrics.extend(layers.metrics);
        checks.merge(layers.checks);
    }
    // Some times are differences of two measurements; noise must not
    // pass off a negative one as a result.
    for (name, unit, value) in &metrics {
        if matches!(*unit, "s" | "ms") {
            checks.expect(*value >= 0.0, || {
                format!("metric {name} = {value} {unit} is negative")
            });
        }
    }
    let _ = writeln!(out, "spans (name, count, total s, self s):");
    for (name, t) in log.totals() {
        let _ = writeln!(
            out,
            "  {name:<36} {:>9} {:>12.6} {:>12.6}",
            t.count,
            t.total_s(),
            t.self_s()
        );
    }
    (metrics, checks)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: cppc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let work =
        PathBuf::from("perfbench/.work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };

    let mut out = host_context();
    out.push('\n');
    let (metrics, mut checks) = if args.trace {
        traced(&args, &opts, &mut out)
    } else {
        untraced(&args, &opts, &mut out)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the scratch root.
    let _ = std::fs::remove_dir("perfbench/.work");

    let mut json = String::from("{");
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit, value) in &metrics {
        checks.expect(value.is_finite() && seen.insert(name.clone()), || {
            format!("metric {name} = {value} (not finite or duplicated)")
        });
        let v = if value.is_finite() { *value } else { 0.0 };
        if json.len() > 1 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    for n in &checks.notes {
        let _ = writeln!(out, "FAILED: {n}");
    }
    print!("{out}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    ExitCode::SUCCESS
}
