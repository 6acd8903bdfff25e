//! `trace-replay`: seed-generated traces recorded to `.cppct`
//! (`BinTraceWriter`), stream-replayed (`BinTraceReader` ->
//! `TwoLevelHierarchy::run_batch`) through the Table-1 hierarchy, and
//! priced by the timing model for three L1 schemes. One L2-resident
//! profile (`gzip`) and one miss-dominated profile (`mcf`). A round
//! replays every trace once on `THREADS` workers.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use cppc_cache_sim::hierarchy::{MemOp, TwoLevelHierarchy};
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::stats::CacheStats;
use cppc_timing::{CpiBreakdown, L1Scheme, MachineConfig, TimingModel};
use cppc_workloads::binfmt::DEFAULT_BATCH_OPS;
use cppc_workloads::{
    spec2000_profiles, BenchmarkProfile, BinTraceReader, BinTraceWriter, OpBatch, SharedTrace,
    TraceGenerator,
};

use crate::span::SpanLog;
use crate::stats::{self, derive, Digest, ObsSnapshot};
use crate::{Checks, Layers, Opts, Run, Size};

const PROFILES: [&str; 2] = ["gzip", "mcf"];
const SCHEMES: [L1Scheme; 3] = [
    L1Scheme::OneDimParity,
    L1Scheme::Cppc,
    L1Scheme::TwoDimParity,
];
/// Measured operations per trace; half as many again warm the caches.
const MEMOPS: usize = 80_000;
/// Traces per profile in a run, each from its own seed, so a run's cost
/// averages over several inputs rather than riding on one.
const SUBSEEDS: usize = 6;
/// Workers replaying a round's traces. With one, a run's speed followed
/// the host CPU the thread happened to get: on a shared 2-vCPU VM, 12
/// alternated pairs of 10 s runs spread 0.42 (interquartile range over
/// median) with one worker and 0.23 with two.
const THREADS: usize = 2;

fn profile(name: &str) -> BenchmarkProfile {
    spec2000_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .expect("SPEC2000 profile exists")
}

/// One profile's generated input.
struct Input {
    profile: BenchmarkProfile,
    ops: Vec<MemOp>,
    memops: usize,
}

/// Generates input `sub` of profile `p`.
fn generate_one(seed: u64, sub: usize, p: usize, memops: usize) -> Input {
    let profile = profile(PROFILES[p]);
    let ops = TraceGenerator::new(&profile, derive(seed, (sub * PROFILES.len() + p) as u64))
        .take(memops / 2 + memops)
        .collect();
    Input {
        profile,
        ops,
        memops,
    }
}

/// Every input of a run: `SUBSEEDS` traces per profile.
fn generate(seed: u64) -> Vec<Input> {
    (0..SUBSEEDS)
        .flat_map(|sub| (0..PROFILES.len()).map(move |p| generate_one(seed, sub, p, MEMOPS)))
        .collect()
}

fn record(path: &Path, ops: &[MemOp]) -> std::io::Result<u64> {
    let mut writer = BinTraceWriter::new(BufWriter::new(File::create(path)?))?;
    for &op in ops {
        writer.push(op)?;
    }
    writer.finish()
}

fn hierarchy() -> TwoLevelHierarchy {
    let machine = MachineConfig::table1();
    TwoLevelHierarchy::new(
        machine.l1d.geometry().expect("valid L1 geometry"),
        machine.l2.geometry().expect("valid L2 geometry"),
        ReplacementPolicy::Lru,
    )
}

fn breakdowns(input: &Input, l1: CacheStats, l2: CacheStats) -> Vec<CpiBreakdown> {
    let model = TimingModel::new(MachineConfig::table1());
    SCHEMES
        .iter()
        .map(|&s| model.breakdown_from_stats(&input.profile, s, input.memops, l1, l2))
        .collect()
}

fn digest_of(b: &[CpiBreakdown]) -> u64 {
    let mut d = Digest::default();
    d.str(&format!("{b:?}"));
    d.value()
}

/// Streams the recorded file through the hierarchy the way
/// `TimingModel::simulate_trace` drives its in-memory trace: warm on
/// the first `memops / 2` ops, reset the statistics, measure `memops`.
/// `stage` wraps the decode and the hierarchy call of each batch.
fn replay(
    path: &Path,
    input: &Input,
    mut stage: impl FnMut(&'static str, &mut dyn FnMut()),
) -> Result<(CacheStats, CacheStats), String> {
    let mut reader = BinTraceReader::open(path).map_err(|e| e.to_string())?;
    let mut h = hierarchy();
    let mut batch = OpBatch::with_capacity(DEFAULT_BATCH_OPS);
    for (phase, len) in [(0, input.memops / 2), (1, input.memops)] {
        if phase == 1 {
            h.reset_stats();
        }
        let mut left = len;
        while left > 0 {
            let mut got = Ok(0);
            stage("workloads.decode", &mut || {
                got = reader.next_batch(&mut batch, left.min(DEFAULT_BATCH_OPS));
            });
            let got = got.map_err(|e| e.to_string())?;
            if got == 0 {
                return Err(format!("trace ended {left} ops early"));
            }
            stage("cache_sim.run_batch", &mut || h.run_batch(&batch));
            left -= got;
        }
    }
    Ok(h.stats())
}

/// Record + replay + price one profile; returns the breakdown digest.
/// The file is removed before it is ever flushed to disk, so the
/// timing holds the encode/decode and page-cache traffic, not the
/// host's disk. (Truncating and rewriting a file instead makes ext4
/// start its writeback on close, and the next truncate waits for it.)
fn record_replay(path: &Path, input: &Input) -> Result<u64, String> {
    record(path, &input.ops).map_err(|e| e.to_string())?;
    let stats = replay(path, input, |_, f| f());
    std::fs::remove_file(path).map_err(|e| e.to_string())?;
    let (l1, l2) = stats?;
    Ok(digest_of(&breakdowns(input, l1, l2)))
}

/// One round: every input recorded and replayed once, on `THREADS`
/// workers. Worker `w` takes every `THREADS`th subseed, both profiles
/// of it, so the workers run the same gzip/mcf mix side by side. (With
/// workers claiming the next input instead, six runs on the same host
/// spread 0.13 against 0.05.) Results come back in input order.
fn replay_round(inputs: &[Input], work: &Path) -> Vec<Result<u64, String>> {
    let mut done: Vec<(usize, Result<u64, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                scope.spawn(move || {
                    inputs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i / PROFILES.len() % THREADS == w)
                        .map(|(i, input)| {
                            (i, record_replay(&work.join(format!("{i}.cppct")), input))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The independent path: `TimingModel::simulate_trace` on the same ops.
fn reference_digest(input: &Input) -> u64 {
    let model = TimingModel::new(MachineConfig::table1());
    let trace = SharedTrace::from_ops(input.ops.clone());
    let b: Vec<CpiBreakdown> = SCHEMES
        .iter()
        .map(|&s| model.simulate_trace(&input.profile, s, &trace, input.memops))
        .collect();
    digest_of(&b)
}

pub fn run(opts: &Opts) -> Run {
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let t = Instant::now();
        inputs = generate(opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut checks = Checks::default();
    let mut digest = Digest::default();
    let mut latencies_ms = Vec::new();
    let mut units = 0;
    let mut digests = vec![None; inputs.len()];

    let obs_before = ObsSnapshot::take();
    let cpu0 = stats::cpu_seconds();
    let t0 = Instant::now();
    let mut round = 0;
    while round == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        let r0 = Instant::now();
        let results = replay_round(&inputs, &opts.work);
        latencies_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        for (i, (input, result)) in inputs.iter().zip(results).enumerate() {
            match result {
                Ok(d) => {
                    checks.expect(digests[i].is_none_or(|prev| prev == d), || {
                        format!(
                            "{}: replay digest changed between rounds",
                            input.profile.name
                        )
                    });
                    digests[i] = Some(d);
                    units += input.ops.len() as u64;
                }
                Err(e) => checks.expect(false, || format!("{}: {e}", input.profile.name)),
            }
        }
        round += 1;
    }
    let timed_s = t0.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu0;
    let obs = ObsSnapshot::take().since(&obs_before);

    // Each input once, however many rounds ran.
    for d in digests.iter().flatten() {
        digest.u64(*d);
    }
    for (input, d) in inputs.iter().zip(&digests) {
        let want = reference_digest(input);
        checks.expect(*d == Some(want), || {
            format!("{}: streaming digest != simulate_trace", input.profile.name)
        });
    }

    Run {
        setup_s,
        unit: "ops",
        rate_name: "ops_per_s",
        units,
        rate: stats::round_rate(units, &latencies_ms),
        timed_s,
        cpu_s,
        latency_name: "round (record + replay of every trace)",
        latencies_ms,
        checks,
        digest: digest.value(),
        obs,
    }
}

pub fn traced(opts: &Opts, size: Size, log: &mut SpanLog) -> Layers {
    let (subseeds, memops) = match size {
        Size::Full => (SUBSEEDS, MEMOPS),
        Size::Probe => (1, MEMOPS / 8),
    };
    let mut layers = Layers::default();
    let mut wall_traced = 0.0;
    let mut wall_untraced = 0.0;
    let obs0 = ObsSnapshot::take();
    for (p, name) in PROFILES.iter().enumerate() {
        let mut plog = SpanLog::new(log.origin());
        // Simulated accesses and misses over the profile's inputs.
        let mut l1 = (0, 0);
        let mut l2 = (0, 0);
        for sub in 0..subseeds {
            let path = opts.work.join(format!("traced-{name}-{sub}.cppct"));
            let input = plog.time("workloads.generate", None, || {
                generate_one(opts.seed, sub, p, memops)
            });
            let t = Instant::now();
            let written = plog.time("workloads.write", None, || record(&path, &input.ops));
            let stats = replay(&path, &input, |name, f| plog.time(name, None, f));
            let Ok((s1, s2)) = stats else {
                layers
                    .checks
                    .expect(false, || format!("{name}: traced replay failed"));
                continue;
            };
            let b = plog.time("timing.breakdown", None, || breakdowns(&input, s1, s2));
            wall_traced += t.elapsed().as_secs_f64();
            layers
                .checks
                .expect(written.is_ok(), || format!("{name}: write failed"));

            let _ = std::fs::remove_file(&path);
            let t = Instant::now();
            let untraced = record_replay(&path, &input);
            wall_untraced += t.elapsed().as_secs_f64();
            let traced = digest_of(&b);
            layers.checks.expect(untraced == Ok(traced), || {
                format!("{name}/{sub}: traced digest != untraced record+replay")
            });
            layers
                .checks
                .expect(reference_digest(&input) == traced, || {
                    format!("{name}/{sub}: traced digest != simulate_trace")
                });
            l1 = (l1.0 + s1.misses(), l1.1 + s1.accesses());
            l2 = (l2.0 + s2.misses(), l2.1 + s2.accesses());
        }
        let totals = plog.totals();
        let total_s = |n: &str| totals.get(n).map_or(0.0, |t| t.total_s());
        let m = &mut layers.metrics;
        m.push((
            format!("workloads.{name}.generate_s"),
            "s",
            total_s("workloads.generate"),
        ));
        m.push((
            format!("workloads.{name}.write_s"),
            "s",
            total_s("workloads.write"),
        ));
        m.push((
            format!("workloads.{name}.decode_s"),
            "s",
            total_s("workloads.decode"),
        ));
        m.push((
            format!("cache_sim.{name}.run_batch_s"),
            "s",
            total_s("cache_sim.run_batch"),
        ));
        m.push((
            format!("timing.{name}.breakdown_s"),
            "s",
            total_s("timing.breakdown"),
        ));
        m.push((
            format!("cache_sim.{name}.l1_miss_ratio"),
            "ratio",
            l1.0 as f64 / l1.1 as f64,
        ));
        m.push((
            format!("cache_sim.{name}.l2_miss_ratio"),
            "ratio",
            l2.0 as f64 / l2.1 as f64,
        ));
        log.absorb(plog);
    }
    let obs = ObsSnapshot::take().since(&obs0);
    let m = &mut layers.metrics;
    m.push((
        "trace_overhead.trace-replay".into(),
        "x",
        wall_traced / wall_untraced,
    ));
    m.push((
        "obs.trace.ops_decoded".into(),
        "count",
        obs.get("trace.ops_decoded").copied().unwrap_or(0) as f64,
    ));
    layers.notes.push(format!(
        "trace-replay: {subseeds} x {memops} measured ops per profile; traced {wall_traced:.3}s vs untraced {wall_untraced:.3}s"
    ));
    layers
}
