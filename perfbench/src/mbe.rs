//! `mbe-batched`: CPPC-paper multi-bit-error campaigns through the
//! cross-trial batched executor (`MbeBatchExec`, batch 64, 2 engine
//! threads). Most trials strike a solid 4x4 square; a share strikes the
//! sparse 8x8 square, whose shared-syndrome lanes take the per-trial
//! fallback path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cppc_bench::mbe::{self, MbeBatchExec, SOLID_MODEL, SPARSE_MODEL};
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_cache_sim::snapshot::MemorySnapshot;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::RngExt;
use cppc_campaign::{trial_rng, Accumulator, CampaignConfig, CheckpointPolicy, TrialExec};
use cppc_core::{BatchOutcome, BatchScratch, BatchSim, CppcCache, CppcConfig, SimSnapshot};
use cppc_fault::campaign::{Outcome, OutcomeTally};
use cppc_fault::model::{FaultGenerator, FaultModel, FaultPattern};

use crate::span::SpanLog;
use crate::stats::{self, derive, Digest, ObsSnapshot};
use crate::{Checks, Layers, Opts, Run, Size};

const BATCH: usize = 64;
const THREADS: usize = 2;
/// Trials of one round: solid strikes, then the sparse share.
const SOLID_TRIALS: u64 = 160_000;
const SPARSE_TRIALS: u64 = 16_000;
/// Prefix re-run through the per-trial `experiment_model` path.
const CHECK_PREFIX: u64 = 16_000;
/// Without/with-checkpoint pairs behind `campaign.checkpoint_s`.
const CHECKPOINT_PAIRS: usize = 5;

fn campaign(seed: u64, trials: u64, model: FaultModel, threads: usize) -> (OutcomeTally, bool) {
    let cfg = CampaignConfig::new(seed, trials).threads(threads);
    let report = cppc_campaign::run_exec(&cfg, MbeBatchExec::new(model, BATCH));
    let complete = report.is_complete();
    (report.result, complete)
}

fn mix_tally(d: &mut Digest, t: &OutcomeTally) {
    for v in [t.masked, t.corrected, t.due, t.sdc] {
        d.u64(v);
    }
}

/// The models and sizes of one round.
fn round_plan(seed: u64, round: u64, scale: u64) -> [(u64, u64, FaultModel); 2] {
    [
        (derive(seed, 2 * round), SOLID_TRIALS / scale, SOLID_MODEL),
        (
            derive(seed, 2 * round + 1),
            SPARSE_TRIALS / scale,
            SPARSE_MODEL,
        ),
    ]
}

/// The warm way-0 fill every trial starts from, captured through the
/// public simulator API exactly as the executor's warm pool does.
struct WarmState {
    cache: CppcCache,
    mem: MainMemory,
    cache_snap: SimSnapshot,
    mem_snap: MemorySnapshot,
    truth: Vec<(u64, u64)>,
}

impl WarmState {
    fn capture() -> Self {
        let mut mem = MainMemory::new();
        let mut cache =
            CppcCache::new_l1(mbe::geometry(), CppcConfig::paper(), ReplacementPolicy::Lru)
                .expect("paper configuration is valid");
        let truth = mbe::oracle(mbe::SEED);
        for &(addr, v) in &truth {
            cache
                .store_word(addr, v, &mut mem)
                .expect("fault-free warmup store");
        }
        let cache_snap = cache.snapshot();
        let mem_snap = mem.snapshot();
        WarmState {
            cache,
            mem,
            cache_snap,
            mem_snap,
            truth,
        }
    }

    fn restore(&mut self) {
        self.cache.restore_snapshot(&self.cache_snap);
        self.mem.restore_snapshot(&self.mem_snap);
    }

    /// The per-trial fallback: restore, strike, recover, compare.
    fn full_trial(
        &mut self,
        model: FaultModel,
        rng: &mut StdRng,
        pattern: &mut FaultPattern,
        log: &mut SpanLog,
        parent: usize,
    ) -> Outcome {
        log.time("core.warm_restore", Some(parent), || self.restore());
        let rows = self.cache.layout().num_rows() / 2;
        let mut generator = FaultGenerator::new(rows, rng.random());
        generator.sample_into(model, pattern);
        if self.cache.inject(pattern) == 0 {
            return Outcome::Masked;
        }
        match self.cache.recover_all(&mut self.mem) {
            Err(_) => Outcome::DetectedUnrecoverable,
            Ok(_) => {
                let wrong = self
                    .truth
                    .iter()
                    .any(|&(addr, v)| self.cache.peek_word(addr) != Some(v));
                if wrong {
                    Outcome::SilentCorruption
                } else {
                    Outcome::Corrected
                }
            }
        }
    }
}

/// Set-up: capture and certify a warm state, then one small warm-up
/// campaign per model (pool capture, kernel probe, first-touch pages).
fn setup_once(seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut warm = WarmState::capture();
    warm.restore();
    let certified = warm.cache.batch_sim().is_some();
    std::hint::black_box(certified);
    for (s, n, model) in round_plan(derive(seed, u64::MAX), 0, 10) {
        std::hint::black_box(campaign(s, n, model, THREADS));
    }
    t0.elapsed().as_secs_f64()
}

pub fn run(opts: &Opts) -> Run {
    let setup_s: Vec<f64> = (0..crate::SETUP_REPS)
        .map(|_| setup_once(opts.seed))
        .collect();
    let mut checks = Checks::default();
    let mut digest = Digest::default();
    let mut latencies_ms = Vec::new();
    let mut units = 0;

    let obs_before = ObsSnapshot::take();
    let cpu0 = stats::cpu_seconds();
    let t0 = Instant::now();
    let mut round = 0;
    while round == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        let r0 = Instant::now();
        for (s, n, model) in round_plan(opts.seed, round, 1) {
            let (tally, complete) = campaign(s, n, model, THREADS);
            checks.expect(complete, || {
                format!("round {round}: campaign {s:#x} incomplete")
            });
            checks.expect(tally.total() == n, || {
                format!(
                    "round {round}: tally covers {} of {n} trials",
                    tally.total()
                )
            });
            // How many rounds run depends on speed; only the first is
            // digested, so a speed-only change keeps `sim_digest`.
            if round == 0 {
                mix_tally(&mut digest, &tally);
            }
            units += n;
        }
        latencies_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        round += 1;
    }
    let timed_s = t0.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu0;
    let obs = ObsSnapshot::take().since(&obs_before);

    // Independent path: per-trial `experiment_model` on a prefix of the
    // first round's campaigns.
    for (s, n, model) in round_plan(opts.seed, 0, 1) {
        let prefix = n.min(CHECK_PREFIX);
        let cfg = CampaignConfig::new(s, prefix).threads(THREADS);
        let per_trial: OutcomeTally = cppc_campaign::run(&cfg, |rng: &mut StdRng, _| {
            mbe::experiment_model(model, rng)
        })
        .result;
        let (batched, _) = campaign(s, prefix, model, THREADS);
        checks.expect(per_trial == batched, || {
            format!("prefix {prefix} of {s:#x}: batched {batched:?} != per-trial {per_trial:?}")
        });
    }

    Run {
        setup_s,
        unit: "trials",
        rate_name: "trials_per_s",
        units,
        rate: stats::round_rate(units, &latencies_ms),
        timed_s,
        cpu_s,
        latency_name: "round (solid + sparse campaign)",
        latencies_ms,
        checks,
        digest: digest.value(),
        obs,
    }
}

/// A [`TrialExec`] wrapper that adds up the time spent inside the
/// wrapped executor's ranges (the engine's busy time).
struct TimedExec<'a, E> {
    inner: E,
    busy_ns: &'a AtomicU64,
}

impl<A: Accumulator, E: TrialExec<A>> TrialExec<A> for TimedExec<'_, E> {
    fn run_range(&self, seed: u64, lo: u64, hi: u64, acc: &mut A) {
        let t0 = Instant::now();
        self.inner.run_range(seed, lo, hi, acc);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Counts from the traced decomposition of one campaign.
#[derive(Default)]
struct Decomposed {
    tally: OutcomeTally,
    lanes: u64,
    needs_full: u64,
    syndrome_words: u64,
}

/// Replays `MbeBatchExec`'s pipeline for one campaign from its public
/// parts, one span per stage: `FaultGenerator::sample_into` ->
/// `BatchSim::gather` -> `BatchSim::syndromes` -> `BatchSim::classify`
/// -> the per-trial fallback for `NeedsFull` lanes.
fn decompose(
    warm: &mut WarmState,
    sim: &BatchSim,
    seed: u64,
    trials: u64,
    model: FaultModel,
    log: &mut SpanLog,
) -> Decomposed {
    let sample_rows = sim.num_rows() / 2;
    let mut out = Decomposed::default();
    let mut patterns: Vec<FaultPattern> = (0..BATCH).map(|_| FaultPattern::empty()).collect();
    let (mut rows, mut errs, mut syns) = (Vec::new(), Vec::new(), Vec::new());
    let mut lanes: Vec<(u64, usize, usize, u32)> = Vec::with_capacity(BATCH);
    let mut scratch = BatchScratch::default();
    let mut fallback = Vec::new();
    let mut lo = 0;
    while lo < trials {
        let hi = (lo + BATCH as u64).min(trials);
        let batch = log.open("mbe.batch", None);
        log.time("fault.sample", Some(batch), || {
            for (trial, pattern) in (lo..hi).zip(patterns.iter_mut()) {
                let mut rng = trial_rng(seed, trial);
                FaultGenerator::new(sample_rows, rng.random()).sample_into(model, pattern);
            }
        });
        log.time("core.gather", Some(batch), || {
            rows.clear();
            errs.clear();
            lanes.clear();
            for (trial, pattern) in (lo..hi).zip(&patterns) {
                let start = rows.len();
                let applied = sim.gather(pattern, &mut rows, &mut errs);
                lanes.push((trial, start, rows.len(), applied));
            }
        });
        log.time("ecc.syndrome", Some(batch), || {
            syns.clear();
            syns.resize(errs.len(), 0);
            sim.syndromes(&errs, &mut syns);
        });
        out.syndrome_words += errs.len() as u64;
        fallback.clear();
        log.time("core.classify", Some(batch), || {
            for &(trial, a, b, applied) in &lanes {
                let outcome = if applied == 0 {
                    Outcome::Masked
                } else {
                    match sim.classify(&rows[a..b], &mut errs[a..b], &syns[a..b], &mut scratch) {
                        BatchOutcome::Masked => Outcome::Masked,
                        BatchOutcome::Recovered { residual: false } => Outcome::Corrected,
                        BatchOutcome::Recovered { residual: true } => Outcome::SilentCorruption,
                        BatchOutcome::NeedsFull => {
                            fallback.push(trial);
                            continue;
                        }
                    }
                };
                out.tally.record(outcome);
            }
        });
        for &trial in &fallback {
            let span = log.open("core.fallback", Some(batch));
            let mut rng = trial_rng(seed, trial);
            let outcome = warm.full_trial(model, &mut rng, &mut patterns[0], log, span);
            log.close(span);
            out.tally.record(outcome);
        }
        log.close(batch);
        out.lanes += hi - lo;
        out.needs_full += fallback.len() as u64;
        lo = hi;
    }
    out
}

pub fn traced(opts: &Opts, size: Size, log: &mut SpanLog) -> Layers {
    let scale = match size {
        Size::Full => 1,
        Size::Probe => 16,
    };
    let plan = round_plan(opts.seed, 0, scale);
    let mut layers = Layers::default();

    // Untraced references: the same campaigns at 1 and 2 threads, the
    // 2-thread run through a busy-time wrapper.
    let mut wall1 = 0.0;
    let mut wall2 = 0.0;
    let mut busy_ns = 0;
    let mut refs = Vec::new();
    let mut fallbacks = 0;
    let mut restores = 0;
    for &(s, n, model) in &plan {
        let t = Instant::now();
        let (one, _) = campaign(s, n, model, 1);
        wall1 += t.elapsed().as_secs_f64();
        let busy = AtomicU64::new(0);
        let exec = TimedExec {
            inner: MbeBatchExec::new(model, BATCH),
            busy_ns: &busy,
        };
        let cfg = CampaignConfig::new(s, n).threads(THREADS);
        let obs0 = ObsSnapshot::take();
        let t = Instant::now();
        let two: OutcomeTally = cppc_campaign::run_exec(&cfg, exec).result;
        wall2 += t.elapsed().as_secs_f64();
        let obs = ObsSnapshot::take().since(&obs0);
        fallbacks += obs.get("batch.tail_fallbacks").copied().unwrap_or(0);
        restores += obs.get("snapshot.restores").copied().unwrap_or(0);
        busy_ns += busy.load(Ordering::Relaxed);
        layers.checks.expect(one == two, || {
            format!("{s:#x}: 1-thread {one:?} != 2-thread {two:?}")
        });
        refs.push(one);
    }

    // Checkpoint cost: the solid campaign without and with a policy,
    // alternated; the difference of the median wall times.
    let (s, n, model) = plan[0];
    let ckpt = opts.work.join("mbe.ckpt");
    let policy = CheckpointPolicy {
        path: ckpt.clone(),
        every_shards: 4,
        resume: false,
    };
    let cfg = CampaignConfig::new(s, n).threads(THREADS);
    let mut walls_without = Vec::new();
    let mut walls_with = Vec::new();
    let mut ckpt_writes = 0;
    for _ in 0..CHECKPOINT_PAIRS {
        let t = Instant::now();
        let without: OutcomeTally =
            cppc_campaign::run_exec(&cfg, MbeBatchExec::new(model, BATCH)).result;
        walls_without.push(t.elapsed().as_secs_f64());
        let obs1 = ObsSnapshot::take();
        let t = Instant::now();
        let with = cppc_campaign::run_resumable_exec::<OutcomeTally, _, _>(
            &cfg,
            &policy,
            MbeBatchExec::new(model, BATCH),
            |_: &cppc_campaign::Progress| {},
        );
        walls_with.push(t.elapsed().as_secs_f64());
        ckpt_writes = ObsSnapshot::take()
            .since(&obs1)
            .get("campaign.checkpoint_writes")
            .copied()
            .unwrap_or(0);
        let _ = std::fs::remove_file(&ckpt);
        match with {
            Ok(r) => layers.checks.expect(r.result == without, || {
                "checkpointed campaign tally differs".to_string()
            }),
            Err(e) => layers
                .checks
                .expect(false, || format!("checkpointed campaign: {e}")),
        }
    }

    // Traced decomposition, single thread like the 1-thread reference.
    let mut warm = WarmState::capture();
    warm.restore();
    let sim = warm.cache.batch_sim();
    layers.checks.expect(sim.is_some(), || {
        "warm state not certified for batching".into()
    });
    let Some(sim) = sim else { return layers };
    // Untraced (spans off) and traced passes of the same decomposition,
    // alternated twice; the spans and counts of the last traced pass
    // are kept.
    let mut wall_untraced = 0.0;
    let mut wall_traced = 0.0;
    let mut dlog = SpanLog::off();
    let mut totals = Decomposed::default();
    for _ in 0..2 {
        let t = Instant::now();
        for &(s, n, model) in &plan {
            let d = decompose(&mut warm, &sim, s, n, model, &mut SpanLog::off());
            std::hint::black_box(d);
        }
        wall_untraced += t.elapsed().as_secs_f64();
        dlog = SpanLog::new(log.origin());
        totals = Decomposed::default();
        let t = Instant::now();
        for (&(s, n, model), reference) in plan.iter().zip(&refs) {
            let d = decompose(&mut warm, &sim, s, n, model, &mut dlog);
            layers.checks.expect(d.tally == *reference, || {
                format!("{s:#x}: decomposed {:?} != run_exec {reference:?}", d.tally)
            });
            totals.lanes += d.lanes;
            totals.needs_full += d.needs_full;
            totals.syndrome_words += d.syndrome_words;
        }
        wall_traced += t.elapsed().as_secs_f64();
    }
    if stats::obs_compiled_in() {
        // The 2-thread reference ran the same trials through the
        // executor: its fallback counter must match the decomposition.
        layers.checks.expect(fallbacks == totals.needs_full, || {
            format!(
                "batch.tail_fallbacks {fallbacks} != decomposed NeedsFull {}",
                totals.needs_full
            )
        });
    }
    let span = dlog.totals();
    log.absorb(dlog);

    let self_s = |name: &str| span.get(name).map_or(0.0, |t| t.self_s());
    let m = &mut layers.metrics;
    m.push(("campaign.exec_busy_s".into(), "s", busy_ns as f64 / 1e9));
    m.push((
        "campaign.engine_overhead_s".into(),
        "s",
        THREADS as f64 * wall2 - busy_ns as f64 / 1e9,
    ));
    m.push(("campaign.thread_scaling".into(), "x", wall1 / wall2));
    m.push((
        "campaign.checkpoint_s".into(),
        "s",
        stats::median(&walls_with) - stats::median(&walls_without),
    ));
    m.push(("fault.sample_s".into(), "s", self_s("fault.sample")));
    m.push(("ecc.syndrome_s".into(), "s", self_s("ecc.syndrome")));
    m.push((
        "ecc.syndrome_words".into(),
        "words",
        totals.syndrome_words as f64,
    ));
    m.push(("core.gather_s".into(), "s", self_s("core.gather")));
    m.push(("core.classify_s".into(), "s", self_s("core.classify")));
    m.push(("core.fallback_s".into(), "s", self_s("core.fallback")));
    m.push((
        "core.warm_restore_s".into(),
        "s",
        self_s("core.warm_restore"),
    ));
    m.push((
        "core.fallback_ratio".into(),
        "ratio",
        totals.needs_full as f64 / totals.lanes as f64,
    ));
    m.push((
        "trace_overhead.mbe-batched".into(),
        "x",
        wall_traced / wall_untraced,
    ));
    m.push(("obs.batch.tail_fallbacks".into(), "count", fallbacks as f64));
    m.push(("obs.snapshot.restores".into(), "count", restores as f64));
    m.push((
        "obs.campaign.checkpoint_writes".into(),
        "count",
        ckpt_writes as f64,
    ));
    layers.notes.push(format!(
        "mbe-batched: kernel {} ; {} lanes, {} NeedsFull ; decomposition {:.3}s untraced vs {:.3}s traced (two passes each)",
        cppc_ecc::kernels::active().name(),
        totals.lanes,
        totals.needs_full,
        wall_untraced,
        wall_traced
    ));
    layers
}
