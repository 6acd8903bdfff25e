//! `explore-full`: the 432-config full tier of the design-space
//! explorer at 2 threads, through `cppc_explore::run_sweep`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cppc_bench::experiments::inject_geometry;
use cppc_cache_sim::memory::MainMemory;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::trial_rng;
use cppc_core::SchemeKind;
use cppc_explore::eval::{self, ConfigPoint, GeometryBaseline};
use cppc_explore::{doc, pareto, run_sweep, SweepConfig, SweepOptions, SweepOutcome, SweepSpec};
use cppc_fault::campaign::{Outcome, OutcomeTally};
use cppc_fault::model::FaultModel;

use crate::span::SpanLog;
use crate::stats::{self, derive, Digest, ObsSnapshot};
use crate::{Checks, Layers, Opts, Run, Size};

const THREADS: usize = 2;
/// The committed result of the full tier at its committed seed.
const COMMITTED_DOC: &str = "docs/results/explore_full.json";
/// The strike every explorer campaign trial injects (`eval`'s 4x4
/// solid square).
const FAULT: FaultModel = cppc_bench::mbe::SOLID_MODEL;

fn sweep(spec: &SweepSpec, threads: usize) -> Result<Vec<ConfigPoint>, String> {
    let opts = SweepOptions {
        threads,
        checkpoint_dir: None,
    };
    match run_sweep(spec, &opts, None)? {
        SweepOutcome::Complete(points) => Ok(points),
        SweepOutcome::Interrupted { completed, total } => {
            Err(format!("sweep interrupted at {completed}/{total}"))
        }
    }
}

fn render(spec: &SweepSpec, points: &[ConfigPoint]) -> String {
    doc::pretty(&doc::sweep_doc(spec, points))
}

/// Round 0 sweeps the committed full tier; later rounds re-seed its
/// campaigns from the run seed.
fn round_spec(seed: u64, round: u64) -> SweepSpec {
    let mut spec = SweepSpec::full_tier();
    if round > 0 {
        spec.campaign_seed = derive(seed, round);
    }
    spec
}

/// Set-up: load the committed document and run a warm-up sweep of the
/// small probe grid (first-use costs of every scheme and model). One
/// thread: six configs of uneven cost split over two would make the
/// set-up time depend on which thread claims which config.
fn setup_once() -> (f64, Result<String, String>) {
    let t0 = Instant::now();
    let text =
        std::fs::read_to_string(COMMITTED_DOC).map_err(|e| format!("read {COMMITTED_DOC}: {e}"));
    let warm = sweep(&probe_spec(), 1);
    let text = text.and_then(|t| warm.map(|_| t));
    (t0.elapsed().as_secs_f64(), text)
}

pub fn run(opts: &Opts) -> Run {
    let mut setup_s = Vec::new();
    let mut committed = Err(String::new());
    for _ in 0..crate::SETUP_REPS {
        let (s, text) = setup_once();
        setup_s.push(s);
        committed = text;
    }
    let mut checks = Checks::default();
    checks.expect(committed.is_ok(), || {
        committed.clone().err().unwrap_or_default()
    });
    let mut digest = Digest::default();
    let mut latencies_ms = Vec::new();
    let mut units = 0;
    let mut rounds = Vec::new();

    let obs_before = ObsSnapshot::take();
    let cpu0 = stats::cpu_seconds();
    let t0 = Instant::now();
    let mut round = 0;
    // Two rounds at least: the committed seed and one from the run seed.
    while round < 2 || t0.elapsed().as_secs_f64() < opts.seconds {
        let r0 = Instant::now();
        let spec = round_spec(opts.seed, round);
        let result = sweep(&spec, THREADS).map(|points| {
            let body = render(&spec, &points);
            (points, body)
        });
        latencies_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok((points, body)) => {
                units += points.len() as u64;
                // Only the two rounds every run makes are digested, so a
                // speed-only change keeps `sim_digest`.
                if round < 2 {
                    digest.str(&body);
                }
                rounds.push((spec, points, body));
            }
            Err(e) => checks.expect(false, || format!("round {round}: {e}")),
        }
        round += 1;
    }
    let timed_s = t0.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu0;
    let obs = ObsSnapshot::take().since(&obs_before);

    for (i, (spec, points, body)) in rounds.iter().enumerate() {
        checks.expect(points.len() == spec.enumerate().len(), || {
            format!("round {i}: {} points", points.len())
        });
        if i == 0 {
            let same = committed.as_ref().is_ok_and(|c| c == body);
            checks.expect(same, || {
                format!("round 0 document differs from {COMMITTED_DOC}")
            });
        } else {
            // Independent path: one seed-chosen config per scheme,
            // evaluated directly on a fresh baseline.
            for (k, kind) in SchemeKind::ALL.into_iter().enumerate() {
                let of_kind: Vec<&ConfigPoint> =
                    points.iter().filter(|p| p.config.scheme == kind).collect();
                let pick = derive(opts.seed, 100 + k as u64) as usize % of_kind.len();
                let want = of_kind[pick];
                let c = want.config;
                let direct = eval::baseline(spec, c.cache_kib, c.associativity, c.block_bytes)
                    .and_then(|base| eval::evaluate(spec, &c, &base));
                checks.expect(direct.as_ref() == Ok(want), || {
                    format!("round {i}: {} differs from direct evaluate", c.label())
                });
            }
        }
    }

    Run {
        setup_s,
        unit: "configs",
        rate_name: "configs_per_s",
        units,
        rate: stats::round_rate(units, &latencies_ms),
        timed_s,
        cpu_s,
        latency_name: "full sweep + document",
        latencies_ms,
        checks,
        digest: digest.value(),
        obs,
    }
}

/// Span names of the scheme chain, one set per `SchemeKind`.
fn stage_names(kind: SchemeKind) -> [&'static str; 4] {
    match kind {
        SchemeKind::Cppc => [
            "scheme.cppc.build",
            "scheme.cppc.fill",
            "scheme.cppc.inject",
            "scheme.cppc.classify",
        ],
        SchemeKind::Parity1d => [
            "scheme.parity1d.build",
            "scheme.parity1d.fill",
            "scheme.parity1d.inject",
            "scheme.parity1d.classify",
        ],
        SchemeKind::SecdedInterleaved => [
            "scheme.secded-interleaved.build",
            "scheme.secded-interleaved.fill",
            "scheme.secded-interleaved.inject",
            "scheme.secded-interleaved.classify",
        ],
        SchemeKind::Parity2d => [
            "scheme.parity2d.build",
            "scheme.parity2d.fill",
            "scheme.parity2d.inject",
            "scheme.parity2d.classify",
        ],
        SchemeKind::SilentWriteEcc => [
            "scheme.silent-write-ecc.build",
            "scheme.silent-write-ecc.fill",
            "scheme.silent-write-ecc.inject",
            "scheme.silent-write-ecc.classify",
        ],
        SchemeKind::HarpOdecc => [
            "scheme.harp-odecc.build",
            "scheme.harp-odecc.fill",
            "scheme.harp-odecc.inject",
            "scheme.harp-odecc.classify",
        ],
    }
}

/// One config's campaign, decomposed into the scheme chain
/// `SchemeKind::build` -> `write_word` -> `inject_model` -> `classify`
/// (the trial `scheme_experiment` runs), one span per stage.
fn campaign_chain(
    spec: &SweepSpec,
    cfg: &SweepConfig,
    digest: u64,
    log: &mut SpanLog,
    parent: usize,
) -> OutcomeTally {
    let [build, fill, inject, classify] = stage_names(cfg.scheme);
    let geo = inject_geometry();
    let seed = spec.campaign_seed ^ digest;
    let mut tally = OutcomeTally::default();
    for trial in 0..spec.trials {
        let mut rng = trial_rng(seed, trial);
        let mut mem = MainMemory::new();
        let mut scheme = log.time(build, Some(parent), || {
            cfg.scheme
                .build(geo, cfg.cppc_config())
                .expect("validated config")
        });
        let truth = log.time(fill, Some(parent), || {
            let mut fill_rng = StdRng::seed_from_u64(trial);
            let mut truth = Vec::new();
            for set in 0..geo.num_sets() {
                for word in 0..geo.words_per_block() {
                    let addr = geo.address_of(0, set) + (word * 8) as u64;
                    let v: u64 = fill_rng.random();
                    scheme.write_word(addr, v, &mut mem).expect("no faults yet");
                    truth.push((addr, v));
                }
            }
            truth
        });
        let applied = log.time(inject, Some(parent), || {
            scheme.inject_model(FAULT, &mut rng)
        });
        let outcome = if applied == 0 {
            Outcome::Masked
        } else {
            log.time(classify, Some(parent), || scheme.classify(&truth, &mut mem))
        };
        tally.record(outcome);
    }
    tally
}

/// A small grid for the probe: one geometry, every scheme.
fn probe_spec() -> SweepSpec {
    let mut spec = SweepSpec::quick_tier();
    spec.tier = "custom".to_string();
    spec.cache_kib = vec![8];
    spec.interleave_k = vec![8];
    spec.scrub_intervals = vec![None];
    spec.trials = 32;
    spec.workload_ops = 20_000;
    spec
}

/// The traced sweep: `run_sweep`'s structure rebuilt from the public
/// `eval` calls, with each config's campaign replayed as the scheme
/// chain. Its document must equal the untraced entry point's bytes and
/// each chain's tally the config's tally.
pub fn traced(_opts: &Opts, size: Size, log: &mut SpanLog) -> Layers {
    let mut layers = Layers::default();
    // The untraced bytes: the committed document for the full tier (the
    // untraced run checks `run_sweep` reproduces it), a fresh
    // `run_sweep` for the probe grid.
    let (spec, expected) = match size {
        Size::Full => (
            SweepSpec::full_tier(),
            std::fs::read_to_string(COMMITTED_DOC).map_err(|e| e.to_string()),
        ),
        Size::Probe => {
            let spec = probe_spec();
            let body = sweep(&spec, THREADS).map(|p| render(&spec, &p));
            (spec, body)
        }
    };
    let expected = match expected {
        Ok(body) => body,
        Err(e) => {
            layers
                .checks
                .expect(false, || format!("untraced explore document: {e}"));
            return layers;
        }
    };

    let obs0 = ObsSnapshot::take();
    let t_all = Instant::now();
    let configs = spec.enumerate();
    // `evaluate` with an empty campaign: its timing, energy and
    // reliability models alone.
    let models_only = SweepSpec {
        trials: 0,
        ..spec.clone()
    };
    let mut baselines: BTreeMap<(u32, u32, u32), GeometryBaseline> = BTreeMap::new();
    for c in &configs {
        let key = (c.cache_kib, c.associativity, c.block_bytes);
        if let std::collections::btree_map::Entry::Vacant(slot) = baselines.entry(key) {
            let base = log.time("explore.baseline", None, || {
                eval::baseline(&spec, key.0, key.1, key.2)
            });
            match base {
                Ok(b) => {
                    slot.insert(b);
                }
                Err(e) => {
                    layers.checks.expect(false, || e);
                    return layers;
                }
            }
        }
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ConfigPoint>>> = Mutex::new(vec![None; configs.len()]);
    let mismatches: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let origin = log.origin();
    let t_par = Instant::now();
    // Each worker returns its spans and the time of its untraced chains.
    let workers: Vec<(SpanLog, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut wlog = SpanLog::new(origin);
                    let mut plain_s = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cfg) = configs.get(i) else { break };
                        let base = &baselines[&(cfg.cache_kib, cfg.associativity, cfg.block_bytes)];
                        let top = wlog.open("explore.config", None);
                        let point = wlog.time("explore.evaluate", Some(top), || {
                            eval::evaluate(&spec, cfg, base)
                        });
                        let models = wlog.time("explore.model", Some(top), || {
                            eval::evaluate(&models_only, cfg, base)
                        });
                        if let Err(e) = models {
                            mismatches.lock().expect("mismatch list").push(e);
                        }
                        // The chain without spans, then with them.
                        let digest = cfg.digest(&spec);
                        let t = Instant::now();
                        let plain = campaign_chain(&spec, cfg, digest, &mut SpanLog::off(), 0);
                        plain_s += t.elapsed().as_secs_f64();
                        let camp = wlog.open("explore.campaign", Some(top));
                        let tally = campaign_chain(&spec, cfg, digest, &mut wlog, camp);
                        wlog.close(camp);
                        wlog.close(top);
                        if plain != tally {
                            mismatches
                                .lock()
                                .expect("mismatch list")
                                .push(format!("{}: chain differs with spans on", cfg.label()));
                        }
                        match point {
                            Ok(p) => {
                                if p.tally != tally {
                                    mismatches.lock().expect("mismatch list").push(format!(
                                        "{}: chain {tally:?} != evaluate {:?}",
                                        cfg.label(),
                                        p.tally
                                    ));
                                }
                                slots.lock().expect("sweep slots")[i] = Some(p);
                            }
                            Err(e) => mismatches.lock().expect("mismatch list").push(e),
                        }
                    }
                    (wlog, plain_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced sweep worker"))
            .collect()
    });
    let par_wall = t_par.elapsed().as_secs_f64();
    let mut campaign = 0.0;
    for (wlog, plain_s) in workers {
        log.absorb(wlog);
        campaign += plain_s;
    }
    for m in mismatches.into_inner().expect("mismatch list") {
        layers.checks.expect(false, || m);
    }
    let points: Vec<ConfigPoint> = slots
        .into_inner()
        .expect("sweep slots")
        .into_iter()
        .flatten()
        .collect();
    if points.len() != configs.len() {
        layers
            .checks
            .expect(false, || "traced sweep lost configs".into());
        return layers;
    }
    let objectives: Vec<Vec<f64>> = points.iter().map(ConfigPoint::objectives).collect();
    let ranks = log.time("explore.rank", None, || {
        pareto::ranks(&objectives, &pareto::MAXIMIZE)
    });
    std::hint::black_box(ranks);
    let body = log.time("explore.doc", None, || render(&spec, &points));
    let traced_wall = t_all.elapsed().as_secs_f64();
    let obs = ObsSnapshot::take().since(&obs0);
    layers.checks.expect(body == expected, || {
        "traced sweep document differs from the untraced bytes".into()
    });

    let totals = log.totals();
    let total_s = |n: &str| totals.get(n).map_or(0.0, |t| t.total_s());
    let self_s = |n: &str| totals.get(n).map_or(0.0, |t| t.self_s());
    let evaluate = total_s("explore.evaluate");
    let chained = total_s("explore.campaign");
    let baseline = total_s("explore.baseline");
    let busy = total_s("explore.config");
    let m = &mut layers.metrics;
    m.push(("explore.baseline_s".into(), "s", baseline));
    m.push(("explore.campaign_s".into(), "s", campaign));
    m.push(("explore.model_s".into(), "s", total_s("explore.model")));
    m.push(("explore.rank_s".into(), "s", total_s("explore.rank")));
    m.push(("explore.doc_s".into(), "s", total_s("explore.doc")));
    m.push((
        "explore.worker_idle_s".into(),
        "s",
        THREADS as f64 * par_wall - busy,
    ));
    m.push((
        "explore.campaign_share".into(),
        "ratio",
        campaign / (evaluate + baseline),
    ));
    for kind in SchemeKind::ALL {
        let names = stage_names(kind);
        for (name, stage) in names
            .iter()
            .zip(["build_s", "fill_s", "inject_s", "classify_s"])
        {
            m.push((format!("scheme.{}.{stage}", kind.name()), "s", self_s(name)));
        }
    }
    m.push((
        "trace_overhead.explore-full".into(),
        "x",
        chained / campaign,
    ));
    m.push((
        "obs.timing.breakdowns".into(),
        "count",
        obs.get("timing.breakdowns").copied().unwrap_or(0) as f64,
    ));
    layers.notes.push(format!(
        "explore-full: {} configs, traced wall {traced_wall:.2}s (evaluate {evaluate:.2}s incl. campaign, chain {campaign:.2}s untraced, {chained:.2}s traced)",
        configs.len()
    ));
    layers
}
