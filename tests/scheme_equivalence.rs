//! Golden equivalence for the `ProtectionScheme` trial protocol: the
//! four paper schemes (`cppc`, `parity1d`, `secded-interleaved`,
//! `parity2d`, plus 2D parity with 8 vertical rows) must reproduce the
//! historical baked-in campaign closures **bit for bit** — same
//! tallies, same checkpoint bytes — at 1, 2 and 8 threads. CPPC is
//! pinned under every configuration x fault model, since `--scheme
//! cppc` is the only CPPC campaign path. The two related-work schemes,
//! which have no historical closure, are pinned to golden tallies.
//!
//! The "legacy" closures below are the pre-refactor campaign bodies,
//! kept inline here as the frozen reference: each drives the concrete
//! cache type directly (no trait), fills way 0 from the trial-seeded
//! RNG, strikes with the model's historical draw order (one `u64`
//! strike seed — or interleaved SECDED's two physical-range draws) and
//! classifies with the historical rules. If a scheme impl ever
//! consumes the RNG stream differently or reorders a classification
//! branch, these tests fail.

use std::path::PathBuf;

use cppc_bench::experiments::{inject_geometry, parse_config, parse_fault, scheme_experiment};
use cppc_cache_sim::memory::MainMemory;
use cppc_cache_sim::replacement::ReplacementPolicy;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::rng::{RngExt, SeedableRng};
use cppc_campaign::{run, run_resumable, CampaignConfig, CheckpointPolicy};
use cppc_core::baselines::{OneDimParityCache, SecdedCache, TwoDimParityCache};
use cppc_core::scheme::coverage_trial;
use cppc_core::{CppcCache, CppcConfig, SchemeKind};
use cppc_fault::campaign::{Outcome, OutcomeTally};
use cppc_fault::model::{FaultGenerator, FaultModel};

const SEED: u64 = 0xE0_17A1;
const TRIALS: u64 = 96;
const SHARD: u64 = 16;
const FAULT: FaultModel = FaultModel::SpatialSquare {
    rows: 4,
    cols: 4,
    density: 1.0,
};

/// The shared warm-up: fill way 0 with trial-seeded values through
/// `store`, returning ground truth. Identical to the fill loops of the
/// historical closures and of `scheme_experiment`.
fn fill(trial: u64, mut store: impl FnMut(u64, u64)) -> Vec<(u64, u64)> {
    let geo = inject_geometry();
    let mut rng = StdRng::seed_from_u64(trial);
    let mut truth = Vec::new();
    for set in 0..geo.num_sets() {
        for word in 0..geo.words_per_block() {
            let addr = geo.address_of(0, set) + (word * 8) as u64;
            let v: u64 = rng.random();
            store(addr, v);
            truth.push((addr, v));
        }
    }
    truth
}

/// Pre-refactor CPPC campaign body (the retired `inject` campaign's
/// protocol) for one CPPC configuration and fault model.
fn legacy_cppc(
    config: CppcConfig,
    fault: FaultModel,
) -> impl Fn(&mut StdRng, u64) -> Outcome + Sync {
    move |rng, trial| {
        let mut mem = MainMemory::new();
        let mut cache =
            CppcCache::new_l1(inject_geometry(), config, ReplacementPolicy::Lru).unwrap();
        let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem).unwrap());
        let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
        if cache.inject(&generator.sample(fault)) == 0 {
            return Outcome::Masked;
        }
        match cache.recover_all(&mut mem) {
            Err(_) => Outcome::DetectedUnrecoverable,
            Ok(_) => {
                if truth.iter().all(|&(a, v)| cache.peek_word(a) == Some(v)) {
                    Outcome::Corrected
                } else {
                    Outcome::SilentCorruption
                }
            }
        }
    }
}

/// Pre-refactor 1D-parity campaign body (coverage-matrix protocol:
/// all loads surviving means the flips were parity-masked).
fn legacy_parity1d(rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = OneDimParityCache::new(inject_geometry(), 8, ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
    if cache.inject(&generator.sample(FAULT)) == 0 {
        return Outcome::Masked;
    }
    for &(addr, v) in &truth {
        match cache.load_word(addr, &mut mem) {
            Err(_) => return Outcome::DetectedUnrecoverable,
            Ok(got) if got != v => return Outcome::SilentCorruption,
            Ok(_) => {}
        }
    }
    Outcome::Masked
}

/// Pre-refactor interleaved-SECDED campaign body, including the
/// physical-strike translation and its two-range RNG draw order.
fn legacy_secded(rng: &mut StdRng, trial: u64) -> Outcome {
    let mut mem = MainMemory::new();
    let mut cache = SecdedCache::new(inject_geometry(), true, ReplacementPolicy::Lru);
    let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
    let logical_rows = cache.layout().num_rows() / 2;
    let (rows, cols) = match FAULT {
        FaultModel::TemporalSingleBit | FaultModel::TemporalMultiBit { .. } => (1, 1),
        FaultModel::VerticalStripe { rows } => (rows, 1),
        FaultModel::HorizontalBurst { cols } => (1, cols),
        FaultModel::SpatialSquare { rows, cols, .. } => (rows, cols),
    };
    let physical_rows = logical_rows / 8;
    let prows = rows.div_ceil(8).max(1).min(physical_rows);
    let row0 = rng.random_range(0..=(physical_rows - prows));
    let col0 = rng.random_range(0..=(512 - cols));
    if cache.inject_spatial(row0, col0, prows, cols).is_empty() {
        return Outcome::Masked;
    }
    for &(addr, v) in &truth {
        match cache.load_word(addr, &mut mem) {
            Err(_) => return Outcome::DetectedUnrecoverable,
            Ok(got) if got != v => return Outcome::SilentCorruption,
            Ok(_) => {}
        }
    }
    Outcome::Corrected
}

/// Pre-refactor 2D-parity campaign body with `vertical_rows` vertical
/// parity rows (1 for `--scheme parity2d`, 8 for the coverage
/// matrix's second 2D-parity row).
fn legacy_parity2d(vertical_rows: usize) -> impl Fn(&mut StdRng, u64) -> Outcome + Sync {
    move |rng, trial| {
        let mut mem = MainMemory::new();
        let mut cache =
            TwoDimParityCache::new(inject_geometry(), vertical_rows, ReplacementPolicy::Lru);
        let truth = fill(trial, |a, v| cache.store_word(a, v, &mut mem));
        let mut generator = FaultGenerator::new(cache.layout().num_rows() / 2, rng.random());
        if cache.inject(&generator.sample(FAULT)) == 0 {
            return Outcome::Masked;
        }
        match cache.recover_all() {
            Err(_) => Outcome::DetectedUnrecoverable,
            Ok(()) => {
                if truth.iter().all(|&(a, v)| cache.peek_word(a) == Some(v)) {
                    Outcome::Corrected
                } else {
                    Outcome::SilentCorruption
                }
            }
        }
    }
}

/// A campaign body chosen at run time.
type Experiment = Box<dyn Fn(&mut StdRng, u64) -> Outcome + Sync>;

/// The frozen reference of `kind` under `config` and `fault` (the
/// non-CPPC references are pinned at the paper configuration and
/// [`FAULT`]).
fn legacy_of(kind: SchemeKind, config: CppcConfig, fault: FaultModel) -> Experiment {
    match kind {
        SchemeKind::Cppc => Box::new(legacy_cppc(config, fault)),
        SchemeKind::Parity1d => Box::new(legacy_parity1d),
        SchemeKind::SecdedInterleaved => Box::new(legacy_secded),
        SchemeKind::Parity2d => Box::new(legacy_parity2d(1)),
        other => panic!("{other} has no pre-refactor path"),
    }
}

const PORTED: [SchemeKind; 4] = [
    SchemeKind::Cppc,
    SchemeKind::Parity1d,
    SchemeKind::SecdedInterleaved,
    SchemeKind::Parity2d,
];

const CPPC_CONFIGS: [&str; 4] = ["basic", "paper", "two-pairs", "eight-pairs"];
const FAULTS: [&str; 5] = ["single", "2xvert", "8xhoriz", "4x4", "8x8"];

/// Every case pinned against its frozen reference, as `(label, legacy,
/// ported)`: the four ported schemes at the paper configuration and
/// [`FAULT`], CPPC under every configuration x fault model the
/// campaign front ends accept (the grid the retired `inject` campaign
/// covered), and 8-row 2D parity — which no `SchemeKind` builds — run
/// through `coverage_trial` directly, as the coverage matrix runs it.
fn pinned_cases() -> Vec<(String, Experiment, Experiment)> {
    let mut grid: Vec<_> = PORTED.iter().map(|&kind| (kind, "paper", "4x4")).collect();
    for config in CPPC_CONFIGS {
        for fault in FAULTS {
            if (config, fault) != ("paper", "4x4") {
                grid.push((SchemeKind::Cppc, config, fault));
            }
        }
    }
    let mut cases: Vec<(String, Experiment, Experiment)> = grid
        .into_iter()
        .map(|(kind, config_name, fault_name)| {
            let config = parse_config(config_name).unwrap();
            let fault = parse_fault(fault_name).unwrap();
            (
                format!("{kind}_{config_name}_{fault_name}"),
                legacy_of(kind, config, fault),
                Box::new(scheme_experiment(kind, config, fault)) as Experiment,
            )
        })
        .collect();
    cases.push((
        "parity2d_8rows_4x4".into(),
        Box::new(legacy_parity2d(8)),
        Box::new(|rng: &mut StdRng, trial| {
            let geo = inject_geometry();
            let mut cache = TwoDimParityCache::new(geo, 8, ReplacementPolicy::Lru);
            coverage_trial(&mut cache, geo, FAULT, rng, trial)
        }),
    ));
    cases
}

fn cfg(threads: usize) -> CampaignConfig {
    CampaignConfig::new(SEED, TRIALS)
        .threads(threads)
        .shard_size(SHARD)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppc_scheme_equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs one experiment body through `run_resumable` (fresh checkpoint
/// file) and returns the tally plus the final checkpoint bytes.
fn run_checkpointed<F>(label: &str, threads: usize, experiment: F) -> (OutcomeTally, Vec<u8>)
where
    F: Fn(&mut StdRng, u64) -> Outcome + Sync,
{
    let path = tmp(&format!("{label}_{threads}.json"));
    let _ = std::fs::remove_file(&path);
    let policy = CheckpointPolicy {
        path: path.clone(),
        every_shards: 1,
        resume: false,
    };
    let report = run_resumable::<OutcomeTally, _, _>(&cfg(threads), &policy, experiment, |_| {})
        .expect("campaign completes");
    assert!(report.is_complete());
    let bytes = std::fs::read(&path).expect("final checkpoint written");
    let _ = std::fs::remove_file(&path);
    (report.result, bytes)
}

#[test]
fn ported_schemes_match_legacy_tallies_and_checkpoint_bytes() {
    assert_eq!(parse_fault("4x4").unwrap(), FAULT);
    for (case, legacy, ported) in pinned_cases() {
        for threads in [1usize, 2, 8] {
            let (legacy_tally, legacy_bytes) =
                run_checkpointed(&format!("legacy_{case}"), threads, &*legacy);
            let (scheme_tally, scheme_bytes) =
                run_checkpointed(&format!("scheme_{case}"), threads, &*ported);
            assert_eq!(
                scheme_tally, legacy_tally,
                "{case} tally diverged at {threads} threads"
            );
            assert_eq!(
                scheme_bytes, legacy_bytes,
                "{case} checkpoint bytes diverged at {threads} threads"
            );
        }
    }
}

/// Exact tallies `(masked, corrected, due, sdc)` of the two zoo
/// schemes that have no frozen closure, recorded from the wrapper-struct
/// implementation before the trait moved onto the caches. Both strike
/// through the default (logical-row) `inject_model`, so these pin that
/// RNG path for every fault model the front ends accept.
const ZOO_GOLDEN: [(SchemeKind, &str, [u64; 4]); 10] = [
    (SchemeKind::SilentWriteEcc, "single", [0, 96, 0, 0]),
    (SchemeKind::SilentWriteEcc, "2xvert", [0, 96, 0, 0]),
    (SchemeKind::SilentWriteEcc, "8xhoriz", [0, 0, 75, 21]),
    (SchemeKind::SilentWriteEcc, "4x4", [0, 0, 55, 41]),
    (SchemeKind::SilentWriteEcc, "8x8", [0, 0, 75, 21]),
    (SchemeKind::HarpOdecc, "single", [0, 96, 0, 0]),
    (SchemeKind::HarpOdecc, "2xvert", [0, 96, 0, 0]),
    (SchemeKind::HarpOdecc, "8xhoriz", [0, 75, 0, 21]),
    (SchemeKind::HarpOdecc, "4x4", [0, 55, 0, 41]),
    (SchemeKind::HarpOdecc, "8x8", [0, 75, 0, 21]),
];

#[test]
fn tallies_are_thread_invariant_for_every_scheme() {
    for (kind, fault_name, [masked, corrected, due, sdc]) in ZOO_GOLDEN {
        let fault = parse_fault(fault_name).unwrap();
        let golden = OutcomeTally {
            masked,
            corrected,
            due,
            sdc,
        };
        for threads in [1usize, 2, 8] {
            let t: OutcomeTally = run(
                &cfg(threads),
                scheme_experiment(kind, CppcConfig::paper(), fault),
            )
            .result;
            assert_eq!(t, golden, "{kind} {fault_name} at {threads} threads");
        }
    }
    // Every scheme's determinism, the way the engine guarantees it.
    for kind in SchemeKind::ALL {
        let base: OutcomeTally =
            run(&cfg(1), scheme_experiment(kind, CppcConfig::paper(), FAULT)).result;
        assert_eq!(base.total(), TRIALS);
        for threads in [2usize, 8] {
            let t: OutcomeTally = run(
                &cfg(threads),
                scheme_experiment(kind, CppcConfig::paper(), FAULT),
            )
            .result;
            assert_eq!(t, base, "{kind} tally varies at {threads} threads");
        }
    }
}

#[test]
fn legacy_reference_is_exercised() {
    // Guard against the frozen reference decaying into dead code that
    // masks everything: the 4x4 solid strike must actually separate
    // the schemes (CPPC and interleaved SECDED correct it, 1D parity
    // and single-row 2D parity end in DUE).
    let (cppc, _) = run_checkpointed("probe_cppc", 1, legacy_cppc(CppcConfig::paper(), FAULT));
    let (parity, _) = run_checkpointed("probe_parity", 1, legacy_parity1d);
    assert!(cppc.corrected > 0, "CPPC corrects the 4x4 strike");
    assert_eq!(cppc.sdc, 0);
    assert!(parity.due > 0, "1D parity cannot correct dirty faults");
    assert_eq!(parity.corrected, 0);
}
