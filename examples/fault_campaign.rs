//! Fault-injection campaign: compare how CPPC configurations and the
//! baseline schemes dispose of random spatial multi-bit errors.
//!
//! Run with `cargo run --release --example fault_campaign [trials]`.

use cppc::cache_sim::CacheGeometry;
use cppc::core::scheme::coverage_trial;
use cppc::core::{CppcConfig, SchemeKind};
use cppc::fault::campaign::{Campaign, OutcomeTally};
use cppc::fault::model::FaultModel;

fn geometry() -> CacheGeometry {
    CacheGeometry::new(4096, 2, 32).expect("valid geometry")
}

/// Runs `trials` coverage trials (fill way 0 dirty, strike once,
/// recover and classify) of `kind` under `config` against `model`.
fn campaign(kind: SchemeKind, config: CppcConfig, model: FaultModel, trials: u64) -> OutcomeTally {
    Campaign::new(0xFA11).run(trials, |rng, trial| {
        let mut scheme = kind.build(geometry(), config).expect("valid config");
        coverage_trial(scheme.as_mut(), geometry(), model, rng, trial)
    })
}

fn report(label: &str, tally: &OutcomeTally) {
    println!(
        "  {label:<24} corrected {:>5.1}%   DUE {:>5.1}%   SDC {:>5.1}%",
        tally.corrected as f64 / tally.total() as f64 * 100.0,
        tally.due as f64 / tally.total() as f64 * 100.0,
        tally.sdc as f64 / tally.total() as f64 * 100.0,
    );
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    println!("spatial-MBE campaign: {trials} trials per configuration\n");

    for (name, model) in [
        ("single-bit SEU", FaultModel::TemporalSingleBit),
        (
            "3x3 solid square",
            FaultModel::SpatialSquare {
                rows: 3,
                cols: 3,
                density: 1.0,
            },
        ),
        (
            "8x8 solid square",
            FaultModel::SpatialSquare {
                rows: 8,
                cols: 8,
                density: 1.0,
            },
        ),
    ] {
        println!("{name}:");
        report(
            "1D parity",
            &campaign(SchemeKind::Parity1d, CppcConfig::paper(), model, trials),
        );
        report(
            "CPPC basic (1b parity)",
            &campaign(SchemeKind::Cppc, CppcConfig::basic(), model, trials),
        );
        report(
            "CPPC paper (1 pair)",
            &campaign(SchemeKind::Cppc, CppcConfig::paper(), model, trials),
        );
        report(
            "CPPC 2 pairs",
            &campaign(SchemeKind::Cppc, CppcConfig::two_pairs(), model, trials),
        );
        report(
            "CPPC 8 pairs",
            &campaign(SchemeKind::Cppc, CppcConfig::eight_pairs(), model, trials),
        );
        println!();
    }
    println!("notes:");
    println!(" * schemes with 8-way interleaved parity never silently corrupt —");
    println!("   they refuse (DUE) when a fault is outside their envelope;");
    println!(" * the basic CPPC's single parity bit cannot even *detect* an even");
    println!("   number of flips per word (the 8x8 square flips 8), which is why");
    println!("   the paper pairs CPPC with interleaved parity for spatial faults.");
}
