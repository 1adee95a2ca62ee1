//! Fold identity: the campaign's incremental per-cell fold — including
//! a JSON round-trip of every payload, exactly as the journal imposes —
//! must reproduce the in-process experiment's report bytes. This is the
//! invariant that lets the sharded campaign runner claim its output is
//! *the* experiment output, not an approximation of it. One test per
//! registered experiment, at one trial per batch.

use h2priv_core::campaign::CampaignSpec;
use h2priv_core::experiments::{find, REGISTRY};
use h2priv_util::json::Json;

/// Runs every cell, round-trips its payload through compact JSON text
/// (the journal's storage form), folds, and compares with the
/// in-process report.
fn check(name: &str) {
    let spec = CampaignSpec::for_experiment(name, 1).unwrap();
    let mut folder = spec.folder();
    for i in 0..spec.total_cells() {
        let (batch, trial) = spec.cell(i);
        let payload = spec.run_cell(batch, trial);
        let round_tripped = Json::parse(&payload.to_string_compact()).unwrap();
        assert_eq!(round_tripped, payload, "payload round-trip must be exact");
        folder.push(batch, trial, &round_tripped).unwrap();
    }
    let direct = find(name).unwrap().run(1, 1);
    assert_eq!(folder.finish().unwrap(), direct.report, "{name}");
}

macro_rules! fold_identity {
    ($($test:ident: $name:literal,)+) => {
        $(#[test]
        fn $test() {
            check($name);
        })+

        #[test]
        fn every_registered_experiment_has_a_fold_identity_test() {
            let covered = [$($name),+];
            for e in REGISTRY {
                assert!(covered.contains(&e.name()), "{} is not covered", e.name());
            }
        }
    };
}

fold_identity! {
    campaign_fold_matches_baseline_report_bytes: "baseline",
    campaign_fold_matches_fig1_report_bytes: "fig1",
    campaign_fold_matches_fig2_report_bytes: "fig2",
    campaign_fold_matches_table1_report_bytes: "table1",
    campaign_fold_matches_fig5_report_bytes: "fig5",
    campaign_fold_matches_section4d_report_bytes: "section4d",
    campaign_fold_matches_table2_report_bytes: "table2",
    campaign_fold_matches_robustness_sweep_report_bytes: "robustness_sweep",
    campaign_fold_matches_transport_transfer_report_bytes: "transport_transfer",
    campaign_fold_matches_ablation_report_bytes: "ablation",
    campaign_fold_matches_defense_matrix_report_bytes: "defense_matrix",
}
