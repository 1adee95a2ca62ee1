//! Regression: the parallel trial executor must be invisible in the
//! results. Running any registered experiment at `jobs = 4` has to
//! produce the same report and operator-table **bytes** as the
//! sequential `jobs = 1` path — cells are folded in submission order, so
//! floating-point sums, percentages, and serialized reports cannot
//! depend on worker scheduling.

use h2priv_core::experiments::{find, REGISTRY};

fn check(name: &str, trials: u64) {
    let exp = find(name).unwrap();
    let seq = exp.run(trials, 1);
    let par = exp.run(trials, 4);
    assert_eq!(seq.report, par.report, "{name}: report");
    assert_eq!(seq.lines, par.lines, "{name}: operator table");
}

macro_rules! jobs_identity {
    ($($test:ident: $name:literal x $trials:literal,)+) => {
        $(#[test]
        fn $test() {
            check($name, $trials);
        })+

        #[test]
        fn every_registered_experiment_has_a_jobs_identity_test() {
            let covered = [$($name),+];
            for e in REGISTRY {
                assert!(covered.contains(&e.name()), "{} is not covered", e.name());
            }
        }
    };
}

jobs_identity! {
    baseline_is_byte_identical_across_job_counts: "baseline" x 3,
    fig1_is_byte_identical_across_job_counts: "fig1" x 2,
    fig2_is_byte_identical_across_job_counts: "fig2" x 2,
    table1_is_byte_identical_across_job_counts: "table1" x 3,
    fig5_is_byte_identical_across_job_counts: "fig5" x 2,
    section4d_is_byte_identical_across_job_counts: "section4d" x 2,
    table2_is_byte_identical_across_job_counts: "table2" x 2,
    // Exercises the watchdog + retry path (run_isidewith_trial_retrying)
    // under the pool: intensity 1.0 trials hit faults and may retry.
    robustness_sweep_with_retries_is_byte_identical_across_job_counts: "robustness_sweep" x 2,
    transport_transfer_is_byte_identical_across_job_counts: "transport_transfer" x 2,
    ablation_is_byte_identical_across_job_counts: "ablation" x 2,
    defense_matrix_is_byte_identical_across_job_counts: "defense_matrix" x 2,
}
