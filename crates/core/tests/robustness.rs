//! Graceful-degradation tests: pathological fault schedules must end in
//! a classified [`TrialOutcome`], never a silent horizon exhaustion or a
//! hang, and survivable faults must still complete.

use h2priv_core::experiment::{
    derive_retry_seed, run_isidewith_trial, run_isidewith_trial_retrying, run_isidewith_trial_with,
    FaultPlan, TrialOptions, TrialOutcome,
};
use h2priv_core::TransportKind;
use h2priv_netsim::faults::{FaultAction, FaultConfig, GilbertElliott};
use h2priv_netsim::prelude::*;

/// A permanent outage on every path link from `down_at` onwards.
fn permanent_outage(down_at: SimTime) -> FaultPlan {
    let cfg = FaultConfig::none().at(down_at, FaultAction::LinkDown);
    FaultPlan {
        client_link: Some(cfg.clone()),
        server_link: Some(cfg),
    }
}

#[test]
fn clean_trial_reports_completed() {
    let trial = run_isidewith_trial(42, None);
    assert_eq!(trial.result.outcome, TrialOutcome::Completed);
    assert!(!trial.result.outcome.is_degraded());
    assert!(trial.result.stall_detected_at.is_none());
    assert!(trial.result.fault_stats.is_empty());
}

/// A permanent link flap mid-transfer with default TCP settings: both
/// endpoints exhaust `max_rto_retries` and the watchdog classifies the
/// trial as a broken connection — not a silent horizon exhaustion.
#[test]
fn permanent_flap_aborts_connection() {
    let mut opts = TrialOptions::new(7, None);
    opts.faults = permanent_outage(SimTime::from_millis(300));
    let trial = run_isidewith_trial_with(opts, TransportKind::Tcp);
    assert_eq!(trial.result.outcome, TrialOutcome::ConnectionAborted);
    assert!(trial.result.client.connection_broken);
    assert!(trial.result.client.page_completed_at.is_none());
    // The fault layer, not the link, absorbed the lost packets.
    let down: u64 = trial
        .result
        .fault_stats
        .iter()
        .map(|s| s.dropped_down)
        .sum();
    assert!(down > 0, "outage should have dropped packets");
}

/// The same outage with effectively unbounded TCP retries: nothing ever
/// aborts, nothing progresses, and the watchdog must call it stalled
/// rather than letting it ride the horizon out unclassified.
#[test]
fn permanent_flap_with_unbounded_retries_is_stalled() {
    let mut opts = TrialOptions::new(7, None);
    opts.faults = permanent_outage(SimTime::from_millis(300));
    opts.client.tcp.max_rto_retries = 10_000;
    opts.server.tcp.max_rto_retries = 10_000;
    opts.stall_window = SimDuration::from_secs(10);
    let trial = run_isidewith_trial_with(opts, TransportKind::Tcp);
    assert_eq!(trial.result.outcome, TrialOutcome::Stalled);
    assert!(!trial.result.client.connection_broken);
    assert!(trial.result.stall_detected_at.is_some());
}

/// `fail_fast` ends a stalled trial at the first dead window instead of
/// simulating out the full horizon.
#[test]
fn fail_fast_ends_stalled_trials_early() {
    let mut opts = TrialOptions::new(7, None);
    opts.faults = permanent_outage(SimTime::from_millis(300));
    opts.client.tcp.max_rto_retries = 10_000;
    opts.server.tcp.max_rto_retries = 10_000;
    opts.stall_window = SimDuration::from_secs(10);
    opts.fail_fast = true;
    let horizon = opts.horizon;
    let trial = run_isidewith_trial_with(opts, TransportKind::Tcp);
    assert_eq!(trial.result.outcome, TrialOutcome::Stalled);
    assert!(
        trial.result.ended_at < SimTime::ZERO + horizon,
        "fail_fast should stop before the horizon, ended at {}",
        trial.result.ended_at
    );
}

/// A transient outage that heals: TCP retransmits through it and the
/// trial still completes, with the recovery visible as retransmissions.
#[test]
fn transient_flap_recovers_and_completes() {
    let mut opts = TrialOptions::new(11, None);
    let cfg = FaultConfig::none().with_flap(SimTime::from_millis(300), SimDuration::from_secs(1));
    opts.faults = FaultPlan {
        client_link: None,
        server_link: Some(cfg),
    };
    let trial = run_isidewith_trial_with(opts, TransportKind::Tcp);
    assert_eq!(trial.result.outcome, TrialOutcome::Completed);
    assert!(trial.result.client.page_completed_at.is_some());
    assert!(
        trial.result.total_retransmissions() > 0,
        "the outage should force retransmissions"
    );
}

/// Heavy bursty loss degrades but does not wedge the harness: the trial
/// terminates with a classified outcome either way.
#[test]
fn bursty_loss_always_terminates_classified() {
    for seed in [1u64, 2, 3] {
        let mut opts = TrialOptions::new(seed, None);
        let cfg = FaultConfig::none().with_burst_loss(GilbertElliott::bursty(0.3, 6.0));
        opts.faults = FaultPlan {
            client_link: Some(cfg.clone()),
            server_link: Some(cfg),
        };
        opts.fail_fast = true;
        let horizon = opts.horizon;
        let trial = run_isidewith_trial_with(opts, TransportKind::Tcp);
        // Any outcome is acceptable; what matters is classification and
        // termination with the books kept.
        let burst: u64 = trial
            .result
            .fault_stats
            .iter()
            .map(|s| s.dropped_burst)
            .sum();
        assert!(burst > 0, "seed {seed}: 30% burst loss must drop packets");
        assert!(
            trial.result.ended_at <= SimTime::ZERO + horizon,
            "seed {seed}: trial must respect the horizon"
        );
    }
}

/// Degraded trials are retried on derived seeds; the derivation is
/// deterministic and attempt 0 keeps the original seed.
#[test]
fn retry_uses_derived_seeds_and_records_failures() {
    assert_eq!(derive_retry_seed(99, 0), 99);
    assert_ne!(derive_retry_seed(99, 1), 99);
    assert_eq!(derive_retry_seed(99, 1), derive_retry_seed(99, 1));
    assert_ne!(derive_retry_seed(99, 1), derive_retry_seed(99, 2));

    // A permanent outage fails every attempt: all retries are consumed
    // and every failure is recorded.
    let mut opts = TrialOptions::new(7, None);
    opts.faults = permanent_outage(SimTime::from_millis(300));
    opts.fail_fast = true;
    let retried = run_isidewith_trial_retrying(opts.clone(), 2);
    assert_eq!(retried.retries_used(), 2);
    assert!(retried.failed_attempts.iter().all(|o| o.is_degraded()));
    assert!(retried.trial.result.outcome.is_degraded());

    // A clean configuration completes on the first attempt.
    let clean = run_isidewith_trial_retrying(TrialOptions::new(7, None), 2);
    assert_eq!(clean.retries_used(), 0);
    assert_eq!(clean.trial.result.outcome, TrialOutcome::Completed);
}

/// Outcome labels are stable (they appear in JSON reports).
#[test]
fn outcome_labels_are_stable() {
    assert_eq!(TrialOutcome::Completed.label(), "completed");
    assert_eq!(TrialOutcome::Stalled.label(), "stalled");
    assert_eq!(
        TrialOutcome::ConnectionAborted.label(),
        "connection_aborted"
    );
    assert_eq!(TrialOutcome::HorizonExhausted.label(), "horizon_exhausted");
}
