//! Pins the browser model's full bookkeeping on both transports. A
//! digest covers every `ClientReport` field — each `RequestRecord` and
//! `ObjectOutcome`, the re-request and reset counters, the broken flag
//! and the transport retransmit count — for fixed seeds under three
//! attacks: passive, GET jitter (re-requests fire) and Section IV-D
//! drops (stall, reset volley, reissue). `events_total` only sums event
//! counts; this catches a change to *what* the client recorded.

use h2priv_core::attack::AttackConfig;
use h2priv_core::experiment::{run_isidewith_h3_trial, run_isidewith_trial};
use h2priv_h2::ClientReport;
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_util::fxhash::FxHasher;
use std::hash::Hasher;

fn time(h: &mut FxHasher, t: Option<SimTime>) {
    h.write_u64(t.map_or(u64::MAX, |t| t.as_nanos()));
}

fn digest(r: &ClientReport) -> u64 {
    let mut h = FxHasher::default();
    time(&mut h, r.page_started_at);
    time(&mut h, r.page_completed_at);
    for q in &r.requests {
        h.write_u32(q.object.0);
        h.write_u32(q.stream.0);
        h.write_u32(q.attempt);
        h.write_u64(q.issued_at.as_nanos());
        time(&mut h, q.headers_at);
        time(&mut h, q.first_data_at);
        time(&mut h, q.completed_at);
        h.write_u64(q.bytes);
        h.write_u8(q.reset as u8);
    }
    for o in &r.objects {
        h.write_u32(o.object.0);
        time(&mut h, o.requested_at);
        time(&mut h, o.first_byte_at);
        time(&mut h, o.completed_at);
        h.write_u32(o.attempts);
        h.write_u32(o.resets);
    }
    h.write_u64(r.h2_rerequests);
    h.write_u64(r.resets_sent);
    h.write_u8(r.connection_broken as u8);
    h.write_u64(r.tcp_retransmits);
    h.finish()
}

/// `(label, attack)` for the three pinned attacks.
fn attacks() -> [(&'static str, Option<AttackConfig>); 3] {
    [
        ("passive", None),
        (
            "jitter",
            Some(AttackConfig::jitter_only(SimDuration::from_millis(200))),
        ),
        (
            "drops",
            Some(AttackConfig::with_drops(0.8, SimDuration::from_secs(6))),
        ),
    ]
}

const SEEDS: [u64; 2] = [31_007, 31_042];

fn run(h3: bool, seed: u64, attack: Option<AttackConfig>) -> ClientReport {
    let trial = if h3 {
        run_isidewith_h3_trial(seed, attack)
    } else {
        run_isidewith_trial(seed, attack)
    };
    trial.result.client
}

/// Runs every (attack, seed) cell on one transport and compares each
/// report's digest with `pins`, in `attacks()` × `SEEDS` order.
fn check(h3: bool, pins: [u64; 6]) {
    let mut rerequests = 0;
    let mut resets = 0;
    let mut got = Vec::new();
    for (label, attack) in attacks() {
        for seed in SEEDS {
            let report = run(h3, seed, attack.clone());
            if label == "jitter" {
                rerequests += report.h2_rerequests;
            }
            if label == "drops" {
                resets += report.resets_sent;
            }
            got.push(digest(&report));
        }
    }
    assert!(rerequests > 0, "jitter cells must fire re-requests");
    assert!(resets > 0, "drop cells must fire a reset volley");
    assert_eq!(got, pins, "client report digests");
}

#[test]
fn h2_client_reports_are_pinned() {
    check(
        false,
        [
            0xb0ee_6e78_446e_2b56,
            0x93e4_f055_0a63_cc8c,
            0x3ac2_f87a_5cbd_17e5,
            0xbcbc_54a3_c05e_99bc,
            0x5364_c921_9298_9e99,
            0xc802_5cf8_abbe_b2de,
        ],
    );
}

#[test]
fn h3_client_reports_are_pinned() {
    check(
        true,
        [
            0x8946_cab1_12d5_cba9,
            0x933b_d57c_c096_cbeb,
            0x30d3_8570_7fee_e572,
            0xffb3_feff_5cea_d88c,
            0xfd7a_42b0_f377_a597,
            0x5dd3_8c55_ff70_4f32,
        ],
    );
}
