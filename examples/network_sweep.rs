//! Sweep the adversary's network parameters and watch their effect on
//! HTTP/2 multiplexing — the paper's Section IV study (Table I + Fig. 5
//! + Section IV-D) in one binary.
//!
//! ```sh
//! cargo run --release -p h2priv-core --example network_sweep -- [trials]
//! ```

use h2priv_core::experiments::{Experiment, Fig5, Section4d, Table1};
use h2priv_core::report::{pct, render_table};

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);

    eprintln!("jitter sweep ({trials} trials/point)...");
    let t1 = Table1.rows(trials, 10_000, 0);
    let rows: Vec<Vec<String>> = t1
        .iter()
        .map(|r| {
            vec![
                r.jitter_ms.to_string(),
                pct(r.pct_not_multiplexed),
                format!("{:.1}", r.retransmissions_avg),
                pct(r.retrans_increase_pct),
            ]
        })
        .collect();
    println!("Table I — effect of jitter:");
    println!(
        "{}",
        render_table(
            &[
                "jitter (ms)",
                "not multiplexed (%)",
                "retransmissions (avg)",
                "retrans increase (%)"
            ],
            &rows
        )
    );

    eprintln!("bandwidth sweep ({trials} trials/point)...");
    let f5 = Fig5.rows(trials, 20_000, 0);
    let rows: Vec<Vec<String>> = f5
        .iter()
        .map(|r| {
            vec![
                r.bandwidth_mbps.to_string(),
                pct(r.pct_success),
                format!("{:.1}", r.retransmissions_avg),
                pct(r.pct_broken),
            ]
        })
        .collect();
    println!("\nFig. 5 — effect of bandwidth limitation (50 ms jitter):");
    println!(
        "{}",
        render_table(
            &[
                "bandwidth (Mbps)",
                "success (%)",
                "retransmissions (avg)",
                "broken (%)"
            ],
            &rows
        )
    );

    eprintln!("targeted-drop sweep ({trials} trials/point)...");
    let dr = Section4d {
        rates: &[0.5, 0.8, 0.9],
        timer_rates: &[],
    }
    .rows(trials, 30_000, 0);
    let rows: Vec<Vec<String>> = dr
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.drop_rate * 100.0),
                pct(r.pct_success),
                pct(r.pct_reset_sent),
                pct(r.pct_broken),
            ]
        })
        .collect();
    println!("\nSection IV-D — targeted drops forcing stream reset:");
    println!(
        "{}",
        render_table(
            &["drop rate", "success (%)", "reset sent (%)", "broken (%)"],
            &rows
        )
    );
}
