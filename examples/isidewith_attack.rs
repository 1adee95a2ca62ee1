//! Reproduction of the paper's Section V evaluation on the isidewith
//! model: runs many attacked page loads and prints a Table II-style
//! accuracy table.
//!
//! ```sh
//! cargo run --release -p h2priv-core --example isidewith_attack -- [trials]
//! ```

use h2priv_core::experiments::{Experiment, Table2};
use h2priv_core::report::{pct, pct_opt, render_table};

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    eprintln!("running {trials} attacked page loads (Table II)...");
    let cols = Table2.rows(trials, 77_000, 0);

    let rows: Vec<Vec<String>> = cols
        .iter()
        .map(|c| {
            vec![
                c.object.clone(),
                pct_opt(c.gap_prev_ms),
                pct(c.pct_single_target),
                pct(c.pct_all_targets),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "object",
                "gap to prev req (ms)",
                "success % (single target)",
                "success % (all targets)"
            ],
            &rows
        )
    );
    println!("\npaper (Table II): single-target 100% everywhere;");
    println!("all-targets: HTML 90, I1 90, I2 85, I3 81, I4 80, I5 62, I6 64, I7 78, I8 64");
}
