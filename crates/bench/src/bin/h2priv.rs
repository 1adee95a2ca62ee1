//! `h2priv`: runs any experiment of the paper's evaluation (and of its
//! extensions) by name, in process or as a sharded campaign.
//!
//! ```sh
//! cargo run --release -p h2priv-bench --bin h2priv -- <experiment> [trials] \
//!     [--jobs N] [--out FILE] [--trace out.jsonl] [--metrics] [--quiet]
//! cargo run --release -p h2priv-bench --bin h2priv -- campaign <experiment> [trials] \
//!     --journal FILE [--out FILE] [--shards N] [--resume] ...
//! ```
//!
//! The experiments are `h2priv_core::experiments::REGISTRY`: each prints
//! its table next to the paper's numbers, dumps its rows as JSON on
//! stderr, and those with a committed result file (`robustness_sweep`,
//! `transport_transfer`, `defense_matrix`) write it under `results/`,
//! or to `--out`. Trial counts default per experiment; `--jobs` fans
//! trials across threads (0 = all cores) without changing a byte of
//! output. See [`h2priv_bench::campaign`] for the `campaign` subcommand.

use h2priv_bench::{
    campaign, experiment_arg, flag_present, flag_u64, flag_value, obs, odetail, oinfo, out,
    positional, trials_for,
};
use h2priv_core::experiments::Line;

const USAGE: &str = "<experiment> [trials] [--jobs N] [--out FILE] [--trace out.jsonl] \
     [--metrics] [--quiet]  |  campaign <experiment> [trials] --journal FILE ...";

fn main() {
    if positional(1).as_deref() == Some("campaign") {
        let _o = obs::init();
        campaign::supervise();
        return;
    }
    let exp = experiment_arg(1, USAGE);
    if flag_present("--shard-worker") {
        campaign::work(exp);
        return;
    }
    let o = obs::init();
    let trials = trials_for(exp, 2, "");
    let jobs = flag_u64("--jobs", 0) as usize;
    if let Some(intro) = exp.intro(trials) {
        odetail!("{intro}");
    }
    let output = exp.run(trials, jobs);
    for line in &output.lines {
        match line {
            Line::Info(s) => oinfo!("{s}"),
            Line::Detail(s) => odetail!("{s}"),
        }
    }
    if let Some(file) = exp.result_file() {
        let default = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
        let path = flag_value("--out").unwrap_or(default);
        out::write_result_file(&path, &output.report);
        odetail!("wrote {path}");
        out::stderr_str(&output.report);
    }
    obs::finish(&o);
}
