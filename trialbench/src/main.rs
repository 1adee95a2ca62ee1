//! One benchmark for the trial pipeline.
//!
//! ```sh
//! cargo run --release --offline --manifest-path trialbench/Cargo.toml -- \
//!     --workload h2_attack --seed 91 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload on one worker thread, closed loop (the next trial
//! starts when the previous one ends), in rounds of a thousand distinct
//! trials (attack workloads) or of the whole campaign, for about
//! `--seconds`. It checks the results (against the committed reference
//! at the reference seed, and for self-consistency at any seed), prints a table of every
//! metric with its unit, median, quartiles and sample count, and ends
//! with one JSON line. `--trace 1` is the separate traced run: it adds
//! wall-clock spans around every layer call and the replay timings, and
//! prints the per-layer metrics. Exit status: 0 when every check
//! passed, 1 when a check failed, 2 when the benchmark could not run.
//! See `trialbench/README.md`.

mod layers;
mod spans;
mod stats;
mod workload;

use h2priv_util::alloc;
use h2priv_util::json::Json;
use layers::{LayerTimings, ReplayInputs};
use spans::{layer_times, LayerTime, SpanLog};
use stats::{percentile_sorted, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Counts, Plan, Reference, Round, Scored, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Trials run as warm-up in each set-up. Enough that the set-up is
/// mostly steady work rather than first-touch page faults, whose cost
/// swings with the host's load.
const WARM_TRIALS: u64 = 20;
/// Rounds and trial samples an untraced run collects at least, so the
/// quartiles and the p99 (ten samples beyond it) are defined. The
/// allocation counts cover exactly the first `MIN_ROUNDS` rounds, the
/// same trials in every run of a seed.
const MIN_ROUNDS: usize = 3;
const MIN_SAMPLES: usize = 1_000;
/// Trials whose inputs feed the replay timings.
const REPLAY_TRIALS: u64 = 10;
/// Wall budget of each replay timing, ms.
const REPLAY_MS: u64 = 60;

/// Metrics printed in the table but kept out of the result line.
/// `failed_frac` reads 0 in a healthy run, which no relative bound can
/// compare. `peak_rss_mb` is set by the single largest trial of the
/// seed's input set (33 or 52 MiB on `defense_matrix`, by seed), so no
/// bound holds it steady across seeds.
const TABLE_ONLY: [&str; 2] = ["failed_frac", "peak_rss_mb"];

const USAGE: &str =
    "usage: trialbench --workload <h2_attack|h3_attack|defense_matrix|robustness_sweep> \
[--seed N] [--seconds S] [--trace 0|1] [--print-reference]";

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut print_reference = false;
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            print_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
        print_reference,
    })
}

/// Everything one set-up builds.
struct Prepared {
    plan: Plan,
    /// The workload's reference, made at its default seed.
    reference: Reference,
}

fn prepare(args: &Args, root: &Path, out_dir: &Path) -> Result<Prepared, String> {
    let reference = Reference::load(args.workload, root)?;
    let plan = Plan::new(args.workload, args.seed, out_dir)?;
    plan.warm_up(WARM_TRIALS)?;
    Ok(Prepared { plan, reference })
}

/// What the measured part of a run collected.
struct Measured {
    untraced: Vec<Round>,
    traced: Vec<Round>,
    /// Simulator events per round of a campaign (from the census).
    census_events: Option<u64>,
    /// Counts over one traced round (attack) or the census (campaign).
    counts: Counts,
    /// Trials (cells) `counts` covers.
    counted_trials: u64,
    timings: Option<LayerTimings>,
    spans: SpanLog,
    peak_rss_mb: f64,
    /// Failed checks, one line each.
    failures: Vec<String>,
    /// Passed checks, one line each.
    passes: Vec<String>,
}

fn measure(p: &Prepared, args: &Args) -> Result<Measured, String> {
    let mut log = SpanLog::new(args.trace);
    let mut quiet = SpanLog::new(false);
    let mut next_id = 0u64;
    let mut counts = Counts::default();
    let mut counted_trials = 0u64;
    let mut inputs = ReplayInputs::default();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let t0 = Instant::now();
    loop {
        // The traced run alternates untraced and traced rounds, so both
        // rates see the same drift; each traced round runs the trials
        // of the untraced round before it.
        let tracing = args.trace && untraced.len() > traced.len();
        let index = if tracing {
            traced.len()
        } else {
            untraced.len()
        } as u64;
        if tracing {
            let first = traced.is_empty();
            let mut observe = |t: u64, s: &Scored| {
                if first {
                    counts.add(s);
                    counted_trials += 1;
                    if t < REPLAY_TRIALS {
                        inputs.add(s, None);
                    }
                }
            };
            traced.push(p.plan.round(index, &mut log, &mut next_id, &mut observe)?);
        } else {
            untraced.push(
                p.plan
                    .round(index, &mut quiet, &mut next_id, &mut |_, _| {})?,
            );
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let rounds = untraced.len() + traced.len();
        let samples: usize = untraced.iter().map(|r| r.trial_ns.len()).sum();
        let enough = if args.trace {
            traced.len() >= 2 && untraced.len() >= 2
        } else {
            untraced.len() >= MIN_ROUNDS && samples >= MIN_SAMPLES
        };
        // Stop at the round end nearest the budget; a hard cap keeps a
        // slow host inside the time limit.
        let half_round = elapsed / rounds as f64 / 2.0;
        if (enough && elapsed + half_round > args.seconds) || elapsed > args.seconds + 60.0 {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();

    let mut failures = Vec::new();
    let mut passes = Vec::new();
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    // Round 0, always untraced.
    let first = all[0];
    if p.plan.spec.is_some() {
        if all
            .iter()
            .all(|r| r.digest.is_some() && r.digest == first.digest)
        {
            passes.push(format!(
                "{} rounds produced identical results (digest {:#018x})",
                all.len(),
                first.digest.unwrap_or(0)
            ));
        } else {
            failures.push("rounds of the same seed produced different results".to_string());
        }
    } else {
        // Attack rounds run distinct trials: run round 0's leading
        // trials again, untimed, after everything else.
        let again = p.plan.check_round()?;
        if first.pin_digest.is_some()
            && (again.pin_digest, again.pin_events) == (first.pin_digest, first.pin_events)
        {
            passes.push(format!(
                "the first {} trials, run again after {} rounds of distinct trials, \
                 reproduced their results (digest {:#018x})",
                workload::PIN_TRIALS,
                all.len(),
                first.pin_digest.unwrap_or(0)
            ));
        } else {
            failures.push(
                "the first trials of the seed produced different results when run again"
                    .to_string(),
            );
        }
    }
    let at_reference = args.seed == args.workload.default_seed();
    if at_reference {
        match p.reference.check(first) {
            Ok(()) => passes.push(reference_pass(&p.reference, first)),
            Err(e) => failures.push(format!("reference: {e}")),
        }
    }

    let mut census_events = None;
    if let Some(spec) = &p.plan.spec {
        let last = all[all.len() - 1];
        let mut census = Counts::default();
        let mut cells = std::collections::BTreeSet::new();
        let result = p.plan.census(
            &last.records,
            &mut log,
            &mut next_id,
            &mut |cell, pad, s| {
                census.add(s);
                cells.insert(cell);
                if spec.cell(cell).1 == 0 {
                    inputs.add(s, pad);
                }
            },
        );
        match result {
            Ok(()) => {
                passes.push(format!(
                    "census: {} cells replayed through the trial pipeline match their journaled payloads",
                    cells.len()
                ));
                census_events = Some(census.events);
                counts = census;
                counted_trials = cells.len() as u64;
            }
            Err(e) => failures.push(e),
        }
    }

    if !at_reference {
        // The measured seed has no committed reference: check the
        // program against the one at the reference seed, untimed.
        let plan = Plan::new(
            args.workload,
            args.workload.default_seed(),
            p.plan.journal.parent().unwrap_or(Path::new(".")),
        )?;
        let round = plan.check_round()?;
        match p.reference.check(&round) {
            Ok(()) => passes.push(format!(
                "{} (verification round at seed {})",
                reference_pass(&p.reference, &round),
                args.workload.default_seed()
            )),
            Err(e) => failures.push(format!(
                "reference at seed {}: {e}",
                args.workload.default_seed()
            )),
        }
    }

    let timings = args.trace.then(|| {
        let events = counts.events / counted_trials.max(1);
        layers::replay(&inputs, events, REPLAY_MS)
    });
    Ok(Measured {
        untraced,
        traced,
        census_events,
        counts,
        counted_trials,
        timings,
        spans: log,
        peak_rss_mb,
        failures,
        passes,
    })
}

fn reference_pass(reference: &Reference, round: &Round) -> String {
    match reference {
        Reference::Attack { .. } => format!(
            "reference: events_total {} of the first {} trials matches the seed-stability pin; \
             digest of {} trials matches",
            round.pin_events,
            workload::PIN_TRIALS,
            round.trials
        ),
        Reference::Report(bytes) => format!(
            "reference: folded report is byte-identical to the committed result ({} bytes)",
            bytes.len()
        ),
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Spread over rounds (or trials), when the value is a median.
    spread: Option<Summary>,
    /// Samples behind a percentile.
    samples: Option<usize>,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            spread: None,
            samples: None,
        }
    }

    fn median(name: &'static str, values: &[f64], unit: &'static str) -> Metric {
        let spread = Summary::of(values);
        Metric {
            name,
            value: spread.map_or(0.0, |s| s.median),
            unit,
            spread,
            samples: None,
        }
    }
}

/// Number of trials a run failed: every trial once a check failed (the
/// results cannot be trusted), else the trials that panicked.
fn failed_trials(attempted: u64, panicked: u64, checks_passed: bool) -> u64 {
    if checks_passed {
        panicked
    } else {
        attempted
    }
}

fn end_to_end(m: &Measured, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let rounds = &m.untraced;
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    // Allocations over the first rounds' trials: a fixed set for a seed.
    let counted = &rounds[..MIN_ROUNDS.min(rounds.len())];
    let trials_counted = counted.iter().map(|r| r.trials).sum::<u64>().max(1) as f64;
    let per_counted_trial = |name, f: &dyn Fn(&Round) -> u64, unit| Metric {
        spread: Summary::of(
            &counted
                .iter()
                .map(|r| f(r) as f64 / r.trials as f64)
                .collect::<Vec<_>>(),
        ),
        ..Metric::new(
            name,
            counted.iter().map(f).sum::<u64>() as f64 / trials_counted,
            unit,
        )
    };
    let secs = |r: &Round| r.wall_ns as f64 / 1e9;
    let events = |r: &Round| m.census_events.unwrap_or(r.events) as f64;
    let mut trial_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.trial_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    trial_ms.sort_by(f64::total_cmp);
    let attempted: u64 = rounds.iter().map(|r| r.trials).sum();
    let panicked: u64 = rounds.iter().map(|r| r.panicked).sum();
    let failed = failed_trials(attempted, panicked, m.failures.is_empty());
    let p99 = percentile_sorted(&trial_ms, 99.0).ok_or_else(|| {
        format!(
            "only {} trial samples: too few for a p99 with ten beyond it",
            trial_ms.len()
        )
    })?;
    Ok(vec![
        Metric::median(
            "trials_per_sec",
            &per_round(&|r| r.trials as f64 / secs(r)),
            "1/s",
        ),
        Metric::median(
            "events_per_sec",
            &per_round(&|r| events(r) / secs(r)),
            "1/s",
        ),
        Metric::median("trial_ms_p50", &trial_ms, "ms"),
        Metric {
            samples: Some(trial_ms.len()),
            ..Metric::new("trial_ms_p99", p99, "ms")
        },
        per_counted_trial("allocs_per_trial", &|r| r.allocs, "count"),
        per_counted_trial("alloc_bytes_per_trial", &|r| r.alloc_bytes, "B"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MiB"),
        Metric::median("setup_s", setup_s, "s"),
        Metric::new(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ])
}

fn per_layer(m: &Measured, workload: Workload) -> Vec<Metric> {
    let t = layer_times(m.spans.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let campaign = workload.campaign().is_some();
    // Simulation layers are timed per pipeline trial: traced trials of
    // an attack workload, census cells of a campaign.
    let sim_base = if campaign {
        get("census").count
    } else {
        get("trial").count
    }
    .max(1) as f64;
    let cells = get("cell").count.max(1) as f64;
    let c = &m.counts;
    let n = m.counted_trials.max(1) as f64;
    let per = |v: u64| v as f64 / n;
    let span_ms = |l: LayerTime| l.total_ns as f64 / 1e6 / sim_base;
    let netsim = get("netsim");
    let timings = m.timings.unwrap_or_default();
    let rate = |rounds: &[Round]| {
        let v: Vec<f64> = rounds
            .iter()
            .map(|r| r.trials as f64 / (r.wall_ns as f64 / 1e9))
            .collect();
        Summary::of(&v).map_or(0.0, |s| s.median)
    };
    let overhead = {
        let (u, tr) = (rate(&m.untraced), rate(&m.traced));
        if tr > 0.0 {
            (u / tr - 1.0) * 100.0
        } else {
            0.0
        }
    };
    let journal_bytes: u64 = m.traced.iter().map(|r| r.journal_bytes).sum();
    let traced_cells: u64 = m.traced.iter().map(|r| r.trials).sum();
    vec![
        Metric::new("netsim.events_per_trial", per(c.events), "count"),
        Metric::new("netsim.sim_ms_per_trial", span_ms(netsim), "ms"),
        Metric::new(
            "netsim.ns_per_event",
            netsim.total_ns as f64 / (c.events as f64 * sim_base / n).max(1.0),
            "ns",
        ),
        Metric::new(
            "netsim.sim_allocs_per_trial",
            netsim.allocs as f64 / sim_base,
            "count",
        ),
        Metric::new("netsim.queue_ns_per_op", timings.queue_ns_per_op, "ns"),
        Metric::new("netsim.fault_drops_per_trial", per(c.fault_drops), "count"),
        Metric::new("tcp.segments_per_trial", per(c.tcp_segments), "count"),
        Metric::new("tcp.retransmits_per_trial", per(c.tcp_retransmits), "count"),
        Metric::new("tcp.rto_per_trial", per(c.tcp_rto), "count"),
        Metric::new("tcp.ns_per_segment", timings.tcp_ns_per_segment, "ns"),
        Metric::new("tls.records_per_trial", per(c.tls_records), "count"),
        Metric::new("tls.seal_ns_per_record", timings.tls_seal_ns, "ns"),
        Metric::new("tls.open_ns_per_record", timings.tls_open_ns, "ns"),
        Metric::new("tls.pad_bytes_per_trial", per(c.tls_pad_bytes), "B"),
        Metric::new("h2.hpack_ns_per_request", timings.hpack_ns, "ns"),
        Metric::new("h2.frame_ns_per_frame", timings.frame_ns, "ns"),
        Metric::new("h2.rerequests_per_trial", per(c.h2_rerequests), "count"),
        Metric::new("h2.dummy_cells_per_trial", per(c.h2_dummy_cells), "count"),
        Metric::new("quic.datagrams_per_trial", per(c.quic_datagrams), "count"),
        Metric::new("quic.pto_per_trial", per(c.quic_pto), "count"),
        Metric::new("quic.datagram_ns", timings.datagram_ns, "ns"),
        Metric::new(
            "quic.split_alt_datagrams_per_trial",
            per(c.quic_split_alt),
            "count",
        ),
        Metric::new(
            "attack.packets_delayed_per_trial",
            per(c.attack_delayed),
            "count",
        ),
        Metric::new(
            "attack.packets_dropped_per_trial",
            per(c.attack_dropped),
            "count",
        ),
        Metric::new(
            "web.site_us_per_trial",
            get("web").total_ns as f64 / 1e3 / sim_base,
            "us",
        ),
        Metric::new(
            "analysis.predict_ms_per_trial",
            span_ms(get("analysis")),
            "ms",
        ),
        Metric::new(
            "analysis.predict_allocs_per_trial",
            get("analysis").allocs as f64 / sim_base,
            "count",
        ),
        Metric::new(
            "analysis.capture_records_per_trial",
            per(c.capture_records),
            "count",
        ),
        Metric::new(
            "analysis.identified_ratio",
            c.units_identified as f64 / c.units.max(1) as f64,
            "ratio",
        ),
        Metric::new("score.ms_per_trial", span_ms(get("score")), "ms"),
        Metric::new(
            "score.allocs_per_trial",
            get("score").allocs as f64 / sim_base,
            "count",
        ),
        Metric::new(
            "campaign.encode_us_per_cell",
            get("campaign.encode").total_ns as f64 / 1e3 / cells,
            "us",
        ),
        Metric::new(
            "campaign.journal_write_us_per_cell",
            get("campaign.journal_write").total_ns as f64 / 1e3 / cells,
            "us",
        ),
        Metric::new(
            "campaign.replay_us_per_cell",
            get("campaign.replay").total_ns as f64 / 1e3 / traced_cells.max(1) as f64,
            "us",
        ),
        Metric::new(
            "campaign.fold_us_per_cell",
            get("campaign.fold").total_ns as f64 / 1e3 / traced_cells.max(1) as f64,
            "us",
        ),
        Metric::new(
            "campaign.journal_bytes_per_cell",
            journal_bytes as f64 / traced_cells.max(1) as f64,
            "B",
        ),
        Metric::new("bench.tracing_overhead_pct", overhead, "%"),
    ]
}

/// The span table: per layer, calls, total and self time per trial,
/// and allocations per trial.
fn span_table(spans: &SpanLog) -> String {
    let t: BTreeMap<_, _> = layer_times(spans.spans());
    let mut out = String::from(
        "layer                        spans    total_ms     self_ms   self_%   allocs/span\n",
    );
    let all_self: u64 = t.values().map(|l| l.self_ns).sum();
    for (name, l) in &t {
        out.push_str(&format!(
            "{name:<28} {:>6} {:>11.1} {:>11.1} {:>7.1}% {:>12.1}\n",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / all_self.max(1) as f64,
            l.allocs as f64 / l.count.max(1) as f64,
        ));
    }
    out
}

/// Compares the pipeline's web + netsim + analysis allocations with
/// perfbench's per-trial figure for the same seeds, which counts
/// `run_isidewith_trial` (those three stages) as one call.
/// `None` for campaign workloads and logs without trial spans.
fn reconcile(spans: &SpanLog, workload: Workload, root: &Path) -> Option<String> {
    let scenario = match workload {
        Workload::H2Attack => "h2_full_attack",
        Workload::H3Attack => "h3_full_attack",
        _ => return None,
    };
    // perfbench counts seeds 91_000..91_100: the first traced round's
    // first PIN_TRIALS trials and their child spans.
    let all = spans.spans();
    let roots: Vec<usize> = (0..all.len())
        .filter(|&i| all[i].name == "trial" && all[i].parent.is_none())
        .take(workload::PIN_TRIALS as usize)
        .collect();
    if roots.is_empty() {
        return None;
    }
    let trials = roots.len() as f64;
    let part = |name: &str| {
        let allocs: u64 = all
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| roots.contains(&p)))
            .map(|s| s.allocs)
            .sum();
        allocs as f64 / trials
    };
    let (web, netsim, analysis) = (part("web"), part("netsim"), part("analysis"));
    let perfbench = std::fs::read_to_string(root.join("BENCH_simperf.json"))
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .and_then(|j| {
            j.get("allocs")?.as_array()?.iter().find_map(|row| {
                (row.get("scenario")?.as_str()? == scenario)
                    .then(|| row.get("allocs_per_trial")?.as_f64())?
            })
        });
    let sum = web + netsim + analysis;
    Some(match perfbench {
        Some(pb) => format!(
            "reconcile: web {web:.1} + netsim {netsim:.1} + analysis {analysis:.1} = {sum:.1} allocs/trial; \
perfbench {scenario} = {pb:.2} (difference {:+.1})\n",
            sum - pb
        ),
        None => format!("reconcile: web + netsim + analysis = {sum:.1} allocs/trial (no perfbench figure)\n"),
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Float(v)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(attempted)),
        ("failed".to_string(), Json::UInt(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_string_compact()
}

fn metric_table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<38} {:>16} {:<6} {:>14} {:>14} {:>14} {:>7}\n",
        "metric", "value", "unit", "q1", "median", "q3", "n"
    );
    for m in metrics {
        match (m.spread, m.samples) {
            (Some(s), _) => out.push_str(&format!(
                "{:<38} {:>16.4} {:<6} {:>14.4} {:>14.4} {:>14.4} {:>7}\n",
                m.name, m.value, m.unit, s.q1, s.median, s.q3, s.n
            )),
            (None, Some(n)) => out.push_str(&format!(
                "{:<38} {:>16.4} {:<6} {:>46} {n:>7}\n",
                m.name, m.value, m.unit, ""
            )),
            (None, None) => {
                out.push_str(&format!("{:<38} {:>16.4} {:<6}\n", m.name, m.value, m.unit))
            }
        }
    }
    out
}

fn print_reference(args: &Args, out_dir: &Path) -> Result<(), String> {
    let plan = Plan::new(args.workload, args.workload.default_seed(), out_dir)?;
    let round = plan.round(0, &mut SpanLog::new(false), &mut 0, &mut |_, _| {})?;
    match &round.report {
        Some(report) => print!("{report}"),
        None => println!(
            "\"{}\": {{\"seed\": {}, \"trials\": {}, \"events_total\": {}, \"pin_digest\": \"{:#018x}\", \"digest\": \"{:#018x}\"}}",
            args.workload.name(),
            args.workload.default_seed(),
            round.trials,
            round.pin_events,
            round.pin_digest.unwrap_or(0),
            round.digest.unwrap_or(0)
        ),
    }
    Ok(())
}

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let root = PathBuf::from(".");
    let out_dir = root.join("trialbench/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    if args.print_reference {
        print_reference(args, &out_dir)?;
        return Ok(true);
    }
    // Each set-up runs on a fresh thread, so its warm-up refills empty
    // thread-local pools; the last one goes on to measure.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut measured = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let last = rep + 1 == SETUP_REPS;
        let (secs, m) = std::thread::scope(|s| {
            s.spawn(|| -> Result<(f64, Option<Measured>), String> {
                let prepared = prepare(args, &root, &out_dir)?;
                let secs = start.elapsed().as_secs_f64();
                let m = if last {
                    Some(measure(&prepared, args)?)
                } else {
                    None
                };
                Ok((secs, m))
            })
            .join()
            .map_err(|_| "the benchmark's worker thread panicked".to_string())?
        })?;
        setup_s.push(secs);
        measured = m;
    }
    let m = measured.expect("the last set-up measures");

    let rounds: Vec<&Round> = m.untraced.iter().chain(&m.traced).collect();
    let attempted: u64 = rounds.iter().map(|r| r.trials).sum();
    let panicked: u64 = rounds.iter().map(|r| r.panicked).sum();
    let correct = m.failures.is_empty() && panicked == 0;
    let failed = failed_trials(attempted, panicked, m.failures.is_empty());

    let mut out = format!(
        "trialbench {} seed {} (trial seeds from {}{}) trace {}\n\
         {} untraced + {} traced rounds of {} trials, 1 worker thread, closed loop; {} set-ups\n",
        args.workload.name(),
        args.seed,
        args.seed * workload::SEED_STRIDE,
        if args.seed == args.workload.default_seed() {
            ", the reference seeds"
        } else {
            ""
        },
        u8::from(args.trace),
        m.untraced.len(),
        m.traced.len(),
        rounds[0].trials,
        setup_s.len(),
    );
    for p in &m.passes {
        out.push_str(&format!("check ok: {p}\n"));
    }
    for f in &m.failures {
        out.push_str(&format!("CHECK FAILED: {f}\n"));
    }
    if panicked > 0 {
        out.push_str(&format!("{panicked} trials panicked\n"));
    }
    let metrics = if args.trace {
        let path = out_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        m.spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push_str(&format!(
            "wrote {} spans to {}\n",
            m.spans.spans().len(),
            path.display()
        ));
        out.push_str(&span_table(&m.spans));
        if args.seed == args.workload.default_seed() {
            out.push_str(&reconcile(&m.spans, args.workload, &root).unwrap_or_default());
        }
        per_layer(&m, args.workload)
    } else {
        end_to_end(&m, &setup_s)?
    };
    out.push_str(&metric_table(&metrics));
    let line_metrics: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| !TABLE_ONLY.contains(&m.name))
        .collect();
    print!("{out}");
    println!("{}", result_line(correct, attempted, failed, &line_metrics));
    Ok(correct)
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trialbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args, process_start) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("trialbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_workload_defaults() {
        let a = args(&["--workload", "h3_attack"]).unwrap();
        assert_eq!(a.seed, 91);
        assert!(!a.trace);
        let a = args(&[
            "--workload",
            "defense_matrix",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert!(args(&["--seed", "4"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "h2_attack", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "h2_attack", "--seconds"]).is_err());
    }

    #[test]
    fn failures_count_panics_or_everything_after_a_failed_check() {
        assert_eq!(failed_trials(500, 0, true), 0);
        assert_eq!(failed_trials(500, 3, true), 3);
        assert_eq!(failed_trials(500, 0, false), 500);
        assert_eq!(failed_trials(500, 3, false), 500);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("setup_s", 0.25, "s")]);
        let j = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &j else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }
}
