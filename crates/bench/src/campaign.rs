//! `h2priv campaign`: the crash-safe sharded campaign runner, both
//! sides of it.
//!
//! [`supervise`] shards an experiment's `(batch, trial)` space across
//! supervised worker processes, streams per-trial results into an
//! append-only checksummed journal, and folds the final report
//! incrementally in global cell order — so the journal and the report
//! are **byte-identical at any shard count and across any kill/resume
//! schedule**. Every registered experiment can be sharded.
//!
//! The workers are the `h2priv` binary itself, re-run as
//! `h2priv <experiment> <trials> --shard-worker --cells A-B` (plus any
//! injected faults); [`work`] is that mode. Protocol (stdout, one
//! checksummed line each, flushed per line so the supervisor's view is
//! current to the last completed cell):
//!
//! 1. `hello` echoing the assigned range,
//! 2. one `record` per cell, in range order — each cell a pure function
//!    of the campaign spec, so any worker (or resume) produces identical
//!    bytes for the same cell,
//! 3. `done`.
//!
//! Injected faults fire *before* the named cell runs: `--inject-kill K`
//! exits with status 101 (a crash, from the supervisor's viewpoint),
//! `--inject-stall K` sleeps far past any heartbeat so the supervisor's
//! stall-kill path is exercised. A broken pipe mid-stream (the
//! supervisor died) is a quiet nonzero exit, not a panic.
//!
//! `--resume` recovers the journal (dropping a truncated final line),
//! replays its completed trials into the fold, and re-executes only the
//! missing cells. `--fail-on-crash` aborts on the first worker crash
//! instead of respawning — together with `--inject-kill` this stops a
//! campaign at an exact deterministic point, which is how the resume
//! tests and `scripts/verify.sh` exercise the recovery path.

use std::io::Write;
use std::time::Duration;

use h2priv_campaign::inject::{InjectKind, InjectSchedule, InjectSpec};
use h2priv_campaign::journal::{self, Journal};
use h2priv_campaign::record::{self, LineBody};
use h2priv_campaign::supervisor::{self, SupervisorConfig, WorkerCmd};
use h2priv_core::campaign::CampaignSpec;
use h2priv_core::experiments::Registered;

use crate::{
    experiment_arg, flag_present, flag_u64, flag_value, flag_values, odetail, oerror, oinfo, out,
    owarn, trials_for,
};

/// Exit status a worker uses for an injected kill; anything nonzero
/// reads as a crash to the supervisor.
pub const INJECTED_KILL_EXIT: i32 = 101;

/// Crashes attributable to one cell before the range is declared
/// poisoned.
const MAX_CELL_ATTEMPTS: u32 = 3;

const USAGE: &str = "campaign <experiment> [trials] --journal FILE [--out FILE] [--shards N] \
     [--resume] [--heartbeat-ms N] [--max-respawns N] [--fail-on-crash] \
     [--inject-kill shard=N,trial=K[,repeat]] [--inject-stall ...] [--quiet]";

fn fail(message: &str) -> ! {
    oerror!("error: {message}");
    std::process::exit(1)
}

fn parse_injections() -> InjectSchedule {
    let mut schedule = InjectSchedule::new();
    for (flag, kind) in [
        ("--inject-kill", InjectKind::Kill),
        ("--inject-stall", InjectKind::Stall),
    ] {
        for raw in flag_values(flag) {
            match InjectSpec::parse(&raw) {
                Ok(spec) => schedule.add(kind, spec),
                Err(e) => {
                    oerror!("error: {flag} {raw:?}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    schedule
}

/// Runs `h2priv campaign <experiment> [trials] --journal FILE ...`.
pub fn supervise() {
    let exp = experiment_arg(2, USAGE);
    let experiment = exp.name();
    let trials = trials_for(exp, 3, "campaign ");
    let spec = CampaignSpec::for_experiment(experiment, trials)
        .expect("registered experiments have campaign specs");
    let Some(journal_path) = flag_value("--journal") else {
        oerror!("error: --journal FILE is required (the append-only trial journal)");
        oerror!("usage: h2priv {USAGE}");
        std::process::exit(2);
    };
    let journal_path = std::path::PathBuf::from(journal_path);
    let out_path = flag_value("--out");
    let shards = match flag_u64("--shards", 0) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n as usize,
    };
    let resume = flag_present("--resume");
    let mut inject = parse_injections();

    let total = spec.total_cells();
    let mut folder = spec.folder();
    let header_line = record::stamp(&record::header_body(&spec.header_fields()));

    // Open (or recover) the journal and bring the fold up to date.
    let mut journal = if resume {
        let recovered = journal::recover(&journal_path)
            .unwrap_or_else(|e| fail(&format!("cannot resume {}: {e}", journal_path.display())));
        let expected = record::header_body(&spec.header_fields());
        if recovered.header != expected {
            fail(&format!(
                "journal {} belongs to a different campaign (header {}, expected {})",
                journal_path.display(),
                recovered.header.to_string_compact(),
                expected.to_string_compact()
            ));
        }
        if recovered.dropped_tail > 0 {
            owarn!(
                "journal: dropping {} bytes of partial final line (crash residue)",
                recovered.dropped_tail
            );
        }
        if let Err(e) = journal::truncate_to(&journal_path, recovered.good_bytes) {
            fail(&format!("cannot truncate journal: {e}"));
        }
        for r in &recovered.records {
            if let Err(e) = folder.push(r.batch, r.trial, &r.payload) {
                fail(&format!("journal replay: {e}"));
            }
        }
        odetail!(
            "resume: {} of {total} cells replayed from {}",
            recovered.records.len(),
            journal_path.display()
        );
        Journal::open_append(&journal_path)
            .unwrap_or_else(|e| fail(&format!("cannot reopen journal: {e}")))
    } else {
        Journal::create(&journal_path, &header_line).unwrap_or_else(|e| {
            fail(&format!(
                "cannot create journal {}: {e}",
                journal_path.display()
            ))
        })
    };

    let start_cell = folder.next_cell();
    let program = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate the h2priv binary: {e}")));
    let cmd = WorkerCmd {
        program,
        args: vec![
            experiment.to_string(),
            trials.to_string(),
            "--shard-worker".to_string(),
        ],
    };
    let cfg = SupervisorConfig {
        shards,
        heartbeat: Duration::from_millis(flag_u64("--heartbeat-ms", 10_000)),
        max_respawns_per_slot: flag_u64("--max-respawns", 3) as u32,
        max_cell_attempts: MAX_CELL_ATTEMPTS,
        fail_on_crash: flag_present("--fail-on-crash"),
        backoff_seed: spec.base_seed,
    };

    odetail!(
        "campaign {experiment}: {total} cells ({} batches x {trials} trials), \
         {} to run, {shards} shard(s)",
        spec.batches.len(),
        total - start_cell
    );

    let stats = supervisor::run(
        &cfg,
        &cmd,
        start_cell,
        total,
        &mut inject,
        |_cell, raw, body| {
            let LineBody::Record {
                batch,
                trial,
                payload,
                ..
            } = body
            else {
                return Err("non-record line reached the journal".to_string());
            };
            journal
                .append_line(raw)
                .map_err(|e| format!("journal append: {e}"))?;
            folder.push(*batch, *trial, payload)
        },
    );
    let stats = stats.unwrap_or_else(|e| fail(&format!("campaign failed: {e}")));

    if stats.respawns > 0 || stats.stall_kills > 0 || stats.reassigned_ranges > 0 {
        owarn!(
            "campaign recovered from failures: {} respawn(s), {} stall kill(s), \
             {} range reassignment(s)",
            stats.respawns,
            stats.stall_kills,
            stats.reassigned_ranges
        );
    }
    odetail!(
        "campaign done: {} cells run this invocation, reorder high-water {}, \
         {} duplicate record(s) dropped",
        stats.cells_run,
        stats.max_pending,
        stats.duplicates_dropped
    );

    let report = folder.finish().unwrap_or_else(|e| fail(&e));
    match out_path {
        Some(path) => {
            out::write_result_file(&path, &report);
            oinfo!("campaign: report -> {path}");
        }
        None => out::stdout_str(&report),
    }
}

fn parse_cells(spec: &str) -> Option<(u64, u64)> {
    let (a, b) = spec.split_once('-')?;
    let a: u64 = a.parse().ok()?;
    let b: u64 = b.parse().ok()?;
    (a < b).then_some((a, b))
}

fn inject_cells(flag: &str) -> Vec<u64> {
    flag_values(flag)
        .iter()
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                oerror!("error: invalid {flag} {v:?} (expected a cell index)");
                std::process::exit(2);
            })
        })
        .collect()
}

/// Runs `h2priv <experiment> [trials] --shard-worker --cells A-B`: the
/// assigned cell range of the campaign, as protocol lines on stdout.
pub fn work(exp: &dyn Registered) {
    let trials = trials_for(exp, 2, "");
    let spec = CampaignSpec::for_experiment(exp.name(), trials)
        .expect("registered experiments have campaign specs");
    let cells = flag_value("--cells").and_then(|v| parse_cells(&v));
    let Some((start, end)) = cells else {
        oerror!("error: --shard-worker requires --cells A-B (half-open, A < B)");
        std::process::exit(2);
    };
    if end > spec.total_cells() {
        oerror!(
            "error: --cells {start}-{end} exceeds the campaign's {} cells",
            spec.total_cells()
        );
        std::process::exit(2);
    }
    let kills = inject_cells("--inject-kill");
    let stalls = inject_cells("--inject-stall");

    let mut stdout = std::io::stdout().lock();
    let mut emit = |line: String| {
        let write = stdout
            .write_all(line.as_bytes())
            .and_then(|()| stdout.write_all(b"\n"))
            .and_then(|()| stdout.flush());
        if write.is_err() {
            // The supervisor hung up; nothing useful left to do.
            std::process::exit(1);
        }
    };
    emit(record::stamp(&record::hello_body(start, end)));
    for cell in start..end {
        if kills.contains(&cell) {
            std::process::exit(INJECTED_KILL_EXIT);
        }
        if stalls.contains(&cell) {
            // Hang until the supervisor's heartbeat timeout kills us.
            std::thread::sleep(Duration::from_secs(3_600));
        }
        let (batch, trial) = spec.cell(cell);
        let payload = spec.run_cell(batch, trial);
        emit(record::stamp(&record::record_body(
            cell, batch, trial, payload,
        )));
    }
    emit(record::stamp(&record::done_body(end - start)));
}
