//! Resume-identity regression for the sharded campaign runner: whatever
//! happens to a campaign — run at any shard count, killed at any batch
//! boundary and resumed — the journal and the folded report must come
//! out **byte-identical** to an uninterrupted single-shard run. This is
//! the process-level extension of `parallel_identity.rs`: scheduling
//! (and now crashing) is invisible in the results. Every registered
//! experiment is checked at one trial per batch; robustness_sweep, the
//! longest-running campaign, gets the exhaustive kill schedule.

use h2priv_core::campaign::CampaignSpec;
use h2priv_core::experiments::REGISTRY;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

const TRIALS: &str = "2";
/// A robustness_sweep campaign with 2 trials has 6 batches of 2 cells;
/// these are the first cells of each batch (the batch boundaries).
const BATCH_BOUNDARIES: [u64; 6] = [0, 2, 4, 6, 8, 10];

fn temp_base(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("h2priv_resume_{}_{tag}_{n}", std::process::id()))
}

struct CampaignRun {
    status: std::process::ExitStatus,
    stderr: String,
}

fn run(
    experiment: &str,
    trials: &str,
    journal: &PathBuf,
    out: &PathBuf,
    extra: &[&str],
) -> CampaignRun {
    let output = Command::new(env!("CARGO_BIN_EXE_h2priv"))
        .args(["campaign", experiment, trials, "--journal"])
        .arg(journal)
        .arg("--out")
        .arg(out)
        .arg("--quiet")
        .args(extra)
        .output()
        .expect("campaign binary runs");
    CampaignRun {
        status: output.status,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn campaign(journal: &PathBuf, out: &PathBuf, extra: &[&str]) -> CampaignRun {
    run("robustness_sweep", TRIALS, journal, out, extra)
}

fn read(path: &PathBuf) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn cleanup(paths: &[&PathBuf]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// The uninterrupted single-shard journal and report bytes.
fn baseline() -> (Vec<u8>, Vec<u8>) {
    let journal = temp_base("baseline").with_extension("jsonl");
    let out = temp_base("baseline").with_extension("json");
    let run = campaign(&journal, &out, &["--shards", "1"]);
    assert!(run.status.success(), "baseline failed: {}", run.stderr);
    let bytes = (read(&journal), read(&out));
    cleanup(&[&journal, &out]);
    bytes
}

#[test]
fn journal_and_report_are_byte_identical_across_shard_counts() {
    let (ref_journal, ref_report) = baseline();
    for shards in ["1", "2", "4"] {
        let journal = temp_base("shards").with_extension("jsonl");
        let out = temp_base("shards").with_extension("json");
        let run = campaign(&journal, &out, &["--shards", shards]);
        assert!(run.status.success(), "shards={shards}: {}", run.stderr);
        assert_eq!(
            read(&journal),
            ref_journal,
            "journal differs at {shards} shard(s)"
        );
        assert_eq!(
            read(&out),
            ref_report,
            "report differs at {shards} shard(s)"
        );
        cleanup(&[&journal, &out]);
    }
}

#[test]
fn kill_at_every_batch_boundary_then_resume_is_byte_identical() {
    let (ref_journal, ref_report) = baseline();
    for boundary in BATCH_BOUNDARIES {
        let journal = temp_base("kill").with_extension("jsonl");
        let out = temp_base("kill").with_extension("json");
        let kill = format!("trial={boundary}");
        let interrupted = campaign(
            &journal,
            &out,
            &["--shards", "2", "--fail-on-crash", "--inject-kill", &kill],
        );
        assert!(
            !interrupted.status.success(),
            "kill at cell {boundary} should abort the campaign"
        );
        assert!(
            interrupted.stderr.contains("fail-on-crash"),
            "cell {boundary}: {}",
            interrupted.stderr
        );
        // The journal must already be a valid prefix: strictly the
        // header plus cells [0, k) for some k <= boundary's position.
        let prefix = read(&journal);
        assert!(
            ref_journal.starts_with(&prefix),
            "cell {boundary}: interrupted journal is not a prefix of the reference"
        );

        let resumed = campaign(&journal, &out, &["--shards", "2", "--resume"]);
        assert!(
            resumed.status.success(),
            "resume after kill at {boundary}: {}",
            resumed.stderr
        );
        assert_eq!(
            read(&journal),
            ref_journal,
            "journal differs after kill at cell {boundary} + resume"
        );
        assert_eq!(
            read(&out),
            ref_report,
            "report differs after kill at cell {boundary} + resume"
        );
        cleanup(&[&journal, &out]);
    }
}

#[test]
fn resume_recovers_a_torn_final_journal_line() {
    let (ref_journal, ref_report) = baseline();
    let journal = temp_base("torn").with_extension("jsonl");
    let out = temp_base("torn").with_extension("json");
    let run = campaign(
        &journal,
        &out,
        &[
            "--shards",
            "1",
            "--fail-on-crash",
            "--inject-kill",
            "trial=9",
        ],
    );
    assert!(!run.status.success());
    // Simulate the crash happening mid-append: tear the last line.
    let mut bytes = read(&journal);
    bytes.truncate(bytes.len() - 37);
    assert!(
        bytes.last() != Some(&b'\n'),
        "tear must land mid-line for this test"
    );
    std::fs::write(&journal, &bytes).unwrap();

    let resumed = campaign(&journal, &out, &["--shards", "2", "--resume"]);
    assert!(resumed.status.success(), "{}", resumed.stderr);
    assert!(
        resumed.stderr.contains("partial final line"),
        "tail drop should be reported: {}",
        resumed.stderr
    );
    assert_eq!(read(&journal), ref_journal);
    assert_eq!(read(&out), ref_report);
    cleanup(&[&journal, &out]);
}

#[test]
fn resume_refuses_a_journal_from_a_different_campaign() {
    let journal = temp_base("mismatch").with_extension("jsonl");
    let out = temp_base("mismatch").with_extension("json");
    let run = campaign(&journal, &out, &["--shards", "1"]);
    assert!(run.status.success(), "{}", run.stderr);

    // Same journal, different trial budget -> different campaign.
    let output = Command::new(env!("CARGO_BIN_EXE_h2priv"))
        .args(["campaign", "robustness_sweep", "3", "--journal"])
        .arg(&journal)
        .args(["--resume", "--quiet"])
        .output()
        .expect("campaign binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("different campaign"),
        "unexpected error: {stderr}"
    );
    cleanup(&[&journal, &out]);
}

/// A 2-shard run, and a 2-shard run killed halfway then resumed, must
/// both reproduce the 1-shard journal and report bytes.
fn shards_and_resumes(name: &str) {
    let paths = |tag: &str| {
        let base = temp_base(&format!("{name}_{tag}"));
        (base.with_extension("jsonl"), base.with_extension("json"))
    };
    let (journal, out) = paths("ref");
    let reference = run(name, "1", &journal, &out, &["--shards", "1"]);
    assert!(reference.status.success(), "{name}: {}", reference.stderr);
    let (ref_journal, ref_report) = (read(&journal), read(&out));
    cleanup(&[&journal, &out]);

    let (journal, out) = paths("shards");
    let sharded = run(name, "1", &journal, &out, &["--shards", "2"]);
    assert!(sharded.status.success(), "{name}: {}", sharded.stderr);
    assert_eq!(read(&journal), ref_journal, "{name}: journal at 2 shards");
    assert_eq!(read(&out), ref_report, "{name}: report at 2 shards");
    cleanup(&[&journal, &out]);

    let total = CampaignSpec::for_experiment(name, 1).unwrap().total_cells();
    let kill = format!("trial={}", total / 2);
    let (journal, out) = paths("kill");
    let killed = ["--shards", "2", "--fail-on-crash", "--inject-kill", &kill];
    let interrupted = run(name, "1", &journal, &out, &killed);
    assert!(
        !interrupted.status.success(),
        "{name}: kill at {kill} did not abort"
    );
    assert!(
        ref_journal.starts_with(&read(&journal)),
        "{name}: interrupted journal is not a prefix of the reference"
    );
    let resumed = run(name, "1", &journal, &out, &["--shards", "2", "--resume"]);
    assert!(resumed.status.success(), "{name}: {}", resumed.stderr);
    assert_eq!(read(&journal), ref_journal, "{name}: journal after resume");
    assert_eq!(read(&out), ref_report, "{name}: report after resume");
    cleanup(&[&journal, &out]);
}

macro_rules! shard_identity {
    ($($test:ident: $name:literal,)+) => {
        $(#[test]
        fn $test() {
            shards_and_resumes($name);
        })+

        #[test]
        fn every_registered_experiment_has_a_sharding_test() {
            let covered = [$($name),+];
            for e in REGISTRY {
                assert!(covered.contains(&e.name()), "{} is not covered", e.name());
            }
        }
    };
}

shard_identity! {
    baseline_shards_and_resumes_byte_identically: "baseline",
    fig1_shards_and_resumes_byte_identically: "fig1",
    fig2_shards_and_resumes_byte_identically: "fig2",
    table1_shards_and_resumes_byte_identically: "table1",
    fig5_shards_and_resumes_byte_identically: "fig5",
    section4d_shards_and_resumes_byte_identically: "section4d",
    table2_shards_and_resumes_byte_identically: "table2",
    robustness_sweep_shards_and_resumes_byte_identically: "robustness_sweep",
    transport_transfer_shards_and_resumes_byte_identically: "transport_transfer",
    ablation_shards_and_resumes_byte_identically: "ablation",
    defense_matrix_shards_and_resumes_byte_identically: "defense_matrix",
}

/// With no trial count, a campaign runs the experiment's registered
/// default — the same one the in-process run uses.
#[test]
fn campaign_default_trials_match_the_in_process_defaults() {
    for e in REGISTRY {
        let journal = temp_base(&format!("default_{}", e.name())).with_extension("jsonl");
        // Killing cell 0 stops the campaign right after the header.
        let output = Command::new(env!("CARGO_BIN_EXE_h2priv"))
            .args(["campaign", e.name(), "--journal"])
            .arg(&journal)
            .args([
                "--shards",
                "1",
                "--fail-on-crash",
                "--inject-kill",
                "trial=0",
            ])
            .arg("--quiet")
            .output()
            .expect("campaign binary runs");
        assert!(!output.status.success(), "{}", e.name());
        let header = String::from_utf8(read(&journal)).unwrap();
        let expect = format!(
            "\"experiment\":\"{}\",\"trials\":{},",
            e.name(),
            e.default_trials()
        );
        assert!(header.contains(&expect), "{}: {header}", e.name());
        cleanup(&[&journal]);
    }
}
