//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each experiment is one [`Experiment`]: a sweep of batches (one per
//! parameter point), each a run of seed-keyed trials whose compact
//! per-trial [`Cell`]s fold into result rows. That one definition
//! drives every way of running it:
//!
//! * in process ([`Experiment::rows`], [`Registered::run`]), fanned
//!   across `jobs` worker threads through [`h2priv_util::pool`]. Cells
//!   come back in submission order, so every aggregate — counts, float
//!   means, serialized JSON — is byte-identical at any job count
//!   (`jobs = 1` is the sequential path, `jobs = 0` means all cores);
//! * as a sharded campaign ([`crate::campaign`]), where cells cross the
//!   process boundary as exact JSON payloads and fold through the same
//!   [`Experiment::close`];
//! * from the `h2priv` CLI, which finds experiments by name in
//!   [`REGISTRY`].
//!
//! Experiment names, default trial counts and base seeds are written
//! once, on the experiment's [`Experiment`] impl.

use crate::attack::{AttackConfig, TransportKind};
use crate::defense::Defense;
use crate::experiment::{
    run_isidewith_h3_trial, run_isidewith_trial, run_isidewith_trial_retrying,
    run_isidewith_trial_with, run_site_trial, FaultPlan, TrialOptions, TrialOutcome,
};
use crate::metrics::is_serialized;
use crate::predictor::SizeMap;
use crate::report::{pct, pct_opt, render_table, to_json};
use h2priv_h2::MuxPolicy;
use h2priv_netsim::faults::{Duplicate, FaultConfig, GilbertElliott, Reorder};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_netsim::units::Bandwidth;
use h2priv_util::impl_to_json;
use h2priv_util::json::{Json, ToJson};
use h2priv_util::pool;
use h2priv_util::telemetry;
use h2priv_web::sites::two_object_site;
use h2priv_web::ObjectId;

/// One batch of an experiment: a label (the telemetry batch label,
/// also shown to campaign operators) and a trial budget.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Stable label.
    pub label: String,
    /// Trials in this batch.
    pub trials: u64,
}

fn uniform(trials: u64, labels: impl IntoIterator<Item = String>) -> Vec<BatchSpec> {
    labels
        .into_iter()
        .map(|label| BatchSpec { label, trials })
        .collect()
}

/// One line of an experiment's operator output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// Result tables and paper comparisons (stdout; survives `--quiet`).
    Info(String),
    /// Machine-readable dumps and chatter (stderr; `--quiet` drops it).
    Detail(String),
}

/// What a finished experiment produced.
#[derive(Debug, Clone)]
pub struct Output {
    /// The report bytes: the committed result file's contents for
    /// experiments that have one, the JSON dump otherwise.
    pub report: String,
    /// The operator table, in print order.
    pub lines: Vec<Line>,
}

/// A per-trial summary that crosses the campaign journal exactly. Its
/// fields are integers, booleans and `f64`s carried as their
/// [`f64::to_bits`] integers, so no inexact value crosses a process
/// boundary. Implemented by the `cell!` macro from one field list.
pub trait Cell: Sized {
    /// The journal payload.
    fn encode(&self) -> Json;
    /// Parses a journal payload.
    ///
    /// # Errors
    /// Names the first missing or mistyped field.
    fn decode(payload: &Json) -> Result<Self, String>;
}

/// A [`Cell`] field type and its exact JSON form.
trait Field: Sized {
    /// The field's JSON form.
    fn encode(&self) -> Json;
    /// Parses the field, `None` when the JSON has the wrong shape.
    fn decode(json: &Json) -> Option<Self>;
}

impl Field for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(json: &Json) -> Option<bool> {
        json.as_bool()
    }
}

impl Field for u64 {
    fn encode(&self) -> Json {
        Json::UInt(*self)
    }
    fn decode(json: &Json) -> Option<u64> {
        json.as_u64()
    }
}

impl Field for f64 {
    fn encode(&self) -> Json {
        Json::UInt(self.to_bits())
    }
    fn decode(json: &Json) -> Option<f64> {
        json.as_u64().map(f64::from_bits)
    }
}

impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::encode)
    }
    fn decode(json: &Json) -> Option<Option<T>> {
        match json {
            Json::Null => Some(None),
            j => T::decode(j).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Field::encode).collect())
    }
    fn decode(json: &Json) -> Option<Vec<T>> {
        json.as_array()?.iter().map(T::decode).collect()
    }
}

impl<T: Field, const N: usize> Field for [T; N] {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Field::encode).collect())
    }
    fn decode(json: &Json) -> Option<[T; N]> {
        Vec::<T>::decode(json)?.try_into().ok()
    }
}

/// Declares a [`Cell`] struct; its journal codec is generated from the
/// field list, in declaration order.
macro_rules! cell {
    ($(#[$m:meta])* pub struct $name:ident { $($(#[$fm:meta])* $field:ident: $ty:ty,)+ }) => {
        $(#[$m])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name { $($(#[$fm])* pub $field: $ty,)+ }

        impl Cell for $name {
            fn encode(&self) -> Json {
                Json::Obj(vec![$((stringify!($field).to_string(), Field::encode(&self.$field)),)+])
            }
            fn decode(p: &Json) -> Result<Self, String> {
                Ok($name { $($field: p
                    .get(stringify!($field))
                    .and_then(Field::decode)
                    .ok_or(concat!("payload missing field \"", stringify!($field), "\""))?,)+ })
            }
        }
    };
}

/// One experiment of the paper's evaluation (or of its extensions).
pub trait Experiment: Sync + std::fmt::Debug {
    /// CLI name, also the campaign journal's `experiment` field.
    const NAME: &'static str;
    /// Trials per batch when the operator gives no count.
    const DEFAULT_TRIALS: u64;
    /// Base of the experiment's seed family.
    const BASE_SEED: u64;
    /// The committed file under `results/` the CLI writes the report
    /// to, if any.
    const RESULT_FILE: Option<&'static str> = None;
    /// Per-trial summary.
    type Cell: Cell + Send;
    /// One result row.
    type Row;

    /// The batches at `trials` trials per batch, in sweep order.
    fn batches(&self, trials: u64) -> Vec<BatchSpec>;
    /// The progress line printed before the trials run.
    fn intro(&self, _trials: u64) -> Option<String> {
        None
    }
    /// Runs trial `trial` of batch `batch`: a pure function of its
    /// arguments.
    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> Self::Cell;
    /// Folds a finished batch's cells (in trial order) into rows.
    /// `rows` holds every earlier batch's rows, which is where
    /// cross-batch state (a baseline row) is read from.
    fn close(&self, batch: usize, cells: &[Self::Cell], rows: &mut Vec<Self::Row>);
    /// The report bytes.
    fn report(&self, rows: &[Self::Row]) -> String;
    /// The operator table.
    fn lines(&self, rows: &[Self::Row]) -> Vec<Line>;

    /// Runs every batch in process on `jobs` worker threads. A batch
    /// with no trials yields no rows: "no data" is explicit, never a
    /// fabricated percentage.
    fn rows(&self, trials: u64, base_seed: u64, jobs: usize) -> Vec<Self::Row>
    where
        Self: Sized,
    {
        let mut rows = Vec::new();
        for (bi, b) in Experiment::batches(self, trials).iter().enumerate() {
            if b.trials == 0 {
                continue;
            }
            let batch = telemetry::open_batch(&b.label);
            let cells = pool::run_indexed(jobs, b.trials as usize, |t| {
                let _tele = telemetry::trial_slot(batch, t as u64);
                Experiment::run(self, base_seed, bi, t as u64)
            });
            self.close(bi, &cells, &mut rows);
        }
        rows
    }
}

/// An [`Experiment`] with its cell and row types erased: what the
/// registry, the campaign runner and the CLI hold.
pub trait Registered: Sync + std::fmt::Debug {
    /// [`Experiment::NAME`].
    fn name(&self) -> &'static str;
    /// [`Experiment::DEFAULT_TRIALS`].
    fn default_trials(&self) -> u64;
    /// [`Experiment::BASE_SEED`].
    fn base_seed(&self) -> u64;
    /// [`Experiment::RESULT_FILE`].
    fn result_file(&self) -> Option<&'static str>;
    /// [`Experiment::batches`].
    fn batches(&self, trials: u64) -> Vec<BatchSpec>;
    /// [`Experiment::intro`].
    fn intro(&self, trials: u64) -> Option<String>;
    /// Runs one cell and returns its journal payload.
    fn run_cell(&self, base_seed: u64, batch: usize, trial: u64) -> Json;
    /// A fresh fold over journal payloads.
    fn folder(&self) -> Box<dyn Fold + '_>;
    /// Runs the whole experiment in process at its base seed.
    fn run(&self, trials: u64, jobs: usize) -> Output;
}

/// A streaming fold of journal payloads, batch by batch.
pub trait Fold {
    /// Folds one cell's payload into the open batch.
    ///
    /// # Errors
    /// Rejects a malformed payload.
    fn push(&mut self, payload: &Json) -> Result<(), String>;
    /// Closes the open batch, which is batch `batch`.
    fn close(&mut self, batch: usize);
    /// Renders the report and operator table.
    fn finish(self: Box<Self>) -> Output;
}

struct Folding<'a, E: Experiment> {
    exp: &'a E,
    cells: Vec<E::Cell>,
    rows: Vec<E::Row>,
}

impl<E: Experiment> Fold for Folding<'_, E> {
    fn push(&mut self, payload: &Json) -> Result<(), String> {
        self.cells.push(E::Cell::decode(payload)?);
        Ok(())
    }
    fn close(&mut self, batch: usize) {
        self.exp.close(batch, &self.cells, &mut self.rows);
        self.cells.clear();
    }
    fn finish(self: Box<Self>) -> Output {
        output(self.exp, &self.rows)
    }
}

fn output<E: Experiment>(exp: &E, rows: &[E::Row]) -> Output {
    Output {
        report: exp.report(rows),
        lines: exp.lines(rows),
    }
}

impl<E: Experiment> Registered for E {
    fn name(&self) -> &'static str {
        E::NAME
    }
    fn default_trials(&self) -> u64 {
        E::DEFAULT_TRIALS
    }
    fn base_seed(&self) -> u64 {
        E::BASE_SEED
    }
    fn result_file(&self) -> Option<&'static str> {
        E::RESULT_FILE
    }
    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        Experiment::batches(self, trials)
    }
    fn intro(&self, trials: u64) -> Option<String> {
        Experiment::intro(self, trials)
    }
    fn run_cell(&self, base_seed: u64, batch: usize, trial: u64) -> Json {
        Experiment::run(self, base_seed, batch, trial).encode()
    }
    fn folder(&self) -> Box<dyn Fold + '_> {
        Box::new(Folding {
            exp: self,
            cells: Vec::new(),
            rows: Vec::new(),
        })
    }
    fn run(&self, trials: u64, jobs: usize) -> Output {
        output(self, &self.rows(trials, E::BASE_SEED, jobs))
    }
}

/// Every experiment, in the order `EXPERIMENTS.md` presents them.
pub static REGISTRY: [&dyn Registered; 11] = [
    &Baseline,
    &Fig1,
    &Fig2,
    &Table1,
    &Fig5,
    &Section4d::PAPER,
    &Table2,
    &Robustness::SWEEP,
    &TransportTransfer,
    &Ablation,
    &DefenseMatrix,
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static dyn Registered> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

/// % of `cells` for which `f` holds.
fn share<C>(cells: &[C], f: impl Fn(&C) -> bool) -> f64 {
    100.0 * cells.iter().filter(|c| f(c)).count() as f64 / cells.len() as f64
}

/// Mean of an integer count over `cells`.
fn mean<C>(cells: &[C], f: impl Fn(&C) -> u64) -> f64 {
    cells.iter().map(f).sum::<u64>() as f64 / cells.len() as f64
}

fn json_lines<T: ToJson>(rows: &[T]) -> String {
    rows.iter().map(|r| to_json(r) + "\n").collect()
}

fn table(headers: &[&str], rows: Vec<Vec<String>>) -> Line {
    Line::Info(render_table(headers, &rows))
}

fn info(lines: &[&str]) -> Vec<Line> {
    lines.iter().map(|l| Line::Info((*l).to_string())).collect()
}

/// The nine objects of interest of isidewith's result page.
const OBJECT_LABELS: [&str; 9] = ["HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"];

/// Table I: effect of jitter on multiplexing of the 6th object (the
/// result HTML).
#[derive(Debug)]
pub struct Table1;

/// A Table I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Added inter-request spacing (ms).
    pub jitter_ms: u64,
    /// % of trials where the object of interest was not multiplexed
    /// (some copy at degree zero).
    pub pct_not_multiplexed: f64,
    /// Mean retransmissions per trial (TCP + app-layer re-requests).
    pub retransmissions_avg: f64,
    /// Increase over the 0 ms baseline, in %.
    pub retrans_increase_pct: f64,
    /// Mean application-layer re-requests per trial (the duplicate-copy
    /// pathology of Fig. 4).
    pub rerequests_avg: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Table1Row {
    jitter_ms,
    pct_not_multiplexed,
    retransmissions_avg,
    retrans_increase_pct,
    rerequests_avg,
    trials,
});

/// The jitter values (ms) swept by Table I.
pub const TABLE1_JITTERS_MS: [u64; 4] = [0, 25, 50, 100];

cell! {
    /// One Table I trial.
    pub struct Table1Cell {
        /// The HTML was fully serialized.
        serialized: bool,
        /// Wire retransmissions.
        retrans: u64,
        /// Application-layer re-requests.
        rerequests: u64,
    }
}

impl Experiment for Table1 {
    const NAME: &'static str = "table1";
    const DEFAULT_TRIALS: u64 = 100;
    const BASE_SEED: u64 = 11_000;
    type Cell = Table1Cell;
    type Row = Table1Row;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        let labels = TABLE1_JITTERS_MS.map(|ms| format!("table1/jitter_{ms}ms"));
        uniform(trials, labels)
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!("Table I: {trials} downloads per jitter value..."))
    }

    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> Table1Cell {
        let seed = base_seed + (batch as u64) * 10_000 + trial;
        let jitter = SimDuration::from_millis(TABLE1_JITTERS_MS[batch]);
        let trial = run_isidewith_trial(seed, Some(AttackConfig::jitter_only(jitter)));
        Table1Cell {
            serialized: is_serialized(trial.html_outcome().best_degree),
            retrans: trial.result.total_retransmissions(),
            rerequests: trial.result.client.h2_rerequests,
        }
    }

    fn close(&self, batch: usize, cells: &[Table1Cell], rows: &mut Vec<Table1Row>) {
        let retransmissions_avg = mean(cells, |c| c.retrans);
        // The 0 ms row is the denominator of every increase.
        let base = rows
            .first()
            .map_or(retransmissions_avg, |r| r.retransmissions_avg)
            .max(1e-9);
        rows.push(Table1Row {
            jitter_ms: TABLE1_JITTERS_MS[batch],
            pct_not_multiplexed: share(cells, |c| c.serialized),
            retransmissions_avg,
            retrans_increase_pct: 100.0 * (retransmissions_avg - base) / base,
            rerequests_avg: mean(cells, |c| c.rerequests),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[Table1Row]) -> String {
        to_json(&rows) + "\n"
    }

    fn lines(&self, rows: &[Table1Row]) -> Vec<Line> {
        let t = rows.iter().map(|r| {
            vec![
                r.jitter_ms.to_string(),
                pct(r.pct_not_multiplexed),
                format!("{:.1}", r.retransmissions_avg),
                pct(r.retrans_increase_pct),
            ]
        });
        let headers = [
            "increase in delay per request (ms)",
            "object not multiplexed (%)",
            "retransmissions (avg)",
            "increase in retransmissions (%)",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "paper Table I: 0/25/50/100 ms -> 32/46/54/54 % ; retrans +0/+33/+130/+194 %",
        ]));
        lines.push(Line::Detail(to_json(&rows)));
        lines
    }
}

/// Fig. 5: effect of bandwidth limitation (with 50 ms jitter) on
/// retransmissions and attack success.
#[derive(Debug)]
pub struct Fig5;

/// A Fig. 5 point.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Bandwidth limit (Mbps).
    pub bandwidth_mbps: u64,
    /// % of trials counted as success (object serialized and
    /// identified from the trace — includes successes due to
    /// retransmitted copies, as the paper observed).
    pub pct_success: f64,
    /// Mean retransmissions per trial.
    pub retransmissions_avg: f64,
    /// % of trials where the connection broke.
    pub pct_broken: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Fig5Row { bandwidth_mbps, pct_success, retransmissions_avg, pct_broken, trials });

/// The bandwidths (Mbps) swept by Fig. 5.
const FIG5_MBPS: [u64; 5] = [1_000, 800, 500, 100, 1];

cell! {
    /// One Fig. 5 trial.
    pub struct Fig5Cell {
        /// The attack succeeded.
        success: bool,
        /// The connection broke.
        broken: bool,
        /// Wire retransmissions.
        retrans: u64,
    }
}

impl Experiment for Fig5 {
    const NAME: &'static str = "fig5";
    const DEFAULT_TRIALS: u64 = 100;
    const BASE_SEED: u64 = 21_000;
    type Cell = Fig5Cell;
    type Row = Fig5Row;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        uniform(trials, FIG5_MBPS.map(|m| format!("fig5/bandwidth_{m}mbps")))
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!("Fig. 5: {trials} downloads per bandwidth..."))
    }

    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> Fig5Cell {
        let seed = base_seed + 1_000_000 + (batch as u64) * 10_000 + trial;
        let attack = AttackConfig::jitter_and_bandwidth(
            SimDuration::from_millis(50),
            Bandwidth::mbps(FIG5_MBPS[batch]),
        );
        let trial = run_isidewith_trial(seed, Some(attack));
        Fig5Cell {
            success: trial.html_outcome().success,
            broken: trial.result.client.connection_broken,
            retrans: trial.result.total_retransmissions(),
        }
    }

    fn close(&self, batch: usize, cells: &[Fig5Cell], rows: &mut Vec<Fig5Row>) {
        rows.push(Fig5Row {
            bandwidth_mbps: FIG5_MBPS[batch],
            pct_success: share(cells, |c| c.success),
            retransmissions_avg: mean(cells, |c| c.retrans),
            pct_broken: share(cells, |c| c.broken),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[Fig5Row]) -> String {
        to_json(&rows) + "\n"
    }

    fn lines(&self, rows: &[Fig5Row]) -> Vec<Line> {
        let t = rows.iter().map(|r| {
            vec![
                r.bandwidth_mbps.to_string(),
                format!("{:.1}", r.retransmissions_avg),
                pct(r.pct_success),
                pct(r.pct_broken),
            ]
        });
        let headers = [
            "bandwidth (Mbps)",
            "retransmissions (avg)",
            "success (%)",
            "broken (%)",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "paper Fig. 5 shape: retransmissions fall monotonically 1000->1 Mbps;",
            "success rises to a peak at 800 Mbps, then declines at lower bandwidths.",
        ]));
        lines.push(Line::Detail(to_json(&rows)));
        lines
    }
}

/// Section IV-D / Fig. 6: targeted drops forcing an HTTP/2 stream
/// reset, swept over drop rates; then the variant with the pure
/// 6-second-timer drop window (no early stop on the reset signature),
/// where very high drop rates break the connection outright, as the
/// paper reports.
#[derive(Debug)]
pub struct Section4d {
    /// Drop rates of the stop-on-reset sweep.
    pub rates: &'static [f64],
    /// Drop rates of the timer-only variant.
    pub timer_rates: &'static [f64],
}

impl Section4d {
    /// The paper's sweep.
    pub const PAPER: Section4d = Section4d {
        rates: &[0.5, 0.7, 0.8, 0.9, 0.97],
        timer_rates: &[0.8, 0.9, 0.97],
    };

    /// `(seed family, index within the variant, stop on reset, rate)`
    /// of batch `batch`. The timer-only variant's family is
    /// `(base + 1_000) ^ 0xD0D0`.
    fn batch(&self, base_seed: u64, batch: usize) -> (u64, usize, bool, f64) {
        match batch.checked_sub(self.rates.len()) {
            None => (base_seed, batch, true, self.rates[batch]),
            Some(i) => ((base_seed + 1_000) ^ 0xD0D0, i, false, self.timer_rates[i]),
        }
    }
}

/// A Section IV-D / Fig. 6 point.
#[derive(Debug, Clone)]
pub struct DropRow {
    /// Drop rate applied to server→client data packets.
    pub drop_rate: f64,
    /// % of trials where the HTML was serialized and identified.
    pub pct_success: f64,
    /// % of trials where the client actually sent RST_STREAM.
    pub pct_reset_sent: f64,
    /// % of trials where the connection broke.
    pub pct_broken: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct DropRow { drop_rate, pct_success, pct_reset_sent, pct_broken, trials });

cell! {
    /// One Section IV-D trial.
    pub struct DropCell {
        /// The attack succeeded.
        success: bool,
        /// The client sent RST_STREAM.
        reset: bool,
        /// The connection broke.
        broken: bool,
    }
}

fn drop_table(rows: &[DropRow]) -> Line {
    let t = rows.iter().map(|r| {
        vec![
            format!("{:.0}", r.drop_rate * 100.0),
            pct(r.pct_success),
            pct(r.pct_reset_sent),
            pct(r.pct_broken),
        ]
    });
    let headers = [
        "drop rate (%)",
        "success (%)",
        "reset sent (%)",
        "broken (%)",
    ];
    table(&headers, t.collect())
}

impl Experiment for Section4d {
    const NAME: &'static str = "section4d";
    const DEFAULT_TRIALS: u64 = 100;
    const BASE_SEED: u64 = 31_000;
    type Cell = DropCell;
    type Row = DropRow;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        let rates = self.rates.iter().chain(self.timer_rates);
        uniform(trials, rates.map(|r| format!("section4d/drop_rate_{r}")))
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!("Section IV-D: {trials} downloads per drop rate..."))
    }

    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> DropCell {
        let (family, i, stop_on_reset, rate) = self.batch(base_seed, batch);
        let seed = family + 2_000_000 + (i as u64) * 10_000 + trial;
        let mut attack = AttackConfig::with_drops(rate, SimDuration::from_secs(6));
        attack.stop_drops_on_reset = stop_on_reset;
        let trial = run_isidewith_trial(seed, Some(attack));
        DropCell {
            success: trial.html_outcome().success,
            reset: trial.result.client.resets_sent > 0,
            broken: trial.result.client.connection_broken,
        }
    }

    fn close(&self, batch: usize, cells: &[DropCell], rows: &mut Vec<DropRow>) {
        rows.push(DropRow {
            drop_rate: self.batch(0, batch).3,
            pct_success: share(cells, |c| c.success),
            pct_reset_sent: share(cells, |c| c.reset),
            pct_broken: share(cells, |c| c.broken),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[DropRow]) -> String {
        let (sweep, timer) = rows.split_at(self.rates.len().min(rows.len()));
        to_json(&sweep) + "\n" + &to_json(&timer) + "\n"
    }

    fn lines(&self, rows: &[DropRow]) -> Vec<Line> {
        let (sweep, timer) = rows.split_at(self.rates.len().min(rows.len()));
        let mut lines = vec![drop_table(sweep)];
        lines.extend(info(&[
            "paper: 80% drops for 6 s -> ~90% success; higher rates break the connection.",
        ]));
        lines.push(Line::Detail(to_json(&sweep)));
        lines.push(Line::Detail(
            "timer-only drop window (no early stop on reset)...".to_string(),
        ));
        lines.extend(info(&[
            "\nvariant: fixed 6 s drop window (paper's timer mechanism):",
        ]));
        lines.push(drop_table(timer));
        lines.push(Line::Detail(to_json(&timer)));
        lines
    }
}

/// Table II: per-object accuracy of the full Section V attack.
#[derive(Debug)]
pub struct Table2;

/// A Table II column.
#[derive(Debug, Clone)]
pub struct Table2Column {
    /// Object label ("HTML", "I1".."I8").
    pub object: String,
    /// Mean measured gap to the previous request (ms); `None` when no
    /// trial produced a measurable gap for this slot.
    pub gap_prev_ms: Option<f64>,
    /// % success when the adversary targets objects independently
    /// ("one object at a time").
    pub pct_single_target: f64,
    /// % success for the full ranking inference ("all objects at a
    /// time").
    pub pct_all_targets: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Table2Column { object, gap_prev_ms, pct_single_target, pct_all_targets, trials });

cell! {
    /// One Table II trial, per object slot (HTML, then I1..I8).
    pub struct Table2Cell {
        /// The slot's object was identified on its own.
        single: [bool; 9],
        /// The slot's ranking position was inferred correctly.
        sequence: [bool; 9],
        /// Measured gap (ms) from the previous first-attempt request.
        gaps: [Option<f64>; 9],
    }
}

impl Experiment for Table2 {
    const NAME: &'static str = "table2";
    const DEFAULT_TRIALS: u64 = 100;
    const BASE_SEED: u64 = 41_000;
    type Cell = Table2Cell;
    type Row = Table2Column;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        uniform(trials, ["table2/full_attack".to_string()])
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!("Table II: {trials} attacked downloads..."))
    }

    fn run(&self, base_seed: u64, _batch: usize, trial: u64) -> Table2Cell {
        let seed = base_seed + 3_000_000 + trial;
        let trial = run_isidewith_trial(seed, Some(AttackConfig::full_attack()));
        let mut cell = Table2Cell {
            single: [false; 9],
            sequence: [false; 9],
            gaps: [None; 9],
        };
        // Slot 0: the HTML (the ranking page itself); 1..=8: the images.
        let html = trial.html_outcome();
        cell.single[0] = html.success;
        cell.sequence[0] = html.success;
        for (i, out) in trial.image_outcomes().iter().enumerate() {
            cell.single[i + 1] = out.success;
        }
        for (i, ok) in trial.sequence_success().iter().enumerate() {
            cell.sequence[i + 1] = *ok;
        }
        // Measured inter-request gaps (first attempts, client-side).
        let firsts: Vec<_> = trial
            .result
            .client
            .requests
            .iter()
            .filter(|r| r.attempt == 0)
            .collect();
        let interest = std::iter::once(trial.iw.html).chain(trial.iw.images.iter().copied());
        for (slot, obj) in interest.enumerate() {
            if let Some(pos) = firsts.iter().position(|r| r.object == obj) {
                if pos > 0 {
                    let gap = firsts[pos]
                        .issued_at
                        .saturating_since(firsts[pos - 1].issued_at);
                    cell.gaps[slot] = Some(gap.as_nanos() as f64 / 1e6);
                }
            }
        }
        cell
    }

    fn close(&self, _batch: usize, cells: &[Table2Cell], rows: &mut Vec<Table2Column>) {
        for (i, label) in OBJECT_LABELS.iter().enumerate() {
            let mut gap_sum = 0.0f64;
            let mut gap_count = 0usize;
            for gap in cells.iter().filter_map(|c| c.gaps[i]) {
                gap_sum += gap;
                gap_count += 1;
            }
            rows.push(Table2Column {
                object: (*label).to_string(),
                gap_prev_ms: (gap_count > 0).then(|| gap_sum / gap_count as f64),
                pct_single_target: share(cells, |c| c.single[i]),
                pct_all_targets: share(cells, |c| c.sequence[i]),
                trials: cells.len(),
            });
        }
    }

    fn report(&self, rows: &[Table2Column]) -> String {
        to_json(&rows) + "\n"
    }

    fn lines(&self, rows: &[Table2Column]) -> Vec<Line> {
        let t = rows.iter().map(|c| {
            vec![
                c.object.clone(),
                pct_opt(c.gap_prev_ms),
                pct(c.pct_single_target),
                pct(c.pct_all_targets),
            ]
        });
        let headers = [
            "object",
            "T(req curr)-T(req prev) (ms)",
            "success % target: one object",
            "success % target: all objects",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "paper Table II: single-target 100% everywhere;",
            "all-targets 90/90/85/81/80/62/64/78/64 (HTML, I1..I8).",
        ]));
        lines.push(Line::Detail(to_json(&rows)));
        lines
    }
}

/// The paper's baseline multiplexing claims (Section IV prose): HTML
/// degree ≈98 %, images 80–99 %, 6th object unmultiplexed in ≈32 % of
/// unattacked runs.
#[derive(Debug)]
pub struct Baseline;

/// Baseline multiplexing statistics of one object, without any
/// adversary.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Object label.
    pub object: String,
    /// Mean degree of multiplexing (first copy); `None` when the object
    /// was never observed on the wire in any trial.
    pub mean_degree_pct: Option<f64>,
    /// % of trials with the object fully serialized by chance; `None`
    /// when there were no observations.
    pub pct_not_multiplexed: Option<f64>,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct BaselineRow { object, mean_degree_pct, pct_not_multiplexed, trials });

cell! {
    /// One baseline trial.
    pub struct BaselineCell {
        /// Best degree of multiplexing per object slot (HTML, I1..I8);
        /// `None` when the object never reached the wire.
        degrees: [Option<f64>; 9],
    }
}

impl Experiment for Baseline {
    const NAME: &'static str = "baseline";
    const DEFAULT_TRIALS: u64 = 100;
    const BASE_SEED: u64 = 51_000;
    type Cell = BaselineCell;
    type Row = BaselineRow;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        uniform(trials, ["baseline/no_attack".to_string()])
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!("baseline: {trials} unattacked downloads..."))
    }

    fn run(&self, base_seed: u64, _batch: usize, trial: u64) -> BaselineCell {
        let trial = run_isidewith_trial(base_seed + 4_000_000 + trial, None);
        let mut degrees = [None; 9];
        let interest = std::iter::once(trial.iw.html).chain(trial.iw.images.iter().copied());
        for (slot, obj) in interest.enumerate() {
            degrees[slot] = trial.result.degree(obj).best().map(|(_, d)| d);
        }
        BaselineCell { degrees }
    }

    fn close(&self, _batch: usize, cells: &[BaselineCell], rows: &mut Vec<BaselineRow>) {
        for (i, label) in OBJECT_LABELS.iter().enumerate() {
            let v: Vec<f64> = cells.iter().filter_map(|c| c.degrees[i]).collect();
            // Never observed: "no data" rather than a misleading 0 %.
            let (mean_degree_pct, pct_not_multiplexed) = if v.is_empty() {
                (None, None)
            } else {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                let zero = v.iter().filter(|d| is_serialized(**d)).count();
                (
                    Some(100.0 * mean),
                    Some(100.0 * zero as f64 / v.len() as f64),
                )
            };
            rows.push(BaselineRow {
                object: (*label).to_string(),
                mean_degree_pct,
                pct_not_multiplexed,
                trials: cells.len(),
            });
        }
    }

    fn report(&self, rows: &[BaselineRow]) -> String {
        to_json(&rows) + "\n"
    }

    fn lines(&self, rows: &[BaselineRow]) -> Vec<Line> {
        let t = rows.iter().map(|r| {
            vec![
                r.object.clone(),
                pct_opt(r.mean_degree_pct),
                pct_opt(r.pct_not_multiplexed),
            ]
        });
        let headers = [
            "object",
            "mean degree of multiplexing (%)",
            "serialized by chance (%)",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "paper: HTML degree ~98%, images 80-99%; HTML serialized by chance in 32% of runs.",
        ]));
        lines.push(Line::Detail(to_json(&rows)));
        lines
    }
}

/// Fig. 1: estimating object sizes from encrypted traffic works on
/// serial transfers and fails on multiplexed ones. Always runs its two
/// scenarios, whatever the trial count.
#[derive(Debug)]
pub struct Fig1;

/// A Fig. 1 scenario's outcome.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Scenario label.
    pub scenario: String,
    /// True sizes of (O1, O2).
    pub truth: (u64, u64),
    /// Units found and their size estimates.
    pub estimates: Vec<u64>,
    /// Whether both objects were identified from the estimates.
    pub both_identified: bool,
}

impl_to_json!(struct Fig1Row { scenario, truth, estimates, both_identified });

/// Fig. 1's object sizes (O1, O2).
const FIG1_SIZES: (u64, u64) = (9_500, 7_200);
/// Fig. 1's scenarios: label and inter-request gap (ms).
const FIG1_SCENARIOS: [(&str, u64); 2] = [
    ("multiplexed (IAT ~ 0)", 0),
    ("serial (IAT > service time)", 700),
];

cell! {
    /// One Fig. 1 scenario.
    pub struct Fig1Cell {
        /// Size estimates of the transmission units found.
        estimates: Vec<u64>,
        /// Both objects were identified.
        both_identified: bool,
    }
}

impl Experiment for Fig1 {
    const NAME: &'static str = "fig1";
    const DEFAULT_TRIALS: u64 = 2;
    const BASE_SEED: u64 = 61_000;
    type Cell = Fig1Cell;
    type Row = Fig1Row;

    fn batches(&self, _trials: u64) -> Vec<BatchSpec> {
        uniform(2, ["fig1/size_estimation".to_string()])
    }

    fn run(&self, base_seed: u64, _batch: usize, trial: u64) -> Fig1Cell {
        let (o1, o2) = FIG1_SIZES;
        let gap_ms = FIG1_SCENARIOS[trial as usize].1;
        let map = SizeMap::new(vec![("o1".to_string(), o1), ("o2".to_string(), o2)], 0.03);
        let site = two_object_site(o1, o2, SimDuration::from_millis(gap_ms));
        let result = run_site_trial(site, &TrialOptions::new(base_seed + gap_ms, None));
        let prediction = result.predict(&map);
        Fig1Cell {
            estimates: prediction
                .units
                .iter()
                .map(|u| u.unit.estimated_payload)
                .collect(),
            both_identified: prediction.contains("o1") && prediction.contains("o2"),
        }
    }

    fn close(&self, _batch: usize, cells: &[Fig1Cell], rows: &mut Vec<Fig1Row>) {
        for (c, (label, _)) in cells.iter().zip(FIG1_SCENARIOS) {
            rows.push(Fig1Row {
                scenario: label.to_string(),
                truth: FIG1_SIZES,
                estimates: c.estimates.clone(),
                both_identified: c.both_identified,
            });
        }
    }

    fn report(&self, rows: &[Fig1Row]) -> String {
        json_lines(rows)
    }

    fn lines(&self, rows: &[Fig1Row]) -> Vec<Line> {
        let mut lines = Vec::new();
        for row in rows {
            lines.extend([
                Line::Info(format!("case: {}", row.scenario)),
                Line::Info(format!(
                    "  true sizes:      O1={} O2={}",
                    row.truth.0, row.truth.1
                )),
                Line::Info(format!("  unit estimates:  {:?}", row.estimates)),
                Line::Info(format!("  both identified: {}", row.both_identified)),
                Line::Detail(to_json(row)),
            ]);
        }
        lines.extend(info(&[
            "\npaper Fig. 1: delimiting packets reveal sizes in case 1 (serial);",
            "interleaved segments defeat the estimation in case 2 (multiplexed).",
        ]));
        lines
    }
}

/// Figs. 2–3: inter-request spacing eliminates multiplexing of a
/// two-object page.
#[derive(Debug)]
pub struct Fig2;

/// A Figs. 2–3 point.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Gap between the two GETs (ms).
    pub gap_ms: u64,
    /// Mean degree of multiplexing of O1 over trials that put it on the
    /// wire; `None` when none did.
    pub mean_degree_pct: Option<f64>,
    /// % of trials with O1 fully serialized.
    pub pct_serialized: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct Fig2Row { gap_ms, mean_degree_pct, pct_serialized, trials });

/// The inter-request gaps (ms) swept by Figs. 2–3.
const FIG2_GAPS_MS: [u64; 7] = [0, 25, 50, 100, 200, 400, 800];

cell! {
    /// One Figs. 2–3 trial.
    pub struct Fig2Cell {
        /// O1's best degree of multiplexing; `None` when it never
        /// reached the wire.
        degree: Option<f64>,
    }
}

impl Experiment for Fig2 {
    const NAME: &'static str = "fig2";
    const DEFAULT_TRIALS: u64 = 20;
    const BASE_SEED: u64 = 71_000;
    type Cell = Fig2Cell;
    type Row = Fig2Row;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        uniform(trials, FIG2_GAPS_MS.map(|g| format!("fig2/gap_{g}ms")))
    }

    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> Fig2Cell {
        let gap = FIG2_GAPS_MS[batch];
        let site = two_object_site(30_000, 24_000, SimDuration::from_millis(gap));
        let opts = TrialOptions::new(base_seed + gap * 100 + trial, None);
        let result = run_site_trial(site, &opts);
        Fig2Cell {
            degree: result.degree(ObjectId(0)).best().map(|(_, d)| d),
        }
    }

    fn close(&self, batch: usize, cells: &[Fig2Cell], rows: &mut Vec<Fig2Row>) {
        let mut sum = 0.0;
        let mut observed = 0u64;
        for d in cells.iter().filter_map(|c| c.degree) {
            sum += d;
            observed += 1;
        }
        rows.push(Fig2Row {
            gap_ms: FIG2_GAPS_MS[batch],
            mean_degree_pct: (observed > 0).then(|| 100.0 * sum / observed as f64),
            pct_serialized: share(cells, |c| c.degree == Some(0.0)),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[Fig2Row]) -> String {
        json_lines(rows)
    }

    fn lines(&self, rows: &[Fig2Row]) -> Vec<Line> {
        let t = rows.iter().map(|r| {
            vec![
                r.gap_ms.to_string(),
                pct_opt(r.mean_degree_pct),
                pct(r.pct_serialized),
            ]
        });
        let headers = [
            "inter-request gap (ms)",
            "O1 mean degree of multiplexing (%)",
            "O1 serialized (%)",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "paper Figs. 2-3: spacing the second GET past O1's service time",
            "lets the server finish O1 in single-threaded mode.",
        ]));
        lines
    }
}

/// A robustness-sweep row: the full Section V attack under increasingly
/// adverse network conditions. Degraded trials count as attack failures
/// in the percentage columns (the adversary got nothing usable), and
/// their outcome breakdown is reported alongside so no trial disappears
/// into a silent default.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Fault intensity knob in `[0, 1]` (0 = pristine path).
    pub intensity: f64,
    /// Configured long-run bursty-loss rate (%).
    pub burst_loss_pct: f64,
    /// Configured per-packet reorder probability (%).
    pub reorder_pct: f64,
    /// Configured per-packet duplication probability (%).
    pub duplicate_pct: f64,
    /// Whether the schedule includes a mid-transfer link flap.
    pub flap: bool,
    /// % of trials where the result HTML was fully serialized; `None`
    /// when no trials ran.
    pub pct_html_serialized: Option<f64>,
    /// % of trials where the predictor identified the HTML; `None` when
    /// no trials ran.
    pub pct_html_identified: Option<f64>,
    /// % of trials meeting the paper's success criterion (serialized and
    /// identified); `None` when no trials ran.
    pub pct_success: Option<f64>,
    /// Mean wire retransmissions per trial; `None` when no trials ran.
    pub retransmissions_avg: Option<f64>,
    /// Mean fault-layer drops (burst + outage) per trial; `None` when no
    /// trials ran.
    pub fault_drops_avg: Option<f64>,
    /// Final attempts that completed.
    pub completed: usize,
    /// Final attempts the watchdog classified as stalled.
    pub stalled: usize,
    /// Final attempts that ended in a broken connection.
    pub aborted: usize,
    /// Final attempts that were still progressing at the horizon.
    pub horizon_exhausted: usize,
    /// Extra (retry) attempts consumed across the row.
    pub retries_used: u64,
    /// Trials run (final attempts; the denominators above).
    pub trials: usize,
}

impl_to_json!(struct RobustnessRow {
    intensity,
    burst_loss_pct,
    reorder_pct,
    duplicate_pct,
    flap,
    pct_html_serialized,
    pct_html_identified,
    pct_success,
    retransmissions_avg,
    fault_drops_avg,
    completed,
    stalled,
    aborted,
    horizon_exhausted,
    retries_used,
    trials,
});

/// The fault bundle applied to the middlebox↔server links at a given
/// sweep intensity in `[0, 1]`: bursty loss up to 5 % (mean burst 4
/// packets), reordering up to 30 % (1–20 ms extra delay), duplication up
/// to 2 %, and from intensity 0.8 a 400 ms link flap mid-transfer.
/// Intensity 0 returns an empty plan (no fault layer attached at all).
pub fn robustness_fault_plan(intensity: f64) -> FaultPlan {
    let x = intensity.clamp(0.0, 1.0);
    if x <= 0.0 {
        return FaultPlan::default();
    }
    let mut cfg = FaultConfig::none()
        .with_burst_loss(GilbertElliott::bursty(0.05 * x, 4.0))
        .with_reorder(Reorder {
            probability: 0.3 * x,
            delay_min: SimDuration::from_millis(1),
            delay_max: SimDuration::from_millis(20),
        })
        .with_duplicate(Duplicate {
            probability: 0.02 * x,
            delay: SimDuration::from_millis(1),
        });
    if x >= 0.8 {
        cfg = cfg.with_flap(SimTime::from_millis(1_000), SimDuration::from_millis(400));
    }
    FaultPlan {
        client_link: None,
        server_link: Some(cfg),
    }
}

/// The fault-intensity points swept by the robustness experiment.
pub const ROBUSTNESS_INTENSITIES: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// The full attack swept across fault intensities, reporting attack
/// serialization/identification rates against impairment level. Each
/// trial runs with the stall watchdog in fail-fast mode and one retry
/// on a derived seed; every outcome is accounted for in the row.
#[derive(Debug)]
pub struct Robustness {
    /// Fault intensities swept, in `[0, 1]`.
    pub intensities: &'static [f64],
}

impl Robustness {
    /// The committed sweep over [`ROBUSTNESS_INTENSITIES`].
    pub const SWEEP: Robustness = Robustness {
        intensities: &ROBUSTNESS_INTENSITIES,
    };
}

cell! {
    /// One robustness trial.
    pub struct RobustCell {
        /// Outcome of the final attempt, as an index:
        /// completed/stalled/aborted/horizon-exhausted.
        outcome: u64,
        /// Retry attempts consumed before the final one.
        retries: u64,
        /// HTML fully serialized (completed trials only).
        serialized: bool,
        /// HTML identified by the predictor (completed trials only).
        identified: bool,
        /// The paper's success criterion held.
        success: bool,
        /// Wire retransmissions.
        retrans: u64,
        /// Fault-layer drops (burst + outage) across all faulted links.
        fault_drops: u64,
    }
}

impl Experiment for Robustness {
    const NAME: &'static str = "robustness_sweep";
    const DEFAULT_TRIALS: u64 = 50;
    const BASE_SEED: u64 = 81_000;
    const RESULT_FILE: Option<&'static str> = Some("robustness_sweep.json");
    type Cell = RobustCell;
    type Row = RobustnessRow;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        let labels = self.intensities.iter();
        uniform(trials, labels.map(|x| format!("robustness/intensity_{x}")))
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!(
            "robustness sweep: {trials} attacked downloads per intensity..."
        ))
    }

    /// The seed is keyed by the batch *index*, so any slicing of the
    /// sweep that preserves indices lands on identical seeds.
    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> RobustCell {
        let plan = robustness_fault_plan(self.intensities[batch]);
        let seed = base_seed + 5_000_000 + (batch as u64) * 10_000 + trial;
        let mut opts = TrialOptions::new(seed, Some(AttackConfig::full_attack()));
        opts.faults = plan;
        opts.fail_fast = true;
        opts.stall_window = SimDuration::from_secs(15);
        let retried = run_isidewith_trial_retrying(opts, 1);
        let trial = &retried.trial;
        let outcome = match trial.result.outcome {
            TrialOutcome::Completed => 0,
            TrialOutcome::Stalled => 1,
            TrialOutcome::ConnectionAborted => 2,
            TrialOutcome::HorizonExhausted => 3,
        };
        let completed = trial.result.outcome == TrialOutcome::Completed;
        let out = trial.html_outcome();
        RobustCell {
            outcome,
            retries: u64::from(retried.retries_used()),
            serialized: completed && is_serialized(out.best_degree),
            identified: completed && out.identified,
            success: completed && out.success,
            retrans: trial.result.total_retransmissions(),
            fault_drops: trial.result.fault_stats.iter().map(|s| s.dropped()).sum(),
        }
    }

    fn close(&self, batch: usize, cells: &[RobustCell], rows: &mut Vec<RobustnessRow>) {
        let intensity = self.intensities[batch];
        let x = intensity.clamp(0.0, 1.0);
        let outcomes = |k: u64| cells.iter().filter(|c| c.outcome.min(3) == k).count();
        rows.push(RobustnessRow {
            intensity,
            burst_loss_pct: 100.0 * 0.05 * x,
            reorder_pct: 100.0 * 0.3 * x,
            duplicate_pct: 100.0 * 0.02 * x,
            flap: intensity >= 0.8,
            pct_html_serialized: Some(share(cells, |c| c.serialized)),
            pct_html_identified: Some(share(cells, |c| c.identified)),
            pct_success: Some(share(cells, |c| c.success)),
            retransmissions_avg: Some(mean(cells, |c| c.retrans)),
            fault_drops_avg: Some(mean(cells, |c| c.fault_drops)),
            completed: outcomes(0),
            stalled: outcomes(1),
            aborted: outcomes(2),
            horizon_exhausted: outcomes(3),
            retries_used: cells.iter().map(|c| c.retries).sum(),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[RobustnessRow]) -> String {
        json_lines(rows)
    }

    fn lines(&self, rows: &[RobustnessRow]) -> Vec<Line> {
        let t = rows.iter().map(|r| {
            vec![
                format!("{:.1}", r.intensity),
                pct(r.burst_loss_pct),
                pct(r.reorder_pct),
                if r.flap { "yes".into() } else { "no".into() },
                pct_opt(r.pct_html_serialized),
                pct_opt(r.pct_success),
                pct_opt(r.retransmissions_avg),
                format!(
                    "{}/{}/{}/{}",
                    r.completed, r.stalled, r.aborted, r.horizon_exhausted
                ),
                r.retries_used.to_string(),
            ]
        });
        let headers = [
            "intensity",
            "burst loss (%)",
            "reorder (%)",
            "flap",
            "HTML serialized (%)",
            "attack success (%)",
            "retransmissions (avg)",
            "ok/stall/abort/horizon",
            "retries",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "reading: the attack's forced serialization should survive mild",
            "impairment and decay gracefully — every degraded trial is classified,",
            "never silently folded into a success percentage.",
        ]));
        lines
    }
}

/// The headline transport-transfer experiment: does the forced
/// serialization attack survive the move from HTTP/2-over-TCP to
/// HTTP/3-over-QUIC? Every attack configuration runs against both
/// transports on identical seeds (same survey ground truth per seed), so
/// each matrix row differs only in the substrate the victim speaks.
#[derive(Debug)]
pub struct TransportTransfer;

/// One cell of the H2-vs-H3 attack-transfer matrix: a (attack config,
/// transport) pair aggregated over trials.
#[derive(Debug, Clone)]
pub struct TransferRow {
    /// Attack configuration label.
    pub attack: String,
    /// Transport substrate label (`"h2-tcp"` or `"h3-quic"`).
    pub transport: String,
    /// % of trials where the result HTML was fully serialized.
    pub pct_html_serialized: f64,
    /// % of trials where the predictor identified the HTML size.
    pub pct_html_identified: f64,
    /// % of trials meeting the paper's success criterion (serialized
    /// *and* identified).
    pub pct_success: f64,
    /// % of trials where the full 8-party ranking was read off the wire
    /// (every sequence position correct).
    pub pct_full_ranking: f64,
    /// Mean wire retransmissions per trial (TCP retransmits, or the QUIC
    /// loss + PTO retransmission count in its TCP projection).
    pub retransmissions_avg: f64,
    /// % of trials where the client saw a broken connection.
    pub pct_broken: f64,
    /// Trials run per cell.
    pub trials: usize,
}

impl_to_json!(struct TransferRow {
    attack,
    transport,
    pct_html_serialized,
    pct_html_identified,
    pct_success,
    pct_full_ranking,
    retransmissions_avg,
    pct_broken,
    trials,
});

/// The attack configurations swept by [`TransportTransfer`], labelled.
fn transfer_attack(index: usize) -> (&'static str, AttackConfig) {
    let jitter = SimDuration::from_millis(50);
    match index {
        0 => ("full_attack", AttackConfig::full_attack()),
        1 => ("jitter_only_50ms", AttackConfig::jitter_only(jitter)),
        2 => (
            "jitter_and_bandwidth_800mbps",
            AttackConfig::jitter_and_bandwidth(jitter, Bandwidth::mbps(800)),
        ),
        _ => (
            "with_drops_80pct_6s",
            AttackConfig::with_drops(0.8, SimDuration::from_secs(6)),
        ),
    }
}

/// Transport labels, in the order every sweep visits them.
const TRANSPORTS: [&str; 2] = ["h2-tcp", "h3-quic"];

cell! {
    /// One transport-transfer trial.
    pub struct TransferCell {
        /// HTML fully serialized.
        serialized: bool,
        /// HTML identified by the predictor.
        identified: bool,
        /// The paper's success criterion held.
        success: bool,
        /// Every position of the 8-party ranking read correctly.
        full_ranking: bool,
        /// The connection broke.
        broken: bool,
        /// Wire retransmissions.
        retrans: u64,
    }
}

impl Experiment for TransportTransfer {
    const NAME: &'static str = "transport_transfer";
    const DEFAULT_TRIALS: u64 = 30;
    const BASE_SEED: u64 = 82_000;
    const RESULT_FILE: Option<&'static str> = Some("h3_transfer.json");
    type Cell = TransferCell;
    type Row = TransferRow;

    /// Attack-major: batch `b` is attack `b / 2` over transport `b % 2`.
    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        let labels = (0..8).map(|b| {
            let attack = transfer_attack(b / 2).0;
            format!("transfer/{attack}/{}", TRANSPORTS[b % 2])
        });
        uniform(trials, labels)
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!(
            "transport transfer: {trials} downloads per (attack, transport) cell..."
        ))
    }

    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> TransferCell {
        let seed = base_seed + 6_000_000 + (batch / 2) as u64 * 10_000 + trial;
        let attack = Some(transfer_attack(batch / 2).1);
        let trial = if batch.is_multiple_of(2) {
            run_isidewith_trial(seed, attack)
        } else {
            run_isidewith_h3_trial(seed, attack)
        };
        let out = trial.html_outcome();
        TransferCell {
            serialized: is_serialized(out.best_degree),
            identified: out.identified,
            success: out.success,
            full_ranking: trial.sequence_success().iter().all(|ok| *ok),
            broken: trial.result.client.connection_broken,
            retrans: trial.result.total_retransmissions(),
        }
    }

    fn close(&self, batch: usize, cells: &[TransferCell], rows: &mut Vec<TransferRow>) {
        rows.push(TransferRow {
            attack: transfer_attack(batch / 2).0.to_string(),
            transport: TRANSPORTS[batch % 2].to_string(),
            pct_html_serialized: share(cells, |c| c.serialized),
            pct_html_identified: share(cells, |c| c.identified),
            pct_success: share(cells, |c| c.success),
            pct_full_ranking: share(cells, |c| c.full_ranking),
            retransmissions_avg: mean(cells, |c| c.retrans),
            pct_broken: share(cells, |c| c.broken),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[TransferRow]) -> String {
        json_lines(rows)
    }

    fn lines(&self, rows: &[TransferRow]) -> Vec<Line> {
        let t = rows.iter().map(|r| {
            vec![
                r.attack.clone(),
                r.transport.clone(),
                pct(r.pct_html_serialized),
                pct(r.pct_html_identified),
                pct(r.pct_success),
                pct(r.pct_full_ranking),
                format!("{:.1}", r.retransmissions_avg),
                pct(r.pct_broken),
            ]
        });
        let headers = [
            "attack",
            "transport",
            "HTML serialized (%)",
            "HTML identified (%)",
            "attack success (%)",
            "full ranking (%)",
            "retransmissions (avg)",
            "broken (%)",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "reading: each attack runs on the same seeds over H2/TCP and H3/QUIC,",
            "so any gap between the paired rows is attributable to the transport",
            "substrate alone — per-stream delivery, datagram framing, and QUIC's",
            "loss recovery replacing the TCP bytestream and TLS record headers.",
        ]));
        lines
    }
}

/// Ablations of the design choices called out in DESIGN.md: the server
/// mux policy (Concurrent vs Serial, i.e. HTTP/1.1-like), the
/// duplicate-serving pathology on/off, and the client re-request
/// timeout.
#[derive(Debug)]
pub struct Ablation;

/// The re-request timeouts (ms) swept by [`Ablation`].
const ABLATION_TIMEOUTS_MS: [u64; 4] = [600, 1_200, 2_400, 4_800];

/// One ablation point.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Ablation label.
    pub ablation: String,
    /// % of trials with the HTML fully serialized.
    pub pct_html_serialized: f64,
    /// Mean application-layer re-requests per trial.
    pub rerequests_avg: f64,
    /// Mean duplicate copies served per trial.
    pub duplicate_copies_avg: f64,
    /// Trials run.
    pub trials: usize,
}

impl_to_json!(struct AblationRow {
    ablation,
    pct_html_serialized,
    rerequests_avg,
    duplicate_copies_avg,
    trials,
});

impl Ablation {
    /// Batch `batch`'s label and seed offset from the base seed.
    fn point(batch: usize) -> (String, u64) {
        match batch {
            0 => ("mux_concurrent".to_string(), 0),
            1 => ("mux_serial".to_string(), 1_000),
            2 => ("dup_on".to_string(), 2_000),
            3 => ("dup_off".to_string(), 3_000),
            b => {
                let ms = ABLATION_TIMEOUTS_MS[b - 4];
                (format!("timeout_{ms}ms"), 4_000 + ms)
            }
        }
    }
}

cell! {
    /// One ablation trial.
    pub struct AblationCell {
        /// HTML fully serialized.
        serialized: bool,
        /// Application-layer re-requests.
        rerequests: u64,
        /// Duplicate copies served.
        copies: u64,
    }
}

impl Experiment for Ablation {
    const NAME: &'static str = "ablation";
    const DEFAULT_TRIALS: u64 = 25;
    const BASE_SEED: u64 = 81_000;
    type Cell = AblationCell;
    type Row = AblationRow;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        let labels = (0..8).map(|b| format!("ablation/{}", Ablation::point(b).0));
        uniform(trials, labels)
    }

    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> AblationCell {
        let mut opts = TrialOptions::new(base_seed + Ablation::point(batch).1 + trial, None);
        // Every point past the mux pair runs under 200 ms jitter.
        if batch >= 2 {
            let jitter = SimDuration::from_millis(200);
            opts.attack = Some(AttackConfig::jitter_only(jitter));
        }
        match batch {
            1 => opts.server.mux = MuxPolicy::Serial,
            3 => opts.server.serve_duplicates = false,
            b if b >= 4 => {
                let ms = ABLATION_TIMEOUTS_MS[b - 4];
                opts.client.rerequest.timeout = SimDuration::from_millis(ms);
            }
            _ => {}
        }
        let trial = run_isidewith_trial_with(opts, TransportKind::Tcp);
        AblationCell {
            serialized: is_serialized(trial.html_outcome().best_degree),
            rerequests: trial.result.client.h2_rerequests,
            copies: trial.result.serve_log.iter().filter(|s| s.copy > 0).count() as u64,
        }
    }

    fn close(&self, batch: usize, cells: &[AblationCell], rows: &mut Vec<AblationRow>) {
        rows.push(AblationRow {
            ablation: Ablation::point(batch).0,
            pct_html_serialized: share(cells, |c| c.serialized),
            rerequests_avg: mean(cells, |c| c.rerequests),
            duplicate_copies_avg: mean(cells, |c| c.copies),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[AblationRow]) -> String {
        json_lines(rows)
    }

    fn lines(&self, rows: &[AblationRow]) -> Vec<Line> {
        let mut lines = Vec::new();
        for (b, r) in rows.iter().enumerate() {
            let banner = match b {
                0 => "mux policy (no adversary)",
                2 => "duplicate-serving pathology under 200 ms jitter",
                4 => "client re-request timeout under 200 ms jitter",
                _ => "",
            };
            if !banner.is_empty() {
                lines.push(Line::Info(format!("\n=== {banner} ===")));
            }
            let (serial, rereq, copies) = (
                r.pct_html_serialized,
                r.rerequests_avg,
                r.duplicate_copies_avg,
            );
            let counts =
                format!("re-requests/trial {rereq:.1}, duplicate copies/trial {copies:.1}");
            lines.push(Line::Info(match b {
                0 => format!("  Concurrent (HTTP/2): html serialized by chance {serial:.0}%"),
                1 => format!(
                    "  Serial (HTTP/1.1-like): html serialized {serial:.0}% (expected ~100%)"
                ),
                2 => format!("  serve_duplicates=on : {counts}"),
                3 => format!("  serve_duplicates=off: {counts}"),
                _ => format!("  timeout {:>4} ms: {counts}", ABLATION_TIMEOUTS_MS[b - 4]),
            }));
        }
        lines
    }
}

/// One batch of the attack × defense × transport matrix.
#[derive(Debug, Clone, Copy)]
pub struct DefenseMatrixBatch {
    /// The countermeasure under test.
    pub defense: Defense,
    /// Attack configuration label (resolved by
    /// [`defense_matrix_attack`]).
    pub attack: &'static str,
    /// Transport substrate label (`"h2-tcp"` or `"h3-quic"`).
    pub transport: &'static str,
}

impl DefenseMatrixBatch {
    /// The transport as an enum.
    pub fn transport_kind(&self) -> TransportKind {
        if self.transport == "h2-tcp" {
            TransportKind::Tcp
        } else {
            TransportKind::Quic
        }
    }
}

/// The matrix's batch enumeration, grouped `(attack, transport)`-major
/// with the undefended baseline **first in every group** — the overhead
/// columns of later rows are computed against it, so the streaming fold
/// only ever reads the group's latest baseline row.
pub fn defense_matrix_batches() -> Vec<DefenseMatrixBatch> {
    let mut batches = Vec::new();
    for attack in ["full_attack", "jitter_only_50ms"] {
        for transport in TRANSPORTS {
            for defense in Defense::ALL {
                let b = DefenseMatrixBatch {
                    defense,
                    attack,
                    transport,
                };
                if defense.supported_on(b.transport_kind()) {
                    batches.push(b);
                }
            }
        }
    }
    batches
}

/// Resolves a matrix attack label to its configuration.
///
/// # Panics
/// Panics on a label not produced by [`defense_matrix_batches`].
pub fn defense_matrix_attack(label: &str) -> AttackConfig {
    match label {
        "full_attack" => AttackConfig::full_attack(),
        "jitter_only_50ms" => AttackConfig::jitter_only(SimDuration::from_millis(50)),
        other => panic!("unknown defense-matrix attack {other:?}"),
    }
}

/// The attack × defense × transport matrix: every countermeasure preset
/// against both matrix attacks on both transports (where supported),
/// with bandwidth and latency overhead measured against the undefended
/// cell of the same group.
#[derive(Debug)]
pub struct DefenseMatrix;

/// One row of the attack × defense × transport matrix.
#[derive(Debug, Clone)]
pub struct DefenseMatrixRow {
    /// Countermeasure label.
    pub defense: String,
    /// Attack configuration label.
    pub attack: String,
    /// Transport substrate label.
    pub transport: String,
    /// % of trials meeting the paper's success criterion.
    pub pct_success: f64,
    /// % of trials where the HTML size was identified.
    pub pct_identified: f64,
    /// % of trials where the full 8-party ranking was read correctly.
    pub pct_full_ranking: f64,
    /// % of trials whose page load finished.
    pub pct_completed: f64,
    /// Mean server wire bytes per trial (padding and cover traffic
    /// included).
    pub wire_bytes_avg: f64,
    /// Mean page-load time over completed trials, ms (0 when none
    /// completed).
    pub page_ms_avg: f64,
    /// Wire-byte overhead vs the undefended cell of the same (attack,
    /// transport), % (0 for the baseline row itself).
    pub bandwidth_overhead_pct: f64,
    /// Page-time overhead vs the undefended cell, % (0 when either cell
    /// has no completions).
    pub latency_overhead_pct: f64,
    /// Trials per cell.
    pub trials: usize,
}

impl_to_json!(struct DefenseMatrixRow {
    defense,
    attack,
    transport,
    pct_success,
    pct_identified,
    pct_full_ranking,
    pct_completed,
    wire_bytes_avg,
    page_ms_avg,
    bandwidth_overhead_pct,
    latency_overhead_pct,
    trials,
});

cell! {
    /// One defense-matrix trial.
    pub struct DefenseCell {
        /// The page load finished.
        completed: bool,
        /// HTML fully serialized.
        serialized: bool,
        /// HTML identified by the predictor.
        identified: bool,
        /// The paper's success criterion (serialized *and* identified) —
        /// judged from the adversary's capture whether or not the page
        /// finished, matching [`TransportTransfer`].
        success: bool,
        /// Every position of the 8-party ranking read correctly.
        full_ranking: bool,
        /// Server payload bytes on the wire, including padding fill and
        /// dummy shaping cells — the defense's bandwidth cost.
        wire_bytes: u64,
        /// Page-load duration in nanoseconds (0 when not completed) — the
        /// defense's latency cost.
        page_ns: u64,
    }
}

impl Experiment for DefenseMatrix {
    const NAME: &'static str = "defense_matrix";
    const DEFAULT_TRIALS: u64 = 25;
    const BASE_SEED: u64 = 83_000;
    const RESULT_FILE: Option<&'static str> = Some("defense_matrix.json");
    type Cell = DefenseCell;
    type Row = DefenseMatrixRow;

    fn batches(&self, trials: u64) -> Vec<BatchSpec> {
        let labels = defense_matrix_batches().into_iter().map(|b| {
            let defense = b.defense.label();
            format!("defense/{}/{}/{defense}", b.attack, b.transport)
        });
        uniform(trials, labels)
    }

    fn intro(&self, trials: u64) -> Option<String> {
        Some(format!(
            "defense matrix: {trials} attacked downloads per (attack, transport, defense) cell"
        ))
    }

    /// Seed layout: `base + 7_000_000 + batch * 10_000 + trial`.
    fn run(&self, base_seed: u64, batch: usize, trial: u64) -> DefenseCell {
        let b = defense_matrix_batches()[batch];
        let seed = base_seed + 7_000_000 + (batch as u64) * 10_000 + trial;
        let mut opts = TrialOptions::new(seed, Some(defense_matrix_attack(b.attack)));
        opts.defense = b.defense;
        let trial = run_isidewith_trial_with(opts, b.transport_kind());
        let out = trial.html_outcome();
        let client = &trial.result.client;
        let page_ns = match (client.page_started_at, client.page_completed_at) {
            (Some(a), Some(z)) => z.as_nanos().saturating_sub(a.as_nanos()),
            _ => 0,
        };
        // H2's TCP byte counter already includes TLS padding fill and dummy
        // cells (they ride the same byte stream); QUIC's stream-byte counter
        // excludes its datagram padding, which is accounted separately.
        let wire_bytes = match b.transport_kind() {
            TransportKind::Tcp => trial.result.server_tcp.bytes_sent,
            TransportKind::Quic => {
                trial.result.server_tcp.bytes_sent + trial.result.pad_overhead_bytes
            }
        };
        DefenseCell {
            completed: trial.result.outcome == TrialOutcome::Completed,
            serialized: is_serialized(out.best_degree),
            identified: out.identified,
            success: out.success,
            full_ranking: trial.sequence_success().iter().all(|ok| *ok),
            wire_bytes,
            page_ns,
        }
    }

    fn close(&self, batch: usize, cells: &[DefenseCell], rows: &mut Vec<DefenseMatrixRow>) {
        let b = defense_matrix_batches()[batch];
        let completed = cells.iter().filter(|c| c.completed).count();
        let wire_bytes_avg = mean(cells, |c| c.wire_bytes);
        let page_ms_avg = if completed > 0 {
            cells.iter().map(|c| c.page_ns).sum::<u64>() as f64 / completed as f64 / 1e6
        } else {
            0.0
        };
        // The group's `none` row leads it (see `defense_matrix_batches`).
        let (base_bytes, base_ms) = if b.defense == Defense::None {
            (wire_bytes_avg, page_ms_avg)
        } else {
            let base = rows
                .iter()
                .rev()
                .find(|r| r.defense == Defense::None.label());
            let base = base.expect("baseline batch folded first in each group");
            (base.wire_bytes_avg, base.page_ms_avg)
        };
        let overhead = |v: f64, base: f64| {
            if base > 0.0 && v > 0.0 {
                100.0 * (v - base) / base
            } else {
                0.0
            }
        };
        rows.push(DefenseMatrixRow {
            defense: b.defense.label().to_string(),
            attack: b.attack.to_string(),
            transport: b.transport.to_string(),
            pct_success: share(cells, |c| c.success),
            pct_identified: share(cells, |c| c.identified),
            pct_full_ranking: share(cells, |c| c.full_ranking),
            pct_completed: share(cells, |c| c.completed),
            wire_bytes_avg,
            page_ms_avg,
            bandwidth_overhead_pct: overhead(wire_bytes_avg, base_bytes),
            latency_overhead_pct: overhead(page_ms_avg, base_ms),
            trials: cells.len(),
        });
    }

    fn report(&self, rows: &[DefenseMatrixRow]) -> String {
        json_lines(rows)
    }

    fn lines(&self, rows: &[DefenseMatrixRow]) -> Vec<Line> {
        let t = rows.iter().map(|r| {
            vec![
                r.attack.clone(),
                r.transport.clone(),
                r.defense.clone(),
                pct(r.pct_success),
                pct(r.pct_full_ranking),
                pct(r.pct_completed),
                format!("{:.0}", r.wire_bytes_avg / 1024.0),
                format!("{:+.1}%", r.bandwidth_overhead_pct),
                format!("{:+.1}%", r.latency_overhead_pct),
            ]
        });
        let headers = [
            "attack",
            "transport",
            "defense",
            "success (%)",
            "full ranking (%)",
            "completed (%)",
            "wire (KiB)",
            "bw overhead",
            "latency overhead",
        ];
        let mut lines = vec![table(&headers, t.collect())];
        lines.extend(info(&[
            "reading: padding and shaping starve the size/segmentation channel the",
            "attack identifies objects by; randomization and decoys corrupt the",
            "inferred ranking instead; splitting hides half the bytes from the tap.",
            "each defense buys its reduction with the overhead shown on the right.",
        ]));
        lines
    }
}
