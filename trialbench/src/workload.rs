//! The four workloads, the trial pipeline they drive, and the checks
//! of their results.
//!
//! The attack workloads run the paper's Table II pipeline one trial at
//! a time, calling each layer through its public entry point so the
//! benchmark can time it from outside: the web model builds the page
//! (`IsideWith::generate`, `Defense::configure`, `transform_site`), the
//! simulator loads it (`run_site_trial` / `run_h3_site_trial`), the
//! predictor reads the capture (`predict_from_trace` /
//! `predict_from_datagram_trace`), and scoring judges it
//! (`html_outcome`, `sequence_success`). This is the composition
//! `run_isidewith_trial_with` performs; a test pins the two together.
//!
//! The campaign workloads run whole campaigns cell by cell through
//! `CampaignSpec::run_cell`, the `h2priv_campaign` record codec and
//! journal (write, then replay), and `CampaignFolder`, exactly as a
//! sharded campaign regenerates a committed result file.

use crate::spans::SpanLog;
use h2priv_campaign::journal::{self, Journal, RecordEntry};
use h2priv_campaign::record::{header_body, record_body, stamp};
use h2priv_core::attack::{AttackConfig, TransportKind};
use h2priv_core::campaign::CampaignSpec;
use h2priv_core::defense::Defense;
use h2priv_core::experiment::{
    derive_retry_seed, run_h3_site_trial, run_site_trial, IsideWithTrial, ObjectAttackOutcome,
    TrialOptions, TrialOutcome,
};
use h2priv_core::experiments::{
    defense_matrix_attack, defense_matrix_batches, robustness_fault_plan, ROBUSTNESS_INTENSITIES,
};
use h2priv_core::predictor::SizeMap;
use h2priv_netsim::rng::SimRng;
use h2priv_netsim::time::SimDuration;
use h2priv_util::alloc;
use h2priv_util::fxhash::FxHasher;
use h2priv_util::json::Json;
use h2priv_web::IsideWith;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Trials per round of an attack workload.
pub const ATTACK_TRIALS: u64 = 1_000;
/// Round `j` of an attack workload runs trial seeds
/// `base + j * ROUND_STRIDE ..`, so every round loads distinct pages.
/// The p99 of a thousand pages is their tenth-longest trial, which
/// moves by a fifth from one thousand pages to the next; pooled over a
/// run's several thousand distinct pages it holds still. Round 0 is the
/// reference round.
pub const ROUND_STRIDE: u64 = 1_000_000_000;
/// Leading trials of a round the seed-stability pins cover.
pub const PIN_TRIALS: u64 = 100;

/// Trials per cell of the defense matrix (its committed result's size).
pub const DEFENSE_TRIALS: u64 = 25;
/// Trials per intensity of the robustness sweep (its committed result's
/// size).
pub const ROBUSTNESS_TRIALS: u64 = 50;
/// `--seed S` selects the seed family `S * SEED_STRIDE`, the repo's
/// convention for experiment base seeds (table1 11_000, robustness
/// 81_000, defense matrix 83_000, perfbench 91_000).
pub const SEED_STRIDE: u64 = 1_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// isidewith over H2/TCP/TLS under the full attack (Table II).
    H2Attack,
    /// The same site, attack and seeds over QUIC/H3.
    H3Attack,
    /// The attack x defense x transport campaign.
    DefenseMatrix,
    /// The fault-intensity campaign.
    RobustnessSweep,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::H2Attack,
        Workload::H3Attack,
        Workload::DefenseMatrix,
        Workload::RobustnessSweep,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::H2Attack => "h2_attack",
            Workload::H3Attack => "h3_attack",
            Workload::DefenseMatrix => "defense_matrix",
            Workload::RobustnessSweep => "robustness_sweep",
        }
    }

    /// The seed the workload's reference was made with.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::H2Attack | Workload::H3Attack => 91,
            Workload::DefenseMatrix => 83,
            Workload::RobustnessSweep => 81,
        }
    }

    /// The campaign experiment behind a campaign workload.
    pub fn campaign(self) -> Option<(&'static str, u64)> {
        match self {
            Workload::H2Attack | Workload::H3Attack => None,
            Workload::DefenseMatrix => Some(("defense_matrix", DEFENSE_TRIALS)),
            Workload::RobustnessSweep => Some(("robustness_sweep", ROBUSTNESS_TRIALS)),
        }
    }

    /// The transport of an attack workload.
    fn transport(self) -> TransportKind {
        match self {
            Workload::H3Attack => TransportKind::Quic,
            _ => TransportKind::Tcp,
        }
    }
}

/// The base seed of seed family `seed`.
///
/// # Errors
/// Rejects seeds whose family would overflow the trial seed space.
pub fn family(seed: u64) -> Result<u64, String> {
    seed.checked_mul(SEED_STRIDE)
        .filter(|f| f.checked_add(1 << 40).is_some())
        .ok_or_else(|| format!("--seed {seed} is too large"))
}

/// A trial after every pipeline stage.
pub struct Scored {
    /// Ground truth, simulation result and prediction.
    pub trial: IsideWithTrial,
    /// The transport it ran over.
    pub transport: TransportKind,
    /// The HTML object's outcome.
    pub html: ObjectAttackOutcome,
    /// Table II "all objects at a time" per position.
    pub sequence: Vec<bool>,
}

/// Runs one trial through web model, simulator, predictor and scoring,
/// each inside its own span under a `trial` span.
pub fn run_pipeline(
    mut opts: TrialOptions,
    transport: TransportKind,
    log: &mut SpanLog,
    id: u64,
    parent: Option<usize>,
) -> Scored {
    let root = log.begin("trial", id, parent);
    let under = root.index();
    if transport == TransportKind::Quic {
        if let Some(attack) = &mut opts.attack {
            attack.transport = TransportKind::Quic;
        }
    }
    let (iw, site) = log.span("web", id, under, || {
        // The survey permutation's independent stream, as in
        // `run_isidewith_trial_with`.
        let mut perm_rng = SimRng::new(
            opts.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
        );
        let iw = IsideWith::generate(&mut perm_rng);
        let defense = opts.defense;
        defense.configure(&mut opts.server, &mut opts.client);
        let site = defense.transform_site(&iw, opts.seed);
        (iw, site)
    });
    let result = log.span("netsim", id, under, || match transport {
        TransportKind::Tcp => run_site_trial(site, &opts),
        TransportKind::Quic => run_h3_site_trial(site, &opts),
    });
    let prediction = log.span("analysis", id, under, || {
        let map = SizeMap::isidewith();
        match transport {
            TransportKind::Tcp => result.predict(&map),
            TransportKind::Quic => result.predict_datagram(&map),
        }
    });
    let trial = IsideWithTrial {
        iw,
        result,
        prediction,
    };
    let (html, sequence) = log.span("score", id, under, || {
        (trial.html_outcome(), trial.sequence_success())
    });
    log.end(root);
    Scored {
        trial,
        transport,
        html,
        sequence,
    }
}

/// Digest of one attack trial: seed, event count, outcome, the HTML
/// verdict, the ranking verdicts and every prediction label.
pub fn trial_digest(seed: u64, s: &Scored) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write_u64(s.trial.result.sim_events);
    h.write(s.trial.result.outcome.label().as_bytes());
    h.write_u64(u64::from(s.html.identified) | u64::from(s.html.success) << 1);
    h.write_u64(s.html.best_degree.to_bits());
    for ok in &s.sequence {
        h.write_u64(u64::from(*ok));
    }
    for unit in &s.trial.prediction.units {
        h.write(unit.label.as_deref().unwrap_or("-").as_bytes());
        h.write_u8(b'|');
    }
    h.finish()
}

/// Counts read off the public result structs, summed over trials.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Simulator events dispatched.
    pub events: u64,
    /// Fault-layer drops over every faulted link.
    pub fault_drops: u64,
    /// TCP data segments first sent by both endpoints.
    pub tcp_segments: u64,
    /// TCP retransmissions (fast + timeout) on both endpoints.
    pub tcp_retransmits: u64,
    /// TCP retransmission timeouts on both endpoints.
    pub tcp_rto: u64,
    /// TLS records on the server→client stream.
    pub tls_records: u64,
    /// TLS padding bytes the server added.
    pub tls_pad_bytes: u64,
    /// H2 application-layer re-requests.
    pub h2_rerequests: u64,
    /// Dummy DATA cells the shaping layer sent.
    pub h2_dummy_cells: u64,
    /// QUIC datagrams sent by both endpoints.
    pub quic_datagrams: u64,
    /// QUIC probe timeouts on both endpoints.
    pub quic_pto: u64,
    /// Datagrams routed over the untapped second path.
    pub quic_split_alt: u64,
    /// Packets the attack policy delayed.
    pub attack_delayed: u64,
    /// Packets the attack policy dropped.
    pub attack_dropped: u64,
    /// Packet records in the adversary's capture.
    pub capture_records: u64,
    /// Transmission units the predictor considered.
    pub units: u64,
    /// Units it identified.
    pub units_identified: u64,
}

impl Counts {
    /// Adds one pipeline run.
    pub fn add(&mut self, s: &Scored) {
        let r = &s.trial.result;
        self.events += r.sim_events;
        self.fault_drops += r.fault_stats.iter().map(|f| f.dropped()).sum::<u64>();
        let segments = r.server_tcp.segments_sent + r.client_tcp.segments_sent;
        let timeouts = r.server_tcp.rto_events + r.client_tcp.rto_events;
        match s.transport {
            TransportKind::Tcp => {
                self.tcp_segments += segments;
                self.tcp_retransmits += r.total_retransmissions();
                self.tcp_rto += timeouts;
                self.tls_records += r.wire_map.spans().len() as u64;
                self.tls_pad_bytes += r.pad_overhead_bytes;
            }
            TransportKind::Quic => {
                self.quic_datagrams += segments;
                self.quic_pto += timeouts;
            }
        }
        self.h2_rerequests += r.client.h2_rerequests;
        self.h2_dummy_cells += r.dummy_cells_sent;
        self.quic_split_alt += r.split_alt_datagrams;
        self.attack_delayed += r.attack.packets_delayed;
        self.attack_dropped += r.attack.packets_dropped;
        self.capture_records += r.trace.len() as u64;
        let units = &s.trial.prediction.units;
        self.units += units.len() as u64;
        self.units_identified += units.iter().filter(|u| u.label.is_some()).count() as u64;
    }
}

/// What one round of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the whole round, ns.
    pub wall_ns: u64,
    /// Trials (cells) attempted.
    pub trials: u64,
    /// Trials that panicked.
    pub panicked: u64,
    /// Simulator events (attack workloads; campaigns learn theirs from
    /// the census).
    pub events: u64,
    /// Simulator events of the round's first [`PIN_TRIALS`] trials.
    pub pin_events: u64,
    /// Allocations made by the workload's calls.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Per-trial wall time, ns.
    pub trial_ns: Vec<u64>,
    /// Digest of every trial's results, `None` when a campaign could
    /// not be folded.
    pub digest: Option<u64>,
    /// Digest of the round's first [`PIN_TRIALS`] trials (attack
    /// workloads).
    pub pin_digest: Option<u64>,
    /// The folded report bytes (campaign workloads).
    pub report: Option<String>,
    /// Journal bytes written (campaign workloads).
    pub journal_bytes: u64,
    /// The replayed journal records, kept for the census.
    pub records: Vec<RecordEntry>,
}

/// Everything a run needs to drive one workload at one seed.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Base seed of the trial seeds.
    pub base: u64,
    /// The campaign (campaign workloads).
    pub spec: Option<CampaignSpec>,
    /// Where the campaign journal is written.
    pub journal: PathBuf,
}

impl Plan {
    /// The plan for `workload` at seed family `seed`.
    ///
    /// # Errors
    /// Rejects seeds whose family overflows.
    pub fn new(workload: Workload, seed: u64, out_dir: &Path) -> Result<Plan, String> {
        let base = family(seed)?;
        let spec = workload.campaign().map(|(name, trials)| {
            let mut spec = CampaignSpec::for_experiment(name, trials)
                .expect("campaign workloads name registered experiments");
            spec.base_seed = base;
            spec
        });
        Ok(Plan {
            workload,
            base,
            spec,
            journal: out_dir.join(format!("{}-{seed}.journal", workload.name())),
        })
    }

    /// Runs at least `n` untimed trials to fill thread-local pools: the
    /// first `n` trials of the reference seeds, or for a campaign the
    /// first cells of every batch. The reference seeds make set-up the
    /// same work at every `--seed`.
    pub fn warm_up(&self, n: u64) -> Result<(), String> {
        let at_reference = Plan::new(
            self.workload,
            self.workload.default_seed(),
            self.journal.parent().unwrap_or(Path::new(".")),
        )?;
        let mut log = SpanLog::new(false);
        match &at_reference.spec {
            None => {
                for t in 0..n.min(ATTACK_TRIALS) {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        at_reference.attack_trial(at_reference.base + t, &mut log, 0, None)
                    }));
                }
            }
            Some(spec) => {
                let batches = spec.batches.len() as u64;
                for b in 0..batches {
                    for t in 0..n.div_ceil(batches) {
                        let _ = catch_unwind(AssertUnwindSafe(|| spec.run_cell(b, t)));
                    }
                }
            }
        }
        Ok(())
    }

    fn attack_trial(&self, seed: u64, log: &mut SpanLog, id: u64, parent: Option<usize>) -> Scored {
        let opts = TrialOptions::new(seed, Some(AttackConfig::full_attack()));
        run_pipeline(opts, self.workload.transport(), log, id, parent)
    }

    /// Runs round `index`: the attack workload's `index`-th set of
    /// distinct trials (see [`ROUND_STRIDE`]), or every cell of the
    /// campaign, which is the same in every round. Trials (cells) run
    /// once each, in order. `observe` sees every attack trial (the traced
    /// run collects counts and replay inputs from it).
    ///
    /// # Errors
    /// Reports journal I/O failures.
    pub fn round(
        &self,
        index: u64,
        log: &mut SpanLog,
        next_id: &mut u64,
        observe: &mut dyn FnMut(u64, &Scored),
    ) -> Result<Round, String> {
        match &self.spec {
            None => Ok(self.attack_round(index, ATTACK_TRIALS, log, next_id, observe)),
            Some(spec) => self.campaign_round(spec, log, next_id),
        }
    }

    /// The smallest round a reference check covers: the pinned trials
    /// of an attack workload's round 0, the whole campaign otherwise.
    ///
    /// # Errors
    /// Reports journal I/O failures.
    pub fn check_round(&self) -> Result<Round, String> {
        let mut log = SpanLog::new(false);
        match &self.spec {
            None => Ok(self.attack_round(0, PIN_TRIALS, &mut log, &mut 0, &mut |_, _| {})),
            Some(spec) => self.campaign_round(spec, &mut log, &mut 0),
        }
    }

    fn attack_round(
        &self,
        index: u64,
        n: u64,
        log: &mut SpanLog,
        next_id: &mut u64,
        observe: &mut dyn FnMut(u64, &Scored),
    ) -> Round {
        let mut round = Round {
            trials: n,
            trial_ns: Vec::with_capacity(n as usize),
            ..Round::default()
        };
        let first = self.base + index * ROUND_STRIDE;
        let mut digest = FxHasher::default();
        let t0 = Instant::now();
        for t in 0..n {
            let seed = first + t;
            let id = *next_id;
            *next_id += 1;
            let a0 = alloc::thread_allocs();
            let b0 = alloc::thread_alloc_bytes();
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| self.attack_trial(seed, log, id, None)));
            let ns = start.elapsed().as_nanos() as u64;
            round.allocs += alloc::thread_allocs() - a0;
            round.alloc_bytes += alloc::thread_alloc_bytes() - b0;
            round.trial_ns.push(ns);
            match out {
                Ok(s) => {
                    round.events += s.trial.result.sim_events;
                    if t < PIN_TRIALS {
                        round.pin_events += s.trial.result.sim_events;
                    }
                    digest.write_u64(trial_digest(seed, &s));
                    observe(t, &s);
                }
                Err(_) => {
                    round.panicked += 1;
                    digest.write(b"panicked");
                }
            }
            if t + 1 == PIN_TRIALS {
                round.pin_digest = Some(digest.finish());
            }
        }
        round.wall_ns = t0.elapsed().as_nanos() as u64;
        round.digest = Some(digest.finish());
        round
    }

    fn campaign_round(
        &self,
        spec: &CampaignSpec,
        log: &mut SpanLog,
        next_id: &mut u64,
    ) -> Result<Round, String> {
        let io = |e: std::io::Error| format!("journal {}: {e}", self.journal.display());
        let total = spec.total_cells();
        let mut round = Round {
            trials: total,
            trial_ns: Vec::with_capacity(total as usize),
            ..Round::default()
        };
        let round_id = *next_id;
        let t0 = Instant::now();
        let a0 = alloc::thread_allocs();
        let b0 = alloc::thread_alloc_bytes();
        let mut journal =
            Journal::create(&self.journal, &stamp(&header_body(&spec.header_fields())))
                .map_err(io)?;
        for cell in 0..total {
            let (batch, trial) = spec.cell(cell);
            let id = *next_id;
            *next_id += 1;
            let start = Instant::now();
            let root = log.begin("cell", id, None);
            let under = root.index();
            let payload = log.span("campaign.run_cell", id, under, || {
                catch_unwind(AssertUnwindSafe(|| spec.run_cell(batch, trial)))
            });
            let written = match payload {
                Ok(payload) => {
                    let line = log.span("campaign.encode", id, under, || {
                        stamp(&record_body(cell, batch, trial, payload))
                    });
                    round.journal_bytes += line.len() as u64 + 1;
                    log.span("campaign.journal_write", id, under, || {
                        journal.append_line(&line)
                    })
                    .map_err(io)?;
                    true
                }
                Err(_) => false,
            };
            log.end(root);
            round.trial_ns.push(start.elapsed().as_nanos() as u64);
            round.panicked += u64::from(!written);
        }
        drop(journal);
        let root = log.begin("round", round_id, None);
        let replayed = log.span("campaign.replay", round_id, root.index(), || {
            journal::recover(&self.journal)
        });
        round.report = log.span("campaign.fold", round_id, root.index(), || {
            let records = replayed.as_ref().ok()?;
            let mut folder = spec.folder();
            for r in records.records.iter() {
                folder.push(r.batch, r.trial, &r.payload).ok()?;
            }
            folder.finish().ok()
        });
        log.end(root);
        round.allocs = alloc::thread_allocs() - a0;
        round.alloc_bytes = alloc::thread_alloc_bytes() - b0;
        round.wall_ns = t0.elapsed().as_nanos() as u64;
        round.digest = round.report.as_ref().map(|r| {
            let mut h = FxHasher::default();
            h.write(r.as_bytes());
            h.finish()
        });
        if let Ok(rec) = replayed {
            round.records = rec.records;
        }
        Ok(round)
    }

    /// Re-runs every cell of a campaign round through [`run_pipeline`]
    /// with the options its experiment uses, so the simulator's counts
    /// (which a cell's payload does not carry) can be read off the
    /// result structs. Each cell's replay is checked against the
    /// payload the round journaled for it. `observe` sees every
    /// pipeline run with its cell index and the cell's TLS pad block.
    ///
    /// # Errors
    /// Reports a cell whose replay disagrees with its journaled payload.
    pub fn census(
        &self,
        records: &[RecordEntry],
        log: &mut SpanLog,
        next_id: &mut u64,
        observe: &mut dyn FnMut(u64, Option<usize>, &Scored),
    ) -> Result<(), String> {
        let spec = self
            .spec
            .as_ref()
            .expect("census runs on campaign workloads");
        if records.len() as u64 != spec.total_cells() {
            return Err(format!(
                "census: {} journaled cells, expected {}",
                records.len(),
                spec.total_cells()
            ));
        }
        let batches = defense_matrix_batches();
        for r in records {
            let id = *next_id;
            *next_id += 1;
            let root = log.begin("census", id, None);
            let mismatch = match self.workload {
                Workload::DefenseMatrix => {
                    let b = batches[r.batch as usize];
                    // The seed layout of `defense_matrix_trial`.
                    let seed = spec.base_seed + 7_000_000 + r.batch * 10_000 + r.trial;
                    let mut opts = TrialOptions::new(seed, Some(defense_matrix_attack(b.attack)));
                    opts.defense = b.defense;
                    let s = run_pipeline(opts, b.transport_kind(), log, id, root.index());
                    let pad = match (b.defense, b.transport_kind()) {
                        (Defense::RecordPadding { block }, TransportKind::Tcp) => Some(block),
                        _ => None,
                    };
                    observe(r.cell, pad, &s);
                    let c = &s.trial.result.client;
                    let page_ns = match (c.page_started_at, c.page_completed_at) {
                        (Some(a), Some(z)) => z.as_nanos().saturating_sub(a.as_nanos()),
                        _ => 0,
                    };
                    let completed = s.trial.result.outcome == TrialOutcome::Completed;
                    (field_u64(&r.payload, "page_ns") != Some(page_ns)
                        || field_bool(&r.payload, "completed") != Some(completed)
                        || field_bool(&r.payload, "success") != Some(s.html.success))
                    .then_some("page_ns/completed/success")
                }
                Workload::RobustnessSweep => {
                    let intensity = ROBUSTNESS_INTENSITIES[r.batch as usize];
                    // The seed layout and retry policy of `robustness_trial`.
                    let seed = spec.base_seed + 5_000_000 + r.batch * 10_000 + r.trial;
                    let mut attempt = 0u32;
                    let s = loop {
                        let mut opts = TrialOptions::new(
                            derive_retry_seed(seed, attempt),
                            Some(AttackConfig::full_attack()),
                        );
                        opts.faults = robustness_fault_plan(intensity);
                        opts.fail_fast = true;
                        opts.stall_window = SimDuration::from_secs(15);
                        let s = run_pipeline(opts, TransportKind::Tcp, log, id, root.index());
                        observe(r.cell, None, &s);
                        if !s.trial.result.outcome.is_degraded() || attempt == 1 {
                            break s;
                        }
                        attempt += 1;
                    };
                    let retries = u64::from(attempt);
                    let res = &s.trial.result;
                    let drops = res.fault_stats.iter().map(|f| f.dropped()).sum::<u64>();
                    (field_u64(&r.payload, "retries") != Some(retries)
                        || field_u64(&r.payload, "retrans") != Some(res.total_retransmissions())
                        || field_u64(&r.payload, "fault_drops") != Some(drops))
                    .then_some("retries/retrans/fault_drops")
                }
                _ => unreachable!("census runs on campaign workloads"),
            };
            log.end(root);
            if let Some(fields) = mismatch {
                return Err(format!(
                    "census: cell {} ({}, {}) replays with different {fields} than its journaled payload",
                    r.cell, r.batch, r.trial
                ));
            }
        }
        Ok(())
    }
}

fn field_u64(p: &Json, k: &str) -> Option<u64> {
    p.get(k).and_then(Json::as_u64)
}

fn field_bool(p: &Json, k: &str) -> Option<bool> {
    p.get(k).and_then(Json::as_bool)
}

/// What a workload's results must match.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// An attack workload's default-seed round: the summed event count
    /// of its first [`PIN_TRIALS`] trials (the seed-stability pin) and
    /// the digest of all its trials.
    Attack {
        /// Summed `sim_events` of the pinned trials.
        events_total: u64,
        /// Digest of the pinned trials.
        pin_digest: u64,
        /// Digest of the whole round.
        digest: u64,
    },
    /// A campaign's committed report bytes.
    Report(String),
}

impl Reference {
    /// Loads the workload's reference from the checkout.
    ///
    /// # Errors
    /// Reports missing or malformed reference files.
    pub fn load(workload: Workload, root: &Path) -> Result<Reference, String> {
        let read = |p: PathBuf| {
            std::fs::read_to_string(&p).map_err(|e| format!("reference {}: {e}", p.display()))
        };
        match workload.campaign() {
            Some((name, _)) => Ok(Reference::Report(read(
                root.join("results").join(format!("{name}.json")),
            )?)),
            None => {
                let path = root.join("trialbench/references/attack.json");
                let json = Json::parse(&read(path.clone())?)
                    .map_err(|e| format!("reference {}: {e}", path.display()))?;
                let entry = json.get(workload.name()).ok_or_else(|| {
                    format!("reference {} has no {}", path.display(), workload.name())
                })?;
                let events_total = field_u64(entry, "events_total");
                let hex = |k: &str| {
                    entry
                        .get(k)
                        .and_then(Json::as_str)
                        .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                };
                match (events_total, hex("pin_digest"), hex("digest")) {
                    (Some(events_total), Some(pin_digest), Some(digest)) => Ok(Reference::Attack {
                        events_total,
                        pin_digest,
                        digest,
                    }),
                    _ => Err(format!(
                        "reference {}: {} needs events_total and hex pin_digest and digest",
                        path.display(),
                        workload.name()
                    )),
                }
            }
        }
    }

    /// Checks a round against the reference; `Err` says what differs.
    pub fn check(&self, round: &Round) -> Result<(), String> {
        match self {
            Reference::Attack {
                events_total,
                pin_digest,
                digest,
            } => {
                if round.pin_events != *events_total {
                    return Err(format!(
                        "events_total {} of the first {PIN_TRIALS} trials != pinned {events_total}",
                        round.pin_events
                    ));
                }
                let hex = |d: Option<u64>| d.map_or("none".to_string(), |d| format!("{d:#018x}"));
                if round.pin_digest != Some(*pin_digest) {
                    return Err(format!(
                        "digest of the first {PIN_TRIALS} trials {} != reference {pin_digest:#018x}",
                        hex(round.pin_digest)
                    ));
                }
                if round.trials == ATTACK_TRIALS && round.digest != Some(*digest) {
                    return Err(format!(
                        "digest {} != reference {digest:#018x}",
                        hex(round.digest)
                    ));
                }
                Ok(())
            }
            Reference::Report(bytes) => match &round.report {
                Some(r) if r == bytes => Ok(()),
                Some(r) => Err(format!(
                    "folded report ({} bytes) differs from the committed one ({} bytes){}",
                    r.len(),
                    bytes.len(),
                    first_difference(r, bytes)
                )),
                None => Err("campaign round could not be folded".to_string()),
            },
        }
    }
}

fn first_difference(a: &str, b: &str) -> String {
    a.lines()
        .zip(b.lines())
        .enumerate()
        .find(|(_, (x, y))| x != y)
        .map_or(String::new(), |(i, (x, y))| {
            format!(
                ": line {} reads {:?}, expected {:?}",
                i + 1,
                x.trim(),
                y.trim()
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_core::experiment::{run_isidewith_h3_trial, run_isidewith_trial};

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    #[test]
    fn pipeline_matches_the_library_composition() {
        let mut log = SpanLog::new(false);
        for seed in [91_000, 91_007] {
            let attack = Some(AttackConfig::full_attack());
            let lib = run_isidewith_trial(seed, attack.clone());
            let ours = run_pipeline(
                TrialOptions::new(seed, attack.clone()),
                TransportKind::Tcp,
                &mut log,
                0,
                None,
            );
            assert_eq!(ours.trial.result.sim_events, lib.result.sim_events);
            assert_eq!(ours.trial.prediction.labels(), lib.prediction.labels());
            assert_eq!(ours.sequence, lib.sequence_success());

            let lib = run_isidewith_h3_trial(seed, attack.clone());
            let ours = run_pipeline(
                TrialOptions::new(seed, attack),
                TransportKind::Quic,
                &mut log,
                0,
                None,
            );
            assert_eq!(ours.trial.result.sim_events, lib.result.sim_events);
            assert_eq!(ours.trial.prediction.labels(), lib.prediction.labels());
        }
    }

    #[test]
    fn attack_references_carry_the_seed_stability_pins() {
        // The events_total values must be the ones pinned for seeds
        // 91_000..91_100 in crates/core/tests/seed_stability.rs.
        let pins = std::fs::read_to_string(root().join("crates/core/tests/seed_stability.rs"))
            .expect("seed_stability.rs is in the checkout");
        let pins = pins.replace('_', "");
        for w in [Workload::H2Attack, Workload::H3Attack] {
            let Reference::Attack { events_total, .. } = Reference::load(w, &root()).unwrap()
            else {
                panic!("attack workloads have attack references");
            };
            assert!(
                pins.contains(&format!("(h{}fullattack, {events_total},", &w.name()[1..2])),
                "{} pin {events_total} not found in seed_stability.rs",
                w.name()
            );
        }
    }

    #[test]
    fn a_panicking_cell_is_counted_and_fails_the_fold() {
        // One trial per intensity, plus a seventh batch with no intensity
        // behind it: its cell panics inside `run_cell` (index out of
        // range). The round survives, accounts for every cell, and the
        // incomplete campaign does not fold.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-panic");
        std::fs::create_dir_all(&dir).unwrap();
        let mut plan = Plan::new(Workload::RobustnessSweep, 81, &dir).unwrap();
        let spec = plan.spec.as_mut().unwrap();
        for b in &mut spec.batches {
            b.trials = 1;
        }
        spec.trials = 1;
        spec.batches.push(h2priv_core::campaign::BatchSpec {
            label: "no_such_intensity".to_string(),
            trials: 1,
        });
        let mut log = SpanLog::new(false);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let round = plan.round(0, &mut log, &mut 0, &mut |_, _| {});
        std::panic::set_hook(prev);
        std::fs::remove_dir_all(&dir).ok();
        let round = round.expect("journal I/O works");
        assert_eq!(round.trials, 7);
        assert_eq!(round.panicked, 1);
        assert_eq!(round.trial_ns.len(), 7);
        assert_eq!(round.records.len(), 6, "the six good cells were journaled");
        assert_eq!(round.report, None, "an incomplete campaign does not fold");
        assert!(Reference::Report(String::new()).check(&round).is_err());
    }

    #[test]
    fn seed_families_are_disjoint_and_bounded() {
        assert_eq!(family(91).unwrap(), 91_000);
        assert!(family(u64::MAX / 10).is_err());
    }

    #[test]
    fn attack_rounds_run_distinct_trials_and_repeat_exactly() {
        let plan = Plan::new(Workload::H3Attack, 91, Path::new(".")).unwrap();
        let mut log = SpanLog::new(false);
        let mut run = |index| plan.attack_round(index, 3, &mut log, &mut 0, &mut |_, _| {});
        let (first, second, again) = (run(0), run(1), run(0));
        assert_ne!(first.digest, second.digest);
        assert_eq!(first.digest, again.digest);
        assert_eq!(first.events, again.events);
    }
}
