//! Campaign-level experiment enumeration: the bridge between an
//! experiment's `(batch, trial)` space and the sharded out-of-process
//! runner in `h2priv-campaign`.
//!
//! A [`CampaignSpec`] names a registered experiment, fixes its trial
//! budget and base seed, and enumerates its cells — one `(batch, trial)`
//! pair per trial, globally ordered batch-major. Worker processes are
//! handed half-open cell ranges of that enumeration
//! ([`CampaignSpec::cell`] maps a global index back to its pair), run
//! each cell as a pure function of the spec ([`CampaignSpec::run_cell`]),
//! and emit the result as the experiment's exact [`Cell`] payload —
//! floats travel as their bit patterns, so a journal round-trip cannot
//! perturb a single bit.
//!
//! The [`CampaignFolder`] consumes payloads strictly in `(batch,
//! trial)` order and reproduces, through the *same* per-batch fold the
//! in-process run uses, the exact report bytes a single-process run
//! writes. Memory is bounded by one open batch plus the finished rows.
//!
//! [`Cell`]: crate::experiments::Cell

pub use crate::experiments::BatchSpec;
use crate::experiments::{find, Fold, Registered};
use h2priv_util::json::Json;

/// A fully-specified campaign: experiment, seed, and cell enumeration.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The experiment.
    pub experiment: &'static dyn Registered,
    /// Trials per batch.
    pub trials: u64,
    /// The experiment's base seed (fixed per experiment so campaign
    /// output is comparable with the in-process run).
    pub base_seed: u64,
    /// The batches, in sweep order.
    pub batches: Vec<BatchSpec>,
}

impl CampaignSpec {
    /// Builds the spec for a registered experiment, or `None` for an
    /// unknown name.
    pub fn for_experiment(name: &str, trials: u64) -> Option<CampaignSpec> {
        let experiment = find(name)?;
        Some(CampaignSpec {
            experiment,
            trials,
            base_seed: experiment.base_seed(),
            batches: experiment.batches(trials),
        })
    }

    /// Total cells in the campaign.
    pub fn total_cells(&self) -> u64 {
        self.batches.iter().map(|b| b.trials).sum()
    }

    /// Maps a global cell index to its `(batch, trial)` pair.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn cell(&self, index: u64) -> (u64, u64) {
        let mut remaining = index;
        for (bi, b) in self.batches.iter().enumerate() {
            if remaining < b.trials {
                return (bi as u64, remaining);
            }
            remaining -= b.trials;
        }
        panic!(
            "cell index {index} out of range ({} cells)",
            self.total_cells()
        );
    }

    /// Maps a `(batch, trial)` pair back to its global cell index.
    ///
    /// # Panics
    /// Panics when the pair is out of range.
    pub fn index(&self, batch: u64, trial: u64) -> u64 {
        assert!(
            (batch as usize) < self.batches.len() && trial < self.batches[batch as usize].trials,
            "cell ({batch}, {trial}) out of range"
        );
        self.batches[..batch as usize]
            .iter()
            .map(|b| b.trials)
            .sum::<u64>()
            + trial
    }

    /// Runs one cell and returns its journal payload.
    pub fn run_cell(&self, batch: u64, trial: u64) -> Json {
        self.experiment
            .run_cell(self.base_seed, batch as usize, trial)
    }

    /// The identity fields a journal header must match for `--resume`
    /// to accept it.
    pub fn header_fields(&self) -> Vec<(String, Json)> {
        vec![
            (
                "experiment".to_string(),
                Json::Str(self.experiment.name().to_string()),
            ),
            ("trials".to_string(), Json::UInt(self.trials)),
            ("base_seed".to_string(), Json::UInt(self.base_seed)),
            ("cells".to_string(), Json::UInt(self.total_cells())),
        ]
    }

    /// A fresh incremental folder for this campaign.
    pub fn folder(&self) -> CampaignFolder {
        CampaignFolder {
            spec: self.clone(),
            next: 0,
            fold: self.experiment.folder(),
        }
    }
}

/// Incremental, order-checked fold of campaign cell payloads into the
/// experiment's final report bytes.
///
/// [`CampaignFolder::push`] must be fed every cell exactly once in
/// global cell order; any gap, duplicate, or reordering is an error —
/// this is the integrity check that makes journal replay trustworthy.
pub struct CampaignFolder {
    spec: CampaignSpec,
    next: u64,
    fold: Box<dyn Fold>,
}

impl CampaignFolder {
    /// The global index of the next cell this folder expects.
    pub fn next_cell(&self) -> u64 {
        self.next
    }

    /// Folds in the payload of cell `(batch, trial)`.
    ///
    /// # Errors
    /// Rejects out-of-order cells and malformed payloads.
    pub fn push(&mut self, batch: u64, trial: u64, payload: &Json) -> Result<(), String> {
        let expect = self.spec.cell(self.next);
        if (batch, trial) != expect {
            return Err(format!(
                "cell out of order: got ({batch}, {trial}), expected ({}, {})",
                expect.0, expect.1
            ));
        }
        self.fold.push(payload)?;
        self.next += 1;
        // Batch boundary (or end of campaign): fold the finished batch.
        if self.next >= self.spec.total_cells() || self.spec.cell(self.next).0 != batch {
            self.fold.close(batch as usize);
        }
        Ok(())
    }

    /// Finishes the fold and renders the report bytes.
    ///
    /// # Errors
    /// Rejects an incomplete campaign (missing cells).
    pub fn finish(self) -> Result<String, String> {
        let total = self.spec.total_cells();
        if self.next != total {
            return Err(format!(
                "campaign incomplete: {} of {total} cells folded",
                self.next
            ));
        }
        Ok(self.fold.finish().report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        AblationCell, BaselineCell, Cell, DefenseCell, DropCell, Fig1Cell, Fig2Cell, Fig5Cell,
        RobustCell, Table1Cell, Table2Cell, TransferCell, REGISTRY,
    };

    #[test]
    fn cell_index_roundtrip() {
        let spec = CampaignSpec::for_experiment("robustness_sweep", 3).unwrap();
        assert_eq!(spec.total_cells(), 18);
        for i in 0..spec.total_cells() {
            let (b, t) = spec.cell(i);
            assert_eq!(spec.index(b, t), i);
        }
        assert_eq!(spec.cell(0), (0, 0));
        assert_eq!(spec.cell(3), (1, 0));
        assert_eq!(spec.cell(17), (5, 2));
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(CampaignSpec::for_experiment("nope", 5).is_none());
    }

    #[test]
    fn registry_names_are_unique_and_resolve() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(REGISTRY[..i].iter().all(|o| o.name() != e.name()));
            let spec = CampaignSpec::for_experiment(e.name(), 3).unwrap();
            assert_eq!(spec.base_seed, e.base_seed());
            assert!(spec.total_cells() > 0, "{}", e.name());
        }
    }

    #[test]
    fn folder_rejects_out_of_order_and_duplicate_cells() {
        let spec = CampaignSpec::for_experiment("table1", 2).unwrap();
        let mut folder = spec.folder();
        let p = spec.run_cell(0, 0);
        folder.push(0, 0, &p).unwrap();
        let err = folder.push(0, 0, &p).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        let err = folder.push(1, 1, &p).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn folder_rejects_incomplete_campaign() {
        let spec = CampaignSpec::for_experiment("table1", 1).unwrap();
        let mut folder = spec.folder();
        folder.push(0, 0, &spec.run_cell(0, 0)).unwrap();
        let err = folder.finish().unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn folder_rejects_a_malformed_payload() {
        let spec = CampaignSpec::for_experiment("robustness_sweep", 1).unwrap();
        let mut folder = spec.folder();
        let mut p = spec.run_cell(0, 0);
        if let Json::Obj(fields) = &mut p {
            fields.retain(|(k, _)| k != "retrans");
        }
        let err = folder.push(0, 0, &p).unwrap_err();
        assert!(err.contains("\"retrans\""), "{err}");
    }

    /// A cell, through compact JSON text (the journal's storage form) and
    /// back, must reproduce itself exactly.
    fn check<C: Cell + PartialEq + std::fmt::Debug>(c: C) {
        let text = c.encode().to_string_compact();
        let back = C::decode(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c, "{text}");
        assert_eq!(back.encode().to_string_compact(), text);
    }

    /// Every cell codec round-trips exactly — including the float-carrying
    /// cells, whose values travel as bit patterns.
    #[test]
    fn payload_roundtrip_is_exact() {
        let gap = 1.234_567_890_123_456_7e-3;
        check(Table1Cell {
            serialized: true,
            retrans: 1234,
            rerequests: 3,
        });
        check(Fig5Cell {
            success: true,
            broken: false,
            retrans: u64::MAX,
        });
        check(DropCell {
            success: false,
            reset: true,
            broken: true,
        });
        check(Table2Cell {
            single: [true; 9],
            sequence: [false, true, false, true, false, true, false, true, false],
            gaps: [
                None,
                Some(gap),
                Some(0.1 + 0.2),
                None,
                Some(f64::MAX),
                None,
                None,
                None,
                Some(0.0),
            ],
        });
        check(BaselineCell {
            degrees: [
                Some(1.0 / 3.0),
                None,
                Some(0.0),
                Some(f64::MIN_POSITIVE),
                None,
                None,
                None,
                None,
                Some(0.98),
            ],
        });
        check(Fig1Cell {
            estimates: vec![16_700, 9_512, 7_190],
            both_identified: true,
        });
        check(Fig2Cell {
            degree: Some(2.0 / 7.0),
        });
        check(Fig2Cell { degree: None });
        check(RobustCell {
            outcome: 2,
            retries: 1,
            serialized: true,
            identified: false,
            success: false,
            retrans: 1234,
            fault_drops: 9,
        });
        check(TransferCell {
            serialized: true,
            identified: true,
            success: true,
            full_ranking: false,
            broken: false,
            retrans: 17,
        });
        check(AblationCell {
            serialized: false,
            rerequests: 4,
            copies: 2,
        });
    }

    #[test]
    fn defense_payload_roundtrip_is_exact() {
        check(DefenseCell {
            completed: true,
            serialized: true,
            identified: false,
            success: false,
            full_ranking: false,
            wire_bytes: 1_234_567,
            page_ns: 16_000_000_000,
        });
    }

    #[test]
    fn defense_matrix_spec_enumerates_all_cells_none_first() {
        let spec = CampaignSpec::for_experiment("defense_matrix", 2).unwrap();
        // 2 attacks x (5 H2 defenses + 5 H3 defenses) = 20 batches.
        assert_eq!(spec.batches.len(), 20);
        assert_eq!(spec.total_cells(), 40);
        for i in 0..spec.total_cells() {
            let (b, t) = spec.cell(i);
            assert_eq!(spec.index(b, t), i);
        }
        // The undefended cell leads every (attack, transport) group so
        // the streaming folder always sees its overhead baseline first.
        for group in spec.batches.chunks(5) {
            assert!(group[0].label.ends_with("/none"), "{}", group[0].label);
            let prefix = |l: &str| l.rsplit_once('/').unwrap().0.to_string();
            let head = prefix(&group[0].label);
            for b in group {
                assert_eq!(prefix(&b.label), head);
            }
        }
    }
}
