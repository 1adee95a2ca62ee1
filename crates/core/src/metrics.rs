//! Privacy metrics — most importantly the paper's **degree of
//! multiplexing** (Section II-A):
//!
//! > "the fraction of bytes of the object that is interleaved with those
//! > of another object within the same TCP stream."
//!
//! Computed from ground truth (the server's TLS [`WireMap`]): a byte of a
//! transmission entity (an *(object, copy)* pair — re-served copies count
//! as distinct entities, per the paper's treatment of "retransmitted
//! versions") is interleaved if it falls strictly inside another entity's
//! transmission window in TCP stream-offset space. Stream offsets are
//! used because TCP delivers bytes in offset order regardless of
//! wire-level retransmissions.
//!
//! The paper declares an attack on an object successful when its degree
//! of multiplexing reaches **zero** and the object is identified from the
//! trace; [`ObjectMux::best`] reports the copy that came closest.

use h2priv_tls::WireMap;
use h2priv_util::fxhash::FxHashMap;
use h2priv_util::impl_to_json;
use h2priv_web::ObjectId;

/// Measurement tolerance below which a transmission counts as fully
/// serialized ("degree of multiplexing brought down to 0%" in the
/// paper): tiny residual overlaps (a final ACK-straggler chunk of a
/// neighbouring object) are within the noise of the paper's own
/// packet-level measurement.
pub const SERIAL_EPSILON: f64 = 0.02;

/// `true` if a degree-of-multiplexing value counts as serialized.
pub fn is_serialized(degree: f64) -> bool {
    degree <= SERIAL_EPSILON
}

/// A transmission entity: one served copy of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntityId {
    /// The object.
    pub object: ObjectId,
    /// The served copy (0 = first).
    pub copy: u16,
}

impl_to_json!(struct EntityId { object, copy });

/// One entity's extent on the wire.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Identity.
    pub id: EntityId,
    /// First data byte offset.
    pub start: u64,
    /// One past the last data byte offset.
    pub end: u64,
    /// Total data bytes.
    pub bytes: u64,
}

impl_to_json!(struct Entity { id, start, end, bytes });

/// All transmission entities in a wire map, in first-byte order.
pub fn entities(map: &WireMap) -> Vec<Entity> {
    let mut index: FxHashMap<(u32, u16), usize> = FxHashMap::default();
    let mut v: Vec<Entity> = Vec::new();
    for span in map.spans().iter().filter(|s| s.tag.is_object_data()) {
        let key = (span.tag.object_id, span.tag.copy);
        let i = *index.entry(key).or_insert_with(|| {
            v.push(Entity {
                id: EntityId {
                    object: ObjectId(span.tag.object_id),
                    copy: span.tag.copy,
                },
                start: span.start,
                end: span.end,
                bytes: 0,
            });
            v.len() - 1
        });
        let e = &mut v[i];
        e.start = e.start.min(span.start);
        e.end = e.end.max(span.end);
        e.bytes += span.len();
    }
    v.sort_by_key(|e| e.start);
    v
}

/// Degree of multiplexing of `target` against the other entities of
/// `all` (the entities of `map`), in `[0, 1]`; `None` if the entity
/// sent no bytes. `clips` is scratch space for the interval merge.
fn entity_degree(
    map: &WireMap,
    all: &[Entity],
    target: &Entity,
    clips: &mut Vec<(u64, u64)>,
) -> Option<f64> {
    if target.bytes == 0 {
        return None;
    }
    let mut interleaved = 0u64;
    let spans = map.spans().iter().filter(|s| {
        s.tag.is_object_data()
            && s.tag.object_id == target.id.object.0
            && s.tag.copy == target.id.copy
    });
    for span in spans {
        let windows = all
            .iter()
            .filter(|o| o.id != target.id)
            .map(|o| (o.start, o.end));
        interleaved += covered_len(span.start, span.end, windows, clips);
    }
    Some(interleaved as f64 / target.bytes as f64)
}

/// Bytes of `[s, e)` covered by the union of `windows`; `clips` is
/// scratch space reused across calls.
fn covered_len(
    s: u64,
    e: u64,
    windows: impl Iterator<Item = (u64, u64)>,
    clips: &mut Vec<(u64, u64)>,
) -> u64 {
    // Merge the clipped windows, then sum.
    clips.clear();
    clips.extend(windows.filter_map(|(ws, we)| {
        let lo = ws.max(s);
        let hi = we.min(e);
        (lo < hi).then_some((lo, hi))
    }));
    clips.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in clips.iter() {
        match cur.as_mut() {
            Some((_, ce)) if lo <= *ce => *ce = (*ce).max(hi),
            _ => {
                if let Some((cs, ce)) = cur.take() {
                    total += ce - cs;
                }
                cur = Some((lo, hi));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Scores the degree of multiplexing of several objects over one wire
/// map. The entity set is built at most once, and only when a scored
/// object has data on the wire; the interval-merge buffer is reused
/// across objects.
#[derive(Debug)]
pub(crate) struct MuxScorer<'a> {
    map: &'a WireMap,
    entities: Option<Vec<Entity>>,
    clips: Vec<(u64, u64)>,
}

impl<'a> MuxScorer<'a> {
    /// A scorer over `map`.
    pub(crate) fn new(map: &'a WireMap) -> MuxScorer<'a> {
        MuxScorer {
            map,
            entities: None,
            clips: Vec::new(),
        }
    }

    /// Degree of multiplexing for every served copy of `object`, in
    /// copy order (see [`degree_of_multiplexing`]).
    pub(crate) fn degree(&mut self, object: ObjectId) -> ObjectMux {
        let mut per_copy = Vec::new();
        self.for_each_copy(object, |copy, d| per_copy.push((copy, d)));
        per_copy.sort_unstable_by_key(|&(copy, _)| copy);
        ObjectMux { object, per_copy }
    }

    /// The lowest degree over `object`'s served copies — what
    /// [`ObjectMux::best`] reports — without building the per-copy list.
    pub(crate) fn best_degree(&mut self, object: ObjectId) -> Option<f64> {
        let mut best: Option<f64> = None;
        self.for_each_copy(object, |_, d| {
            if best.is_none_or(|b| d.total_cmp(&b).is_lt()) {
                best = Some(d);
            }
        });
        best
    }

    fn for_each_copy(&mut self, object: ObjectId, mut f: impl FnMut(u16, f64)) {
        let served = self
            .map
            .spans()
            .iter()
            .any(|s| s.tag.is_object_data() && s.tag.object_id == object.0);
        if !served {
            return;
        }
        let map = self.map;
        let all = self.entities.get_or_insert_with(|| entities(map));
        for target in all.iter().filter(|e| e.id.object == object) {
            if let Some(d) = entity_degree(map, all, target, &mut self.clips) {
                f(target.id.copy, d);
            }
        }
    }
}

/// Per-object multiplexing summary across all served copies.
#[derive(Debug, Clone)]
pub struct ObjectMux {
    /// The object.
    pub object: ObjectId,
    /// Degree of multiplexing per copy, indexed by copy number where
    /// served (missing copies sent no data).
    pub per_copy: Vec<(u16, f64)>,
}

impl_to_json!(struct ObjectMux { object, per_copy });

impl ObjectMux {
    /// The copy with the lowest degree (the adversary only needs *one*
    /// serialized copy). `None` if no copy sent data. Uses a total order
    /// so a NaN degree (a degenerate zero-span unit injected by hand or
    /// by a defense transformation) ranks above every finite value
    /// instead of panicking mid-experiment.
    pub fn best(&self) -> Option<(u16, f64)> {
        self.per_copy
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// `true` if some copy transmitted essentially serialized (degree
    /// within [`SERIAL_EPSILON`] of zero).
    pub fn any_copy_serialized(&self) -> bool {
        self.per_copy.iter().any(|(_, d)| is_serialized(*d))
    }
}

/// Degree of multiplexing for every served copy of `object`.
pub fn degree_of_multiplexing(map: &WireMap, object: ObjectId) -> ObjectMux {
    MuxScorer::new(map).degree(object)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tls::{RecordTag, TrafficClass, WireSpan as Span};

    fn tag(obj: u32, copy: u16) -> RecordTag {
        RecordTag {
            stream_id: 1,
            object_id: obj,
            copy,
            class: TrafficClass::ObjectData,
        }
    }

    fn map(spans: &[(u64, u64, u32, u16)]) -> WireMap {
        let mut m = WireMap::new();
        for &(s, e, o, c) in spans {
            m.push(Span {
                start: s,
                end: e,
                tag: tag(o, c),
            });
        }
        m
    }

    #[test]
    fn serial_transfer_has_zero_degree() {
        let m = map(&[(0, 100, 1, 0), (100, 250, 2, 0)]);
        let d1 = degree_of_multiplexing(&m, ObjectId(1));
        let d2 = degree_of_multiplexing(&m, ObjectId(2));
        assert_eq!(d1.best(), Some((0, 0.0)));
        assert_eq!(d2.best(), Some((0, 0.0)));
        assert!(d1.any_copy_serialized());
    }

    #[test]
    fn perfect_interleaving_is_fully_multiplexed() {
        // O1 and O2 alternate 10-byte spans across [0, 200).
        let mut spans = vec![];
        for i in 0..10u64 {
            spans.push((i * 20, i * 20 + 10, 1, 0));
            spans.push((i * 20 + 10, i * 20 + 20, 2, 0));
        }
        let m = map(&spans);
        let d1 = degree_of_multiplexing(&m, ObjectId(1)).best().unwrap().1;
        // O2's window is [10, 200): all of O1 except its first 10 bytes
        // lies inside it.
        assert!((d1 - 0.9).abs() < 1e-9, "d1 = {d1}");
        let d2 = degree_of_multiplexing(&m, ObjectId(2)).best().unwrap().1;
        assert!((d2 - 0.9).abs() < 1e-9, "d2 = {d2}");
    }

    #[test]
    fn partially_overlapping_tail() {
        // O1 occupies [0, 100); O2 occupies [80, 180).
        let m = map(&[
            (0, 80, 1, 0),
            (80, 90, 2, 0),
            (90, 100, 1, 0),
            (100, 180, 2, 0),
        ]);
        // O1's bytes inside O2's window [80, 180): the [90, 100) span —
        // 10 of O1's 90 bytes.
        let d1 = degree_of_multiplexing(&m, ObjectId(1)).best().unwrap().1;
        assert!((d1 - 1.0 / 9.0).abs() < 1e-9, "d1 = {d1}");
    }

    #[test]
    fn copies_are_distinct_entities() {
        // Copy 0 of O1 interleaves with copy 1 of O1 (the paper's
        // retransmitted-version pathology).
        let m = map(&[(0, 50, 1, 0), (50, 100, 1, 1), (100, 150, 1, 0)]);
        let mux = degree_of_multiplexing(&m, ObjectId(1));
        assert_eq!(mux.per_copy.len(), 2);
        // Copy 0's window [0,150) contains all of copy 1.
        let d_copy1 = mux.per_copy.iter().find(|(c, _)| *c == 1).unwrap().1;
        assert_eq!(d_copy1, 1.0);
        // Copy 1's window [50,100) covers copy 0's bytes in [50,100): none
        // (copy 0 has no bytes there) -> only spans outside.
        let d_copy0 = mux.per_copy.iter().find(|(c, _)| *c == 0).unwrap().1;
        assert_eq!(d_copy0, 0.0);
        assert!(mux.any_copy_serialized());
    }

    #[test]
    fn no_data_yields_empty() {
        let m = WireMap::new();
        let mux = degree_of_multiplexing(&m, ObjectId(9));
        assert!(mux.per_copy.is_empty());
        assert_eq!(mux.best(), None);
        assert!(!mux.any_copy_serialized());
    }

    #[test]
    fn nan_degree_does_not_panic_best() {
        // A degenerate unit can surface a NaN degree (e.g. hand-built
        // zero-span entities in analysis tooling). `best` must stay
        // total: finite degrees win, an all-NaN list still returns.
        let mux = ObjectMux {
            object: ObjectId(1),
            per_copy: vec![(0, f64::NAN), (1, 0.25)],
        };
        assert_eq!(mux.best(), Some((1, 0.25)));
        let all_nan = ObjectMux {
            object: ObjectId(2),
            per_copy: vec![(0, f64::NAN)],
        };
        let best = all_nan.best().expect("one copy present");
        assert_eq!(best.0, 0);
        assert!(best.1.is_nan());
    }

    #[test]
    fn zero_span_entity_yields_no_degree() {
        // A zero-length span contributes zero bytes; the entity is
        // reported as "no data" (None), never as a NaN degree.
        let m = map(&[(10, 10, 1, 0)]);
        assert_eq!(degree_of_multiplexing(&m, ObjectId(1)).best(), None);
    }

    #[test]
    fn covered_len_merges_overlaps() {
        let covered = |s, e, windows: &[(u64, u64)]| {
            covered_len(s, e, windows.iter().copied(), &mut Vec::new())
        };
        assert_eq!(covered(0, 100, &[(10, 30), (20, 50), (90, 200)]), 50);
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(50, 60, &[(0, 100)]), 10);
    }

    #[test]
    fn scorer_matches_per_object_degree() {
        let m = map(&[
            (0, 50, 1, 0),
            (50, 100, 1, 1),
            (100, 150, 1, 0),
            (150, 200, 2, 0),
            (200, 210, 3, 0),
            (210, 230, 2, 0),
        ]);
        let mut scorer = MuxScorer::new(&m);
        for object in [ObjectId(1), ObjectId(2), ObjectId(3), ObjectId(9)] {
            let fresh = degree_of_multiplexing(&m, object);
            let scored = scorer.degree(object);
            assert_eq!(scored.per_copy, fresh.per_copy, "{object:?}");
            assert_eq!(scorer.best_degree(object), fresh.best().map(|(_, d)| d));
        }
    }
}
