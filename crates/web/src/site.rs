//! Sites: object inventories plus dependency-driven request plans.

use crate::object::{ObjectId, WebObject};
use h2priv_netsim::time::SimDuration;
use h2priv_util::fxhash::FxHashMap;
use h2priv_util::impl_to_json;
use h2priv_util::json::{Json, ToJson};

/// What causes the browser to issue an object's GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// `gap` after page-load start (navigation).
    AtStart {
        /// Delay from page-load start.
        gap: SimDuration,
    },
    /// `gap` after the GET for `prev` was issued (browser request
    /// pipeline; this is what the paper's Table II inter-request gaps
    /// measure).
    AfterRequest {
        /// The preceding request.
        prev: ObjectId,
        /// Gap between the two GETs.
        gap: SimDuration,
    },
    /// `gap` after the first response bytes of `parent` arrived
    /// (preload-scanner discovery).
    AfterFirstByte {
        /// The object whose first bytes reveal this one.
        parent: ObjectId,
        /// Delay after the first byte.
        gap: SimDuration,
    },
    /// `gap` after `parent` finished downloading (script execution — the
    /// isidewith result page's JS requests the 8 emblem images this way).
    AfterComplete {
        /// The object whose completion reveals this one.
        parent: ObjectId,
        /// Delay after completion.
        gap: SimDuration,
    },
}

impl ToJson for Trigger {
    // Externally-tagged form, matching what serde derived for this enum:
    // {"AtStart": {"gap": ...}}, {"AfterRequest": {"prev": ..., "gap": ...}}, ...
    fn to_json(&self) -> Json {
        let (variant, fields) = match *self {
            Trigger::AtStart { gap } => ("AtStart", vec![("gap".to_string(), gap.to_json())]),
            Trigger::AfterRequest { prev, gap } => (
                "AfterRequest",
                vec![
                    ("prev".to_string(), prev.to_json()),
                    ("gap".to_string(), gap.to_json()),
                ],
            ),
            Trigger::AfterFirstByte { parent, gap } => (
                "AfterFirstByte",
                vec![
                    ("parent".to_string(), parent.to_json()),
                    ("gap".to_string(), gap.to_json()),
                ],
            ),
            Trigger::AfterComplete { parent, gap } => (
                "AfterComplete",
                vec![
                    ("parent".to_string(), parent.to_json()),
                    ("gap".to_string(), gap.to_json()),
                ],
            ),
        };
        Json::Obj(vec![(variant.to_string(), Json::Obj(fields))])
    }
}

/// One step of the request plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// Which object to request.
    pub object: ObjectId,
    /// When to request it.
    pub trigger: Trigger,
}

impl_to_json!(struct PlanStep { object, trigger });

/// A website: inventory + request plan.
#[derive(Debug, Clone)]
pub struct Site {
    /// Human-readable name.
    pub name: String,
    objects: Vec<WebObject>,
    /// The request plan in intended issue order.
    pub plan: Vec<PlanStep>,
    /// Path lookup index; derived from `objects`, not serialized.
    by_path: FxHashMap<String, ObjectId>,
}

impl_to_json!(struct Site { name, objects, plan });

impl Site {
    /// Builds a site, validating that the plan only references inventory
    /// objects and that object ids equal their inventory index.
    ///
    /// # Panics
    /// Panics on a malformed inventory or plan (these are programmer
    /// errors in workload definitions).
    pub fn new(name: impl Into<String>, objects: Vec<WebObject>, plan: Vec<PlanStep>) -> Site {
        for (i, o) in objects.iter().enumerate() {
            assert_eq!(o.id.0 as usize, i, "object id must equal inventory index");
            assert!(o.size > 0, "object {} has zero size", o.path);
        }
        let exists = |id: ObjectId| {
            assert!(
                (id.0 as usize) < objects.len(),
                "plan references unknown object {id}"
            )
        };
        for step in &plan {
            exists(step.object);
            match step.trigger {
                Trigger::AtStart { .. } => {}
                Trigger::AfterRequest { prev, .. } => exists(prev),
                Trigger::AfterFirstByte { parent, .. } => exists(parent),
                Trigger::AfterComplete { parent, .. } => exists(parent),
            }
        }
        let by_path = objects.iter().map(|o| (o.path.clone(), o.id)).collect();
        Site {
            name: name.into(),
            objects,
            plan,
            by_path,
        }
    }

    /// The object with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn object(&self, id: ObjectId) -> &WebObject {
        &self.objects[id.0 as usize]
    }

    /// Looks an object up by request path.
    pub fn by_path(&self, path: &str) -> Option<&WebObject> {
        self.by_path.get(path).map(|id| self.object(*id))
    }

    /// All objects in id order.
    pub fn objects(&self) -> &[WebObject] {
        &self.objects
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` if the site has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The position of `object` in the request plan (0-based), if planned.
    pub fn plan_position(&self, object: ObjectId) -> Option<usize> {
        self.plan.iter().position(|s| s.object == object)
    }

    /// Dummy-object countermeasure: returns a copy of this site with
    /// `count` decoy objects appended. Each decoy shadows one of the
    /// last-planned distinct objects (working backwards from the end of
    /// the plan, where an attacked page's identifying burst lives): it
    /// is sized 2 % above its target — inside a ±3 % size-matching
    /// tolerance, so the adversary's size map labels the decoy like the
    /// real object — and is requested a few milliseconds after it, so
    /// decoy traffic lands inside the same burst and corrupts any
    /// order/ranking inference. Deterministic: no RNG, no change to
    /// existing objects or plan steps.
    pub fn with_dummy_objects(&self, count: u32) -> Site {
        if count == 0 || self.plan.is_empty() {
            return self.clone();
        }
        let mut targets: Vec<ObjectId> = Vec::new();
        for step in self.plan.iter().rev() {
            if !targets.contains(&step.object) {
                targets.push(step.object);
            }
            if targets.len() == count as usize {
                break;
            }
        }
        let mut objects = self.objects.clone();
        let mut plan = self.plan.clone();
        for (k, &target) in targets.iter().enumerate() {
            let id = ObjectId(objects.len() as u32);
            let t = self.object(target);
            objects.push(WebObject {
                id,
                path: format!("/decoy/{k}.bin"),
                media: t.media,
                size: t.size + t.size / 50,
                service: t.service,
            });
            plan.push(PlanStep {
                object: id,
                trigger: Trigger::AfterRequest {
                    prev: target,
                    gap: SimDuration::from_millis(6),
                },
            });
        }
        Site::new(format!("{}+decoys", self.name), objects, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{MediaType, ServiceProfile};

    fn obj(id: u32, path: &str, size: u64) -> WebObject {
        WebObject {
            id: ObjectId(id),
            path: path.into(),
            media: MediaType::Image,
            size,
            service: ServiceProfile::static_asset(),
        }
    }

    #[test]
    fn build_and_lookup() {
        let site = Site::new(
            "t",
            vec![obj(0, "/a", 10), obj(1, "/b", 20)],
            vec![
                PlanStep {
                    object: ObjectId(0),
                    trigger: Trigger::AtStart {
                        gap: SimDuration::ZERO,
                    },
                },
                PlanStep {
                    object: ObjectId(1),
                    trigger: Trigger::AfterRequest {
                        prev: ObjectId(0),
                        gap: SimDuration::from_millis(5),
                    },
                },
            ],
        );
        assert_eq!(site.len(), 2);
        assert_eq!(site.by_path("/b").unwrap().id, ObjectId(1));
        assert_eq!(site.by_path("/missing"), None);
        assert_eq!(site.plan_position(ObjectId(1)), Some(1));
    }

    #[test]
    fn dummy_objects_zero_is_identity() {
        let site = Site::new(
            "t",
            vec![obj(0, "/a", 10_000)],
            vec![PlanStep {
                object: ObjectId(0),
                trigger: Trigger::AtStart {
                    gap: SimDuration::ZERO,
                },
            }],
        );
        let same = site.with_dummy_objects(0);
        assert_eq!(same.len(), site.len());
        assert_eq!(same.plan, site.plan);
        assert_eq!(same.name, site.name);
    }

    #[test]
    fn dummy_objects_unplanned_site_is_identity() {
        let site = Site::new("t", vec![obj(0, "/a", 10_000)], vec![]);
        let same = site.with_dummy_objects(3);
        assert_eq!(same.len(), 1);
        assert!(same.plan.is_empty());
    }

    #[test]
    fn dummy_objects_shadow_last_planned_objects() {
        let site = Site::new(
            "t",
            vec![
                obj(0, "/a", 10_000),
                obj(1, "/b", 6_000),
                obj(2, "/c", 8_000),
            ],
            vec![
                PlanStep {
                    object: ObjectId(0),
                    trigger: Trigger::AtStart {
                        gap: SimDuration::ZERO,
                    },
                },
                PlanStep {
                    object: ObjectId(1),
                    trigger: Trigger::AfterRequest {
                        prev: ObjectId(0),
                        gap: SimDuration::from_millis(5),
                    },
                },
                PlanStep {
                    object: ObjectId(2),
                    trigger: Trigger::AfterRequest {
                        prev: ObjectId(1),
                        gap: SimDuration::from_millis(5),
                    },
                },
            ],
        );
        let decoyed = site.with_dummy_objects(2);
        assert_eq!(decoyed.len(), 5);
        assert_eq!(decoyed.plan.len(), 5);
        // Decoys mimic the last-planned objects, working backwards.
        for (k, target) in [ObjectId(2), ObjectId(1)].into_iter().enumerate() {
            let decoy = decoyed.object(ObjectId(3 + k as u32));
            let real = site.object(target);
            assert_eq!(decoy.path, format!("/decoy/{k}.bin"));
            // Within the ±3 % size-identification band of its target.
            let tol = real.size as f64 * 0.03;
            assert!((decoy.size as f64 - real.size as f64).abs() <= tol);
            match decoyed.plan[3 + k].trigger {
                Trigger::AfterRequest { prev, .. } => assert_eq!(prev, target),
                other => panic!("unexpected trigger {other:?}"),
            }
        }
        // Original inventory and plan are untouched.
        assert_eq!(&decoyed.plan[..3], &site.plan[..]);
        assert_eq!(decoyed.objects()[..3], site.objects()[..]);
    }

    #[test]
    fn dummy_objects_count_capped_by_distinct_planned() {
        let site = Site::new(
            "t",
            vec![obj(0, "/a", 10_000)],
            vec![PlanStep {
                object: ObjectId(0),
                trigger: Trigger::AtStart {
                    gap: SimDuration::ZERO,
                },
            }],
        );
        let decoyed = site.with_dummy_objects(8);
        assert_eq!(decoyed.len(), 2); // only one distinct planned target
        assert_eq!(decoyed.plan.len(), 2);
    }

    #[test]
    #[should_panic(expected = "plan references unknown object")]
    fn plan_referencing_missing_object_panics() {
        let _ = Site::new(
            "t",
            vec![obj(0, "/a", 10)],
            vec![PlanStep {
                object: ObjectId(3),
                trigger: Trigger::AtStart {
                    gap: SimDuration::ZERO,
                },
            }],
        );
    }

    #[test]
    #[should_panic(expected = "object id must equal inventory index")]
    fn misnumbered_inventory_panics() {
        let _ = Site::new("t", vec![obj(5, "/a", 10)], vec![]);
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn zero_size_object_panics() {
        let _ = Site::new("t", vec![obj(0, "/a", 0)], vec![]);
    }
}
