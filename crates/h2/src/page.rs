//! The browser's page-load model, shared by the HTTP/2 and HTTP/3
//! clients.
//!
//! Walks a [`h2priv_web::Site`] request plan with dependency-triggered
//! GETs, then layers on the two recovery behaviours the paper's attack
//! manipulates:
//!
//! * **Re-requests** (Fig. 4): when a GET has seen neither response
//!   headers nor data within an adaptive timeout, the client re-issues it
//!   on a fresh stream. The server then serves multiple copies, which is
//!   the paper's "intensified multiplexing".
//! * **Stream reset** (Fig. 6): when an object makes no progress for a
//!   long stall window (a very lossy channel), the client resets all its
//!   open streams, backs off, scales all its timeouts up, and
//!   re-requests — giving the server a clean, quiet window in which the
//!   adversary observes a serialized transmission.
//!
//! [`PageLoad`] owns all of that bookkeeping and every timer it arms; a
//! client node owns only its transport and reaches the wire through
//! [`RequestWire`]. Both transports therefore drive one copy of the
//! browser, and an H2-vs-H3 difference can only come from the wire.

use crate::config::ClientConfig;
use crate::stream::StreamId;
use h2priv_netsim::node::{Ctx, TimerId};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_tls::{RecordTag, TrafficClass};
use h2priv_util::fxhash::FxHashMap;
use h2priv_web::{MediaType, ObjectId, Site, Trigger};

/// Outcome record for one GET attempt.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// Requested object.
    pub object: ObjectId,
    /// Stream the GET used.
    pub stream: StreamId,
    /// 0 = first attempt for the object.
    pub attempt: u32,
    /// When the GET was written.
    pub issued_at: SimTime,
    /// When response HEADERS arrived.
    pub headers_at: Option<SimTime>,
    /// When the first DATA arrived.
    pub first_data_at: Option<SimTime>,
    /// When END_STREAM arrived.
    pub completed_at: Option<SimTime>,
    /// DATA bytes received on this stream.
    pub bytes: u64,
    /// Whether the client reset this stream.
    pub reset: bool,
}

/// Outcome record for one object.
#[derive(Debug, Clone, Copy)]
pub struct ObjectOutcome {
    /// The object.
    pub object: ObjectId,
    /// First GET time.
    pub requested_at: Option<SimTime>,
    /// First DATA byte time (any copy).
    pub first_byte_at: Option<SimTime>,
    /// Completion time (first copy to finish).
    pub completed_at: Option<SimTime>,
    /// GET attempts issued.
    pub attempts: u32,
    /// Stream resets performed for it.
    pub resets: u32,
}

/// Everything the client learned during a page load; the experiment
/// harness's main output on the client side.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// When the HTTP layer became ready (page-load start).
    pub page_started_at: Option<SimTime>,
    /// When every planned object had completed.
    pub page_completed_at: Option<SimTime>,
    /// Per-GET records in issue order.
    pub requests: Vec<RequestRecord>,
    /// Per-object outcomes in inventory order.
    pub objects: Vec<ObjectOutcome>,
    /// App-layer re-requests issued (paper's "retransmission requests").
    pub h2_rerequests: u64,
    /// Object reset events (stream-reset volleys) performed.
    pub resets_sent: u64,
    /// Whether the connection aborted ("broken connection").
    pub connection_broken: bool,
    /// Client-side transport retransmission count.
    pub tcp_retransmits: u64,
}

/// The transport half of a browser client: how a GET and a stream reset
/// reach the wire.
pub trait RequestWire {
    /// Allocates the stream for the next GET.
    fn open_stream(&mut self) -> StreamId;
    /// Writes the GET for `authority` + `path` on `stream`, labelled
    /// `tag` in the wire map.
    fn send_get(&mut self, stream: StreamId, authority: &str, path: &str, tag: RecordTag);
    /// Cancels `stream`, which carries `object` (one stream of the
    /// stall-reset volley).
    fn reset_stream(&mut self, stream: StreamId, object: ObjectId);
}

/// A timer a client node armed, by what it is for.
#[derive(Debug)]
enum Timer {
    /// The node's transport timer; the node services it itself.
    TransportTick,
    IssueStep(usize),
    Rerequest(usize),
    StallCheck(ObjectId),
    ReissueAfterReset(ObjectId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Milestone {
    Requested,
    FirstByte,
    Completed,
}

#[derive(Debug, Default, Clone, Copy)]
struct ObjState {
    requested_at: Option<SimTime>,
    first_byte_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    last_progress: Option<SimTime>,
    attempts: u32,
    resets: u32,
    stall_armed: bool,
    gave_up: bool,
}

/// One page load: the request plan, every GET attempt and the recovery
/// timers, independent of the transport underneath.
#[derive(Debug)]
pub struct PageLoad {
    cfg: ClientConfig,
    site: Site,
    step_scheduled: Vec<bool>,
    objects: Vec<ObjState>,
    requests: Vec<RequestRecord>,
    stream_map: FxHashMap<StreamId, usize>,
    timers: FxHashMap<TimerId, Timer>,
    h2_rerequests: u64,
    resets_sent: u64,
    broken: bool,
    timeout_scale: f64,
    page_started_at: Option<SimTime>,
    page_completed_at: Option<SimTime>,
}

impl PageLoad {
    /// A page load of `site` that has not started yet.
    pub fn new(site: Site, cfg: ClientConfig) -> PageLoad {
        let n_objects = site.len();
        let n_steps = site.plan.len();
        PageLoad {
            cfg,
            site,
            step_scheduled: vec![false; n_steps],
            objects: vec![ObjState::default(); n_objects],
            requests: Vec::new(),
            stream_map: FxHashMap::default(),
            timers: FxHashMap::default(),
            h2_rerequests: 0,
            resets_sent: 0,
            broken: false,
            timeout_scale: 1.0,
            page_started_at: None,
            page_completed_at: None,
        }
    }

    /// The client configuration.
    pub fn cfg(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Whether [`PageLoad::start`] has run.
    pub fn started(&self) -> bool {
        self.page_started_at.is_some()
    }

    /// Builds the post-run report, taking the accumulated request
    /// records (the report is read once, at end of trial).
    /// `retransmits` is the transport's retransmission count.
    pub fn take_report(&mut self, retransmits: u64) -> ClientReport {
        ClientReport {
            page_started_at: self.page_started_at,
            page_completed_at: self.page_completed_at,
            requests: std::mem::take(&mut self.requests),
            objects: self
                .objects
                .iter()
                .enumerate()
                .map(|(i, o)| ObjectOutcome {
                    object: ObjectId(i as u32),
                    requested_at: o.requested_at,
                    first_byte_at: o.first_byte_at,
                    completed_at: o.completed_at,
                    attempts: o.attempts,
                    resets: o.resets,
                })
                .collect(),
            h2_rerequests: self.h2_rerequests,
            resets_sent: self.resets_sent,
            connection_broken: self.broken,
            tcp_retransmits: retransmits,
        }
    }

    /// A cheap forward-progress fingerprint for stall watchdogs: the
    /// tuple changes whenever the page load makes any application-level
    /// progress (DATA bytes received, an object or the page completing,
    /// or the connection breaking). Reading it mutates nothing.
    pub fn progress_probe(&self) -> (u64, u64, bool, bool) {
        let objects_done = self
            .objects
            .iter()
            .filter(|o| o.completed_at.is_some())
            .count() as u64;
        let data_bytes: u64 = self.requests.iter().map(|r| r.bytes).sum();
        (
            data_bytes,
            objects_done,
            self.page_completed_at.is_some(),
            self.broken,
        )
    }

    /// Records that the connection aborted; no further GET is issued.
    pub fn mark_broken(&mut self) {
        self.broken = true;
    }

    /// Records that the peer reset `stream`.
    pub fn mark_reset(&mut self, stream: StreamId) {
        if let Some(&idx) = self.stream_map.get(&stream) {
            self.requests[idx].reset = true;
        }
    }

    /// The request on `stream`, unless the stream is unknown or was
    /// reset (the bytes of a cancelled copy may still be in flight).
    pub fn live_request(&self, stream: StreamId) -> Option<usize> {
        let &idx = self.stream_map.get(&stream)?;
        (!self.requests[idx].reset).then_some(idx)
    }

    /// Records response headers for request `idx`.
    pub fn on_headers(&mut self, now: SimTime, idx: usize) {
        self.requests[idx].headers_at = Some(now);
        let object = self.requests[idx].object;
        self.obj(object).last_progress = Some(now);
    }

    /// Records `len` response body bytes for request `idx`.
    pub fn on_data(&mut self, ctx: &mut Ctx<'_>, idx: usize, len: u64) {
        let now = ctx.now();
        let req = &mut self.requests[idx];
        req.bytes += len;
        req.first_data_at.get_or_insert(now);
        let object = req.object;
        self.obj(object).last_progress = Some(now);
        if self.obj(object).first_byte_at.is_none() {
            self.obj(object).first_byte_at = Some(now);
            self.trigger_deps(ctx, object, Milestone::FirstByte);
        }
    }

    /// Records the end of request `idx`'s response.
    pub fn complete_request(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        self.requests[idx].completed_at = Some(now);
        let object = self.requests[idx].object;
        if self.obj(object).completed_at.is_none() {
            self.obj(object).completed_at = Some(now);
            self.trigger_deps(ctx, object, Milestone::Completed);
            self.check_page_complete(now);
        }
    }

    /// Starts the page load: schedules the plan's start steps.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.page_started_at = Some(ctx.now());
        for i in 0..self.site.plan.len() {
            if let Trigger::AtStart { gap } = self.site.plan[i].trigger {
                self.schedule_step(ctx, i, gap);
            }
        }
    }

    /// A server push reserved `stream` for the object at `path`: account
    /// its data like a response to the object's GET, and cancel the
    /// object's own pending plan step.
    pub fn accept_push(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, path: &str) {
        let Some(object) = self.site.by_path(path).map(|o| o.id) else {
            return;
        };
        if self.obj(object).completed_at.is_some() {
            return; // already have it; a real client would RST the push
        }
        let attempt = self.obj(object).attempts;
        self.push_request(ctx, object, stream, attempt);
        // Suppress the browser's own GET for this object: cancel unfired
        // plan steps and count the push as the object's first attempt so
        // an already-armed issue timer backs off.
        for (i, step) in self.site.plan.iter().enumerate() {
            if step.object == object {
                self.step_scheduled[i] = true;
            }
        }
        self.obj(object).attempts += 1;
        if self.obj(object).requested_at.is_none() {
            self.obj(object).requested_at = Some(ctx.now());
            self.trigger_deps(ctx, object, Milestone::Requested);
        }
        self.arm_stall_check(ctx, object);
    }

    /// Registers the node's transport timer, which [`PageLoad::on_timer`]
    /// hands back to the node.
    pub fn arm_transport_tick(&mut self, timer: TimerId) {
        self.timers.insert(timer, Timer::TransportTick);
    }

    /// Fires `timer`. Returns `true` when it is the transport tick, which
    /// the node services itself.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        timer: TimerId,
        wire: &mut impl RequestWire,
    ) -> bool {
        match self.timers.remove(&timer) {
            Some(Timer::TransportTick) => return true,
            Some(Timer::IssueStep(step)) => {
                let object = self.site.plan[step].object;
                // Only the plan's first GET for an object goes through
                // here; re-requests are issued by the watchdogs.
                if self.obj(object).attempts == 0 {
                    self.issue_get(ctx, object, wire);
                }
            }
            Some(Timer::Rerequest(req_idx)) => self.rerequest_check(ctx, req_idx, wire),
            Some(Timer::StallCheck(object)) => self.stall_check(ctx, object, wire),
            Some(Timer::ReissueAfterReset(object))
                if self.obj(object).completed_at.is_none() && !self.obj(object).gave_up =>
            {
                self.issue_get(ctx, object, wire);
            }
            Some(Timer::ReissueAfterReset(_)) | None => {}
        }
        false
    }

    // ------------------------------------------------------------------

    fn obj(&mut self, id: ObjectId) -> &mut ObjState {
        &mut self.objects[id.0 as usize]
    }

    fn is_document(&self, id: ObjectId) -> bool {
        self.cfg.document_priority && self.site.object(id).media == MediaType::Html
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>, after: SimDuration, timer: Timer) {
        let t = ctx.schedule(after);
        self.timers.insert(t, timer);
    }

    fn schedule_step(&mut self, ctx: &mut Ctx<'_>, step: usize, gap: SimDuration) {
        if self.step_scheduled[step] {
            return;
        }
        self.step_scheduled[step] = true;
        // Discovery-triggered steps (parsing, script execution) carry far
        // more natural timing variance than pipelined requests.
        let spread = match self.site.plan[step].trigger {
            Trigger::AfterFirstByte { .. } | Trigger::AfterComplete { .. } => {
                self.cfg.discovery_jitter
            }
            _ => self.cfg.gap_jitter,
        };
        let jf = ctx.rng().jitter_factor(spread);
        self.arm(ctx, gap.mul_f64(jf), Timer::IssueStep(step));
    }

    /// Fires dependency triggers after `object` reached `milestone`.
    fn trigger_deps(&mut self, ctx: &mut Ctx<'_>, object: ObjectId, milestone: Milestone) {
        for i in 0..self.site.plan.len() {
            if self.step_scheduled[i] {
                continue;
            }
            let gap = match (self.site.plan[i].trigger, milestone) {
                (Trigger::AfterRequest { prev, gap }, Milestone::Requested) if prev == object => {
                    Some(gap)
                }
                (Trigger::AfterFirstByte { parent, gap }, Milestone::FirstByte)
                    if parent == object =>
                {
                    Some(gap)
                }
                (Trigger::AfterComplete { parent, gap }, Milestone::Completed)
                    if parent == object =>
                {
                    Some(gap)
                }
                _ => None,
            };
            if let Some(gap) = gap {
                self.schedule_step(ctx, i, gap);
            }
        }
    }

    fn push_request(&mut self, ctx: &Ctx<'_>, object: ObjectId, stream: StreamId, attempt: u32) {
        self.stream_map.insert(stream, self.requests.len());
        self.requests.push(RequestRecord {
            object,
            stream,
            attempt,
            issued_at: ctx.now(),
            headers_at: None,
            first_data_at: None,
            completed_at: None,
            bytes: 0,
            reset: false,
        });
    }

    /// Arms the stall watchdog, once per object.
    fn arm_stall_check(&mut self, ctx: &mut Ctx<'_>, object: ObjectId) {
        if !self.obj(object).stall_armed {
            self.obj(object).stall_armed = true;
            self.arm(ctx, self.cfg.reset.stall_timeout, Timer::StallCheck(object));
        }
    }

    fn issue_get(&mut self, ctx: &mut Ctx<'_>, object: ObjectId, wire: &mut impl RequestWire) {
        if self.broken || self.obj(object).gave_up {
            return;
        }
        let attempt = self.obj(object).attempts;
        self.obj(object).attempts += 1;
        let stream = wire.open_stream();
        let req_idx = self.requests.len();
        self.push_request(ctx, object, stream, attempt);
        let tag = RecordTag {
            stream_id: stream.0,
            object_id: object.0,
            copy: attempt as u16,
            class: TrafficClass::Request,
        };
        wire.send_get(
            stream,
            &self.cfg.authority,
            &self.site.object(object).path,
            tag,
        );
        let first = self.obj(object).requested_at.is_none();
        if first {
            self.obj(object).requested_at = Some(ctx.now());
        }
        // Arm the re-request watchdog (HTML documents retry faster when
        // document priority is on).
        if self.cfg.rerequest.enabled {
            let mut factor = self.cfg.rerequest.backoff.powi(attempt as i32) * self.timeout_scale;
            if self.is_document(object) {
                factor *= 0.5;
            }
            let after = self.cfg.rerequest.timeout.mul_f64(factor);
            self.arm(ctx, after, Timer::Rerequest(req_idx));
        }
        self.arm_stall_check(ctx, object);
        if first {
            self.trigger_deps(ctx, object, Milestone::Requested);
        }
    }

    fn check_page_complete(&mut self, now: SimTime) {
        if self.page_completed_at.is_some() {
            return;
        }
        let all = self
            .site
            .plan
            .iter()
            .all(|s| self.objects[s.object.0 as usize].completed_at.is_some());
        if all {
            self.page_completed_at = Some(now);
        }
    }

    fn rerequest_check(&mut self, ctx: &mut Ctx<'_>, req_idx: usize, wire: &mut impl RequestWire) {
        let r = &self.requests[req_idx];
        let (object, stale) = (
            r.object,
            r.headers_at.is_none() && r.first_data_at.is_none() && !r.reset,
        );
        if !stale || self.obj(object).completed_at.is_some() || self.broken {
            return;
        }
        if self.obj(object).attempts < self.cfg.rerequest.max_attempts {
            self.h2_rerequests += 1;
            self.issue_get(ctx, object, wire);
        }
    }

    fn stall_check(&mut self, ctx: &mut Ctx<'_>, object: ObjectId, wire: &mut impl RequestWire) {
        let now = ctx.now();
        let state = *self.obj(object);
        if state.completed_at.is_some() || state.gave_up || self.broken {
            self.obj(object).stall_armed = false;
            return;
        }
        let last = state.last_progress.or(state.requested_at).unwrap_or(now);
        let idle = now.saturating_since(last);
        if idle < self.cfg.reset.stall_timeout {
            let t = ctx.schedule_at(last + self.cfg.reset.stall_timeout);
            self.timers.insert(t, Timer::StallCheck(object));
            return;
        }
        if state.resets >= self.cfg.reset.max_resets_per_object {
            self.obj(object).gave_up = true;
            self.obj(object).stall_armed = false;
            return;
        }
        // A badly lossy channel: the browser resets *all* ongoing
        // streams (paper Fig. 6 — "the client resets the streams"),
        // which flushes every queued object segment from the server,
        // then re-requests incomplete resources after a backoff. The
        // navigation document goes first (browser priority).
        for r in self.requests.iter_mut() {
            if r.completed_at.is_none() {
                if !r.reset {
                    wire.reset_stream(r.stream, r.object);
                }
                r.reset = true;
            }
        }
        self.resets_sent += 1;
        // Paper: after the reset the client waits longer before
        // retrying anything.
        self.timeout_scale = self.cfg.reset.post_reset_timeout_scale;
        for idx in 0..self.objects.len() {
            let o = ObjectId(idx as u32);
            let st = self.objects[idx];
            if st.requested_at.is_none() || st.completed_at.is_some() || st.gave_up {
                continue;
            }
            self.obj(o).resets += 1;
            self.obj(o).last_progress = Some(now);
            let backoff = if self.is_document(o) {
                self.cfg.reset.backoff.mul_f64(0.3)
            } else {
                self.cfg.reset.backoff
            };
            self.arm(ctx, backoff, Timer::ReissueAfterReset(o));
            let stall = self.cfg.reset.stall_timeout + backoff;
            self.arm(ctx, stall, Timer::StallCheck(o));
        }
    }
}
