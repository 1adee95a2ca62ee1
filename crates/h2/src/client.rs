//! The browser-like HTTP/2 client model.
//!
//! The browser itself — plan walking, re-requests (Fig. 4) and the
//! stall-reset volley (Fig. 6) — is the shared [`PageLoad`]; this node
//! runs it over TLS + TCP. GETs are HPACK-encoded HEADERS frames, the
//! reset volley is a burst of `RST_STREAM` frames inside the shared TLS
//! stream, and the node answers SETTINGS/PING, grants connection window
//! and accepts server pushes.

use crate::config::ClientConfig;
use crate::frame::{ErrorCode, Frame};
use crate::hpack;
use crate::page::{ClientReport, PageLoad, RequestWire};
use crate::stack::{handshake_sizes, Stack, TransportEvent};
use crate::stream::{StreamId, StreamIdAllocator};
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::{Ctx, Node, TimerId};
use h2priv_netsim::packet::{FlowId, Packet};
use h2priv_tcp::{TcpConnection, TcpStats};
use h2priv_tls::{ContentType, OpenedRecord, RecordTag, TrafficClass, WireMap};
use h2priv_web::{ObjectId, Site};

use crate::server::{CLIENT_PORT, SERVER_PORT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TlsPhase {
    Idle,
    AwaitServerFlight,
    Ready,
}

/// The H2 half of the client: the TLS/TCP stack and stream ids.
#[derive(Debug)]
struct Wire {
    stack: Stack,
    alloc: StreamIdAllocator,
}

impl RequestWire for Wire {
    fn open_stream(&mut self) -> StreamId {
        self.alloc.next_id()
    }

    fn send_get(&mut self, stream: StreamId, authority: &str, path: &str, tag: RecordTag) {
        self.stack.write_headers(stream, true, tag, |block| {
            hpack::encode_request_into(block, authority, path)
        });
    }

    fn reset_stream(&mut self, stream: StreamId, object: ObjectId) {
        self.stack.write_frame(
            &Frame::RstStream {
                stream,
                error: ErrorCode::Cancel,
            },
            RecordTag {
                stream_id: stream.0,
                object_id: object.0,
                copy: 0,
                class: TrafficClass::Control,
            },
        );
    }
}

/// The browser client as a netsim node.
#[derive(Debug)]
pub struct ClientNode {
    page: PageLoad,
    wire: Wire,
    tls: TlsPhase,
    consumed_since_update: u64,
}

impl ClientNode {
    /// Creates a client that will load `site` once the simulation starts.
    pub fn new(site: Site, cfg: ClientConfig) -> ClientNode {
        let flow = FlowId {
            src: cfg.addr,
            dst: cfg.server_addr,
            sport: CLIENT_PORT,
            dport: SERVER_PORT,
        };
        let stack = Stack::with_tls_options(
            TcpConnection::client(flow, cfg.tcp.clone()),
            0,
            cfg.strip_padding,
        );
        ClientNode {
            page: PageLoad::new(site, cfg),
            wire: Wire {
                stack,
                alloc: StreamIdAllocator::client(),
            },
            tls: TlsPhase::Idle,
            consumed_since_update: 0,
        }
    }

    /// Builds the post-run report, taking the accumulated request
    /// records (read once, at end of trial).
    pub fn take_report(&mut self) -> ClientReport {
        let retransmits = self.wire.stack.tcp.stats().retransmits();
        self.page.take_report(retransmits)
    }

    /// Final TCP statistics.
    pub fn tcp_stats(&self) -> &TcpStats {
        self.wire.stack.tcp.stats()
    }

    /// The page load this client runs.
    pub fn page(&self) -> &PageLoad {
        &self.page
    }

    /// Ground-truth wire map of everything this client sent.
    pub fn wire_map(&self) -> &WireMap {
        self.wire.stack.wire_map()
    }

    // ------------------------------------------------------------------

    fn handle_records(&mut self, ctx: &mut Ctx<'_>, records: &[OpenedRecord]) {
        for rec in records {
            match rec.content_type {
                ContentType::Handshake => {
                    if self.tls == TlsPhase::AwaitServerFlight {
                        // Server flight received: send Finished, then the
                        // HTTP/2 connection preface (SETTINGS + window).
                        self.wire.stack.write_record(
                            ContentType::Handshake,
                            &Stack::opaque(handshake_sizes::CLIENT_FINISHED),
                            RecordTag::NONE,
                        );
                        self.tls = TlsPhase::Ready;
                        self.wire.stack.write_frame(
                            &Frame::Settings {
                                ack: false,
                                params: vec![(0x4, 65_535), (0x5, 16_384)],
                            },
                            RecordTag::NONE,
                        );
                        let raise = self
                            .page
                            .cfg()
                            .conn_window
                            .saturating_sub(crate::conn::INITIAL_CONNECTION_WINDOW);
                        if raise > 0 {
                            self.wire.stack.write_frame(
                                &Frame::WindowUpdate {
                                    stream: StreamId::CONNECTION,
                                    increment: raise as u32,
                                },
                                RecordTag::NONE,
                            );
                        }
                        self.page.start(ctx);
                    }
                }
                ContentType::ApplicationData => {
                    for frame in Frame::decode_all(&rec.plaintext) {
                        self.handle_frame(ctx, frame);
                    }
                }
                ContentType::ChangeCipherSpec | ContentType::Alert => {}
            }
        }
    }

    fn handle_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        match frame {
            Frame::Settings { ack: false, .. } => {
                self.wire.stack.write_frame(
                    &Frame::Settings {
                        ack: true,
                        params: vec![],
                    },
                    RecordTag::NONE,
                );
            }
            Frame::Headers {
                stream,
                block,
                end_stream,
            } => {
                if let Some(idx) = self.page.live_request(stream) {
                    self.page.on_headers(ctx.now(), idx);
                    if let Some(resp) = hpack::decode_response(&block) {
                        debug_assert_eq!(resp.status, 200);
                    }
                    if end_stream {
                        self.page.complete_request(ctx, idx);
                    }
                }
            }
            Frame::Data {
                stream,
                len,
                end_stream,
            } => {
                self.grant_window(len);
                if let Some(idx) = self.page.live_request(stream) {
                    self.page.on_data(ctx, idx, len as u64);
                    if end_stream {
                        self.page.complete_request(ctx, idx);
                    }
                }
            }
            Frame::PushPromise {
                promised, block, ..
            } => {
                if let Some(req) = hpack::decode_request(&block) {
                    self.page.accept_push(ctx, promised, &req.path);
                }
            }
            Frame::RstStream { stream, .. } => self.page.mark_reset(stream),
            Frame::Ping { ack: false } => {
                self.wire
                    .stack
                    .write_frame(&Frame::Ping { ack: true }, RecordTag::NONE);
            }
            Frame::Settings { ack: true, .. }
            | Frame::Ping { ack: true }
            | Frame::Priority { .. }
            | Frame::GoAway { .. }
            | Frame::WindowUpdate { .. } => {}
        }
    }

    fn grant_window(&mut self, len: u32) {
        self.consumed_since_update += len as u64;
        if self.consumed_since_update >= self.page.cfg().window_update_threshold {
            let inc = self.consumed_since_update as u32;
            self.consumed_since_update = 0;
            self.wire.stack.write_frame(
                &Frame::WindowUpdate {
                    stream: StreamId::CONNECTION,
                    increment: inc,
                },
                RecordTag::NONE,
            );
        }
    }

    fn after_activity(&mut self, ctx: &mut Ctx<'_>) {
        let stack = &mut self.wire.stack;
        stack.pump(ctx);
        if let Some(t) = stack.timer_needs_rescheduling() {
            self.page.arm_transport_tick(ctx.schedule_at(t));
            stack.tcp_tick_at = Some(t);
        }
    }

    fn handle_events(&mut self, events: &[TransportEvent]) {
        for ev in events {
            match ev {
                TransportEvent::Connected => {
                    if self.tls == TlsPhase::Idle {
                        self.wire.stack.write_record(
                            ContentType::Handshake,
                            &Stack::opaque(handshake_sizes::CLIENT_HELLO),
                            RecordTag::NONE,
                        );
                        self.tls = TlsPhase::AwaitServerFlight;
                    }
                }
                TransportEvent::Aborted => self.page.mark_broken(),
                TransportEvent::PeerFin | TransportEvent::Closed => {}
            }
        }
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let egress = ctx.egress_links();
        assert_eq!(egress.len(), 1, "client expects exactly one egress link");
        self.wire.stack.set_egress(egress[0]);
        self.wire.stack.tcp.open(ctx.now());
        self.after_activity(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: LinkId, pkt: Packet) {
        let inbound = self.wire.stack.on_packet(ctx.now(), pkt);
        self.handle_events(&inbound.events);
        self.handle_records(ctx, &inbound.records);
        self.wire.stack.recycle(inbound);
        self.after_activity(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        if self.page.on_timer(ctx, timer, &mut self.wire) {
            self.wire.stack.tcp_tick_at = None;
            let inbound = self.wire.stack.on_tcp_timer(ctx.now());
            self.handle_events(&inbound.events);
            self.handle_records(ctx, &inbound.records);
            self.wire.stack.recycle(inbound);
        }
        self.after_activity(ctx);
    }
}
