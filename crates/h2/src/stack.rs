//! Glue between a TCP connection, the TLS record layer, and the netsim
//! event loop. Used by both [`crate::server::ServerNode`] and
//! [`crate::client::ClientNode`].

use crate::frame::Frame;
use crate::stream::StreamId;
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::Ctx;
use h2priv_netsim::packet::Packet;
use h2priv_netsim::time::SimTime;
use h2priv_tcp::{TcpConnection, TcpEvent};
use h2priv_tls::{ContentType, OpenedRecord, RecordOpener, RecordSealer, RecordTag, WireMap};
use h2priv_util::bytes::{self, Bytes, BytesMut};

/// Model sizes of the TLS handshake flights (bytes of handshake records
/// on the wire, typical for TLS 1.2 with a ~2.5 KB certificate chain).
pub mod handshake_sizes {
    /// ClientHello record plaintext size.
    pub const CLIENT_HELLO: usize = 512;
    /// ServerHello + Certificate + ServerKeyExchange + ServerHelloDone.
    pub const SERVER_FLIGHT: usize = 3_050;
    /// ClientKeyExchange + ChangeCipherSpec + Finished.
    pub const CLIENT_FINISHED: usize = 130;
    /// Server ChangeCipherSpec + Finished.
    pub const SERVER_FINISHED: usize = 74;
}

/// Non-data transport notifications surfaced to the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent {
    /// TCP handshake done.
    Connected,
    /// Peer closed its direction.
    PeerFin,
    /// Connection fully closed.
    Closed,
    /// Connection aborted (the paper's "broken connection").
    Aborted,
}

/// What one [`Stack::on_packet`] or [`Stack::on_tcp_timer`] call
/// delivered: complete TLS records and transport events, each in arrival
/// order. Hand it back with [`Stack::recycle`] once handled, so its
/// vectors and record buffers are reused.
#[derive(Debug, Default)]
pub struct Inbound {
    /// Complete records; plaintexts come from the thread's record pool.
    pub records: Vec<OpenedRecord>,
    /// Transport events.
    pub events: Vec<TransportEvent>,
}

/// A TCP connection wrapped in TLS record framing, with helpers to pump
/// segments into the simulator.
#[derive(Debug)]
pub struct Stack {
    /// The transport connection.
    pub tcp: TcpConnection,
    sealer: RecordSealer,
    opener: RecordOpener,
    egress: Option<LinkId>,
    /// Deadline currently covered by a scheduled TCP tick, if any.
    pub tcp_tick_at: Option<SimTime>,
    /// Frame-encoding buffer reused by every frame write.
    scratch: BytesMut,
    /// The vectors of the last recycled [`Inbound`].
    spare: Inbound,
}

impl Stack {
    /// Wraps a TCP connection.
    pub fn new(tcp: TcpConnection) -> Stack {
        Stack::with_tls_options(tcp, 0, false)
    }

    /// Wraps a TCP connection with countermeasure TLS options:
    /// `pad_block` > 0 pads outgoing ApplicationData records to that
    /// block multiple; `strip_padding` strips the peer's padding from
    /// incoming records.
    pub fn with_tls_options(tcp: TcpConnection, pad_block: usize, strip_padding: bool) -> Stack {
        Stack {
            tcp,
            sealer: if pad_block > 0 {
                RecordSealer::with_padding(pad_block)
            } else {
                RecordSealer::new()
            },
            opener: if strip_padding {
                RecordOpener::with_padding_strip()
            } else {
                RecordOpener::new()
            },
            egress: None,
            tcp_tick_at: None,
            scratch: BytesMut::new(),
            spare: Inbound::default(),
        }
    }

    /// Padding overhead bytes sealed so far (0 when padding is off).
    pub fn pad_bytes(&self) -> u64 {
        self.sealer.pad_bytes()
    }

    /// Sets the link this endpoint transmits on (discovered in
    /// `on_start`).
    pub fn set_egress(&mut self, link: LinkId) {
        self.egress = Some(link);
    }

    /// Seals `plaintext` as one TLS record (fragmenting if >16 KiB) and
    /// writes it to TCP. Does not pump; call [`Stack::pump`] afterwards.
    pub fn write_record(&mut self, ct: ContentType, plaintext: &[u8], tag: RecordTag) {
        let wire = self.sealer.seal(ct, plaintext, tag);
        self.tcp.write(wire);
    }

    /// Encodes `frame` into the reused scratch buffer and writes it as
    /// one ApplicationData record, like [`Stack::write_record`].
    ///
    /// # Panics
    /// Panics if the frame's payload exceeds the 24-bit length field.
    pub fn write_frame(&mut self, frame: &Frame, tag: RecordTag) {
        self.scratch.clear();
        frame
            .encode_into(&mut self.scratch)
            .expect("frame within RFC 7540 payload limit");
        self.write_scratch(tag);
    }

    /// Writes a HEADERS frame whose block `encode_block` encodes in place
    /// (see [`Frame::encode_headers_into`]), like [`Stack::write_frame`].
    pub fn write_headers(
        &mut self,
        stream: StreamId,
        end_stream: bool,
        tag: RecordTag,
        encode_block: impl FnOnce(&mut BytesMut),
    ) {
        self.scratch.clear();
        Frame::encode_headers_into(&mut self.scratch, stream, end_stream, encode_block)
            .expect("header block within RFC 7540 payload limit");
        self.write_scratch(tag);
    }

    fn write_scratch(&mut self, tag: RecordTag) {
        let wire = self
            .sealer
            .seal(ContentType::ApplicationData, &self.scratch, tag);
        self.tcp.write(wire);
    }

    /// Feeds an arriving packet into TCP; returns complete TLS records
    /// and transport events in arrival order. The packet's payload goes
    /// back to the record pool once TCP is done with it.
    pub fn on_packet(&mut self, now: SimTime, pkt: Packet) -> Inbound {
        self.tcp.on_segment(now, &pkt.header, pkt.payload.clone());
        let inbound = self.collect();
        bytes::recycle(pkt.payload);
        inbound
    }

    /// Drives the TCP timer; returns records/events like
    /// [`Stack::on_packet`].
    pub fn on_tcp_timer(&mut self, now: SimTime) -> Inbound {
        self.tcp.on_timer(now);
        self.collect()
    }

    /// Takes back a handled [`Inbound`]: record plaintexts return to the
    /// record pool (unless a frame decoded from them is still alive) and
    /// the vectors are kept for the next call.
    pub fn recycle(&mut self, mut inbound: Inbound) {
        for rec in inbound.records.drain(..) {
            bytes::recycle(rec.plaintext);
        }
        inbound.events.clear();
        self.spare = inbound;
    }

    fn collect(&mut self) -> Inbound {
        let mut inbound = std::mem::take(&mut self.spare);
        while let Some(ev) = self.tcp.poll_event() {
            match ev {
                TcpEvent::Data(bytes) => {
                    self.opener.push(&bytes);
                    while let Some(rec) = self.opener.poll_record() {
                        inbound.records.push(rec);
                    }
                }
                TcpEvent::Connected => inbound.events.push(TransportEvent::Connected),
                TcpEvent::PeerFin => inbound.events.push(TransportEvent::PeerFin),
                TcpEvent::Closed => inbound.events.push(TransportEvent::Closed),
                TcpEvent::Aborted(_) => inbound.events.push(TransportEvent::Aborted),
            }
        }
        inbound
    }

    /// Transmits every segment TCP has ready onto the egress link.
    ///
    /// # Panics
    /// Panics if the egress link was never set.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let egress = self.egress.expect("stack egress not set");
        while let Some((hdr, payload)) = self.tcp.poll_segment(ctx.now()) {
            ctx.send(egress, Packet::new(hdr, payload));
        }
    }

    /// The next TCP deadline that needs an `on_tcp_timer` call, if the
    /// currently scheduled tick (if any) does not already cover it.
    pub fn timer_needs_rescheduling(&self) -> Option<SimTime> {
        match (self.tcp.next_timeout(), self.tcp_tick_at) {
            (Some(t), Some(s)) if s <= t => None, // an earlier/equal tick is coming
            (Some(t), _) => Some(t),
            (None, _) => None,
        }
    }

    /// Ground truth for everything this endpoint sent.
    pub fn wire_map(&self) -> &WireMap {
        self.sealer.wire_map()
    }

    /// Synthetic plaintext of the given length (zero-filled), used for
    /// handshake flights whose content is irrelevant.
    pub fn opaque(len: usize) -> Bytes {
        Bytes::from(vec![0u8; len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::packet::{FlowId, HostAddr};
    use h2priv_tcp::TcpConfig;

    fn flows() -> (FlowId, FlowId) {
        let f = FlowId {
            src: HostAddr(1),
            dst: HostAddr(2),
            sport: 40_000,
            dport: 443,
        };
        (f, f.reversed())
    }

    /// Runs two stacks against each other without a network (zero loss,
    /// zero latency), returning records seen by each side.
    #[test]
    fn records_flow_end_to_end_over_tcp() {
        let (cf, sf) = flows();
        let mut c = Stack::new(TcpConnection::client(cf, TcpConfig::default()));
        let mut s = Stack::new(TcpConnection::server(sf, TcpConfig::default()));
        let now = SimTime::ZERO;
        c.tcp.open(now);

        let mut client_got = vec![];
        let mut server_got = vec![];
        // Exchange segments directly (no Ctx needed when we poll by hand).
        let mut wrote = false;
        for _ in 0..64 {
            let mut quiet = true;
            while let Some((h, p)) = c.tcp.poll_segment(now) {
                s.tcp.on_segment(now, &h, p);
                quiet = false;
            }
            while let Some((h, p)) = s.tcp.poll_segment(now) {
                c.tcp.on_segment(now, &h, p);
                quiet = false;
            }
            server_got.extend(s.collect().records);
            client_got.extend(c.collect().records);
            if !wrote && matches!(c.tcp.state(), h2priv_tcp::TcpState::Established) {
                c.write_record(
                    ContentType::Handshake,
                    &Stack::opaque(handshake_sizes::CLIENT_HELLO),
                    RecordTag::NONE,
                );
                s.write_record(
                    ContentType::ApplicationData,
                    &Stack::opaque(2_000),
                    RecordTag::NONE,
                );
                wrote = true;
                quiet = false;
            }
            if quiet && wrote {
                break;
            }
        }
        assert_eq!(server_got.len(), 1);
        assert_eq!(server_got[0].content_type, ContentType::Handshake);
        assert_eq!(server_got[0].plaintext.len(), handshake_sizes::CLIENT_HELLO);
        assert_eq!(client_got.len(), 1);
        assert_eq!(client_got[0].plaintext.len(), 2_000);
        // Ground truth recorded on the sender.
        assert_eq!(c.wire_map().spans().len(), 1);
        assert_eq!(s.wire_map().spans().len(), 1);
    }

    #[test]
    fn timer_rescheduling_logic() {
        let (cf, _) = flows();
        let mut c = Stack::new(TcpConnection::client(cf, TcpConfig::default()));
        assert_eq!(c.timer_needs_rescheduling(), None);
        c.tcp.open(SimTime::ZERO);
        let t = c.timer_needs_rescheduling().expect("SYN needs an RTO tick");
        c.tcp_tick_at = Some(t);
        assert_eq!(
            c.timer_needs_rescheduling(),
            None,
            "tick already covers deadline"
        );
        c.tcp_tick_at = Some(t + h2priv_netsim::time::SimDuration::from_secs(5));
        assert_eq!(
            c.timer_needs_rescheduling(),
            Some(t),
            "later tick does not cover"
        );
    }
}
