//! Per-layer replay timings.
//!
//! Each timing feeds one layer's public API with inputs taken from the
//! workload's own trials — TLS record sizes from the `WireMap`, DATA
//! frame sizes from the serve log, the site's request set, datagram
//! sizes from the capture, the body bytes each trial moved — and
//! reports the median cost per operation over repeated passes.

use crate::stats::Summary;
use crate::workload::Scored;
use h2priv_h2::hpack::{decode_request_ref, encode_request_into};
use h2priv_h2::{ClientConfig, Frame, StreamId};
use h2priv_netsim::packet::{Direction, FlowId, HostAddr};
use h2priv_netsim::queue::{Handle, Queue, TimerWheel};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_quic::frame::{decode_datagram_into, encode_datagram, STREAM_DATAGRAM_OVERHEAD};
use h2priv_quic::{QuicFrame, MAX_DATAGRAM};
use h2priv_tcp::{TcpConfig, TcpConnection, TcpEvent};
use h2priv_tls::{
    ContentType, RecordOpener, RecordSealer, RecordTag, MAX_RECORD_PLAINTEXT, PAD_PREFIX_LEN,
    RECORD_OVERHEAD,
};
use h2priv_util::bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// HTTP/2's default maximum DATA frame payload.
const H2_MAX_FRAME: u64 = 16_384;

/// Layer inputs collected from a sample of the workload's trials.
#[derive(Debug, Default)]
pub struct ReplayInputs {
    /// TLS record plaintext lengths and the pad block they were sealed
    /// with.
    pub records: Vec<(usize, Option<usize>)>,
    /// H2 DATA frame payload lengths.
    pub data_frames: Vec<u32>,
    /// Request paths.
    pub requests: Vec<String>,
    /// Server→client datagram (packet) payload lengths.
    pub datagrams: Vec<usize>,
    /// Response body bytes each trial served.
    pub bodies: Vec<u64>,
}

impl ReplayInputs {
    /// Adds one trial's inputs. A trial without TLS records (QUIC)
    /// contributes the records its served bodies would need.
    pub fn add(&mut self, s: &Scored, pad_block: Option<usize>) {
        let r = &s.trial.result;
        let objects = s.trial.iw.site.objects();
        let served: Vec<u64> = r
            .serve_log
            .iter()
            .filter_map(|rec| objects.get(rec.object.0 as usize).map(|o| o.size))
            .collect();
        let pad_overhead = if pad_block.is_some() {
            PAD_PREFIX_LEN
        } else {
            0
        };
        let before = self.records.len();
        for span in r.wire_map.spans() {
            let wire = span.len() as usize;
            if let Some(plain) = wire.checked_sub(RECORD_OVERHEAD + pad_overhead) {
                self.records.push((plain.max(1), pad_block));
            }
        }
        let chunks =
            |size: u64, max: u64| (0..size.div_ceil(max)).map(move |i| (size - i * max).min(max));
        if self.records.len() == before {
            for &size in &served {
                self.records.extend(
                    chunks(size, MAX_RECORD_PLAINTEXT as u64).map(|c| (c as usize, pad_block)),
                );
            }
        }
        for &size in &served {
            self.data_frames
                .extend(chunks(size, H2_MAX_FRAME).map(|c| c as u32));
        }
        self.bodies.push(served.iter().sum());
        self.requests.extend(objects.iter().map(|o| o.path.clone()));
        self.datagrams.extend(
            r.trace
                .packets
                .iter()
                .filter(|p| p.direction == Direction::ServerToClient && !p.payload.is_empty())
                .map(|p| p.payload.len().min(MAX_DATAGRAM)),
        );
    }
}

/// Median ns per operation over passes of `pass` (which returns how
/// many operations it ran), repeated for at least `budget_ms`.
fn ns_per_op(budget_ms: u64, mut pass: impl FnMut() -> u64) -> f64 {
    let mut per_op = Vec::new();
    let t0 = Instant::now();
    while per_op.len() < 5 || t0.elapsed().as_millis() < u128::from(budget_ms) {
        let start = Instant::now();
        let ops = pass();
        let ns = start.elapsed().as_nanos() as f64;
        if ops == 0 {
            return 0.0;
        }
        per_op.push(ns / ops as f64);
    }
    Summary::of(&per_op).map_or(0.0, |s| s.median)
}

/// The replay timings of one workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimings {
    /// `RecordSealer::seal`, ns per record.
    pub tls_seal_ns: f64,
    /// `RecordOpener::push` + `poll_record`, ns per record.
    pub tls_open_ns: f64,
    /// `encode_request_into` + `decode_request_ref`, ns per request.
    pub hpack_ns: f64,
    /// `Frame::encode` + `Frame::decode` of DATA frames, ns per frame.
    pub frame_ns: f64,
    /// `encode_datagram` + `decode_datagram_into`, ns per datagram.
    pub datagram_ns: f64,
    /// A `TcpConnection` pair moving the bodies, ns per segment.
    pub tcp_ns_per_segment: f64,
    /// `TimerWheel` push/pop/cancel mix, ns per operation.
    pub queue_ns_per_op: f64,
}

/// Runs every replay timing, `budget_ms` per layer.
pub fn replay(inputs: &ReplayInputs, events_per_trial: u64, budget_ms: u64) -> LayerTimings {
    let (tls_seal_ns, tls_open_ns) = tls(inputs, budget_ms);
    LayerTimings {
        tls_seal_ns,
        tls_open_ns,
        hpack_ns: hpack(inputs, budget_ms),
        frame_ns: frames(inputs, budget_ms),
        datagram_ns: datagrams(inputs, budget_ms),
        tcp_ns_per_segment: tcp(inputs, budget_ms),
        queue_ns_per_op: queue(events_per_trial, budget_ms),
    }
}

fn tls(inputs: &ReplayInputs, budget_ms: u64) -> (f64, f64) {
    let plain = vec![0u8; MAX_RECORD_PLAINTEXT];
    let sealer_for =
        |pad: Option<usize>| pad.map_or_else(RecordSealer::new, RecordSealer::with_padding);
    let seal_all = || {
        let mut sealed = Vec::with_capacity(inputs.records.len());
        let mut sealer = RecordSealer::new();
        let mut pad = None;
        for &(len, block) in &inputs.records {
            if block != pad {
                sealer = sealer_for(block);
                pad = block;
            }
            let len = len.min(plain.len());
            sealed.push((
                sealer.seal(ContentType::ApplicationData, &plain[..len], RecordTag::NONE),
                block,
            ));
        }
        sealed
    };
    let seal_ns = ns_per_op(budget_ms, || black_box(seal_all()).len() as u64);
    let sealed = seal_all();
    let open_ns = ns_per_op(budget_ms, || {
        let mut opened = 0;
        let mut plain_opener = RecordOpener::new();
        let mut strip_opener = RecordOpener::with_padding_strip();
        for (wire, block) in &sealed {
            let opener = if block.is_some() {
                &mut strip_opener
            } else {
                &mut plain_opener
            };
            opener.push(wire);
            while let Some(rec) = opener.poll_record() {
                black_box(&rec);
                opened += 1;
            }
        }
        opened
    });
    (seal_ns, open_ns)
}

fn hpack(inputs: &ReplayInputs, budget_ms: u64) -> f64 {
    let authority = ClientConfig::default().authority;
    ns_per_op(budget_ms, || {
        for path in &inputs.requests {
            let mut block = BytesMut::with_capacity(128);
            encode_request_into(&mut block, &authority, path);
            black_box(decode_request_ref(&block).map(|r| r.path.len()));
        }
        inputs.requests.len() as u64
    })
}

fn frames(inputs: &ReplayInputs, budget_ms: u64) -> f64 {
    ns_per_op(budget_ms, || {
        for (i, &len) in inputs.data_frames.iter().enumerate() {
            let frame = Frame::Data {
                stream: StreamId(1 + 2 * (i as u32 % 64)),
                len,
                end_stream: false,
            };
            let wire = frame.encode().expect("DATA frames fit the length field");
            black_box(Frame::decode(&wire));
        }
        inputs.data_frames.len() as u64
    })
}

fn datagrams(inputs: &ReplayInputs, budget_ms: u64) -> f64 {
    let body = Bytes::from(vec![0u8; MAX_DATAGRAM]);
    let mut scratch = Vec::new();
    ns_per_op(budget_ms, || {
        let mut offset = 0u64;
        for (pn, &size) in inputs.datagrams.iter().enumerate() {
            let len = size.saturating_sub(STREAM_DATAGRAM_OVERHEAD).max(1);
            let frames = [QuicFrame::Stream {
                id: 0,
                offset,
                data: body.slice(..len),
                fin: false,
            }];
            offset += len as u64;
            let wire = encode_datagram(pn as u64, &frames, None);
            scratch.clear();
            black_box(decode_datagram_into(&wire, &mut scratch));
        }
        inputs.datagrams.len() as u64
    })
}

/// Moves `bytes` from server to client over a loss-free 10 ms path and
/// returns the data segments sent (`TcpStats::segments_sent`).
fn tcp_transfer(bytes: u64) -> u64 {
    let flow = FlowId {
        src: HostAddr(1),
        dst: HostAddr(2),
        sport: 40_000,
        dport: 443,
    };
    let mut client = TcpConnection::client(flow, TcpConfig::default().with_iss(7));
    let mut server = TcpConnection::server(flow.reversed(), TcpConfig::default().with_iss(99));
    let one_way = SimDuration::from_millis(10);
    let mut now = SimTime::ZERO;
    // FIFO per direction: a constant delay keeps each in time order.
    let mut to_server = VecDeque::new();
    let mut to_client = VecDeque::new();
    client.open(now);
    server.write(Bytes::from(vec![0u8; bytes as usize]));
    let mut delivered = 0u64;
    while delivered < bytes {
        while let Some((h, p)) = client.poll_segment(now) {
            to_server.push_back((now + one_way, h, p));
        }
        while let Some((h, p)) = server.poll_segment(now) {
            to_client.push_back((now + one_way, h, p));
        }
        let next = [
            to_server.front().map(|x: &(SimTime, _, _)| x.0),
            to_client.front().map(|x: &(SimTime, _, _)| x.0),
            client.next_timeout(),
            server.next_timeout(),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(next) = next else { break };
        now = now.max(next);
        while to_server.front().is_some_and(|x| x.0 <= now) {
            let (_, h, p) = to_server.pop_front().expect("front checked");
            server.on_segment(now, &h, p);
        }
        while to_client.front().is_some_and(|x| x.0 <= now) {
            let (_, h, p) = to_client.pop_front().expect("front checked");
            client.on_segment(now, &h, p);
        }
        for conn in [&mut client, &mut server] {
            if conn.next_timeout().is_some_and(|t| t <= now) {
                conn.on_timer(now);
            }
        }
        while let Some(ev) = client.poll_event() {
            if let TcpEvent::Data(d) = ev {
                delivered += d.len() as u64;
            }
        }
        while server.poll_event().is_some() {}
    }
    client.stats().segments_sent + server.stats().segments_sent
}

fn tcp(inputs: &ReplayInputs, budget_ms: u64) -> f64 {
    ns_per_op(budget_ms, || {
        inputs.bodies.iter().map(|&b| tcp_transfer(b)).sum()
    })
}

/// A push/pop/cancel mix shaped like the simulator's: about 64 events
/// pending, one in four cancelled and re-armed (timer restarts), delays
/// from 1 µs to ~200 ms.
fn queue(events: u64, budget_ms: u64) -> f64 {
    ns_per_op(budget_ms, || {
        let mut q: TimerWheel<u64> = TimerWheel::with_capacity(256);
        let mut now = SimTime::ZERO;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut armed: Vec<Handle> = Vec::with_capacity(64);
        let mut ops = 0u64;
        for i in 0..events {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = SimDuration::from_nanos(1_000 + x % 200_000_000);
            let h = q.push(now + delay, i);
            ops += 1;
            if i % 4 == 0 {
                if armed.len() == 64 {
                    let old = armed.swap_remove((x % 64) as usize);
                    black_box(q.cancel(old));
                    ops += 1;
                }
                armed.push(h);
            }
            while q.len() > 64 {
                let p = q.pop().expect("non-empty");
                now = p.time;
                ops += 1;
            }
        }
        while let Some(p) = q.pop() {
            black_box(p.payload);
            ops += 1;
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_transfer_delivers_and_counts_segments() {
        // 100 kB is at least 69 full-size segments.
        let segs = tcp_transfer(100_000);
        assert!((69..100).contains(&segs), "{segs}");
    }

    #[test]
    fn queue_mix_runs_every_event() {
        assert!(queue(1_000, 1) > 0.0);
        assert_eq!(ns_per_op(1, || 0), 0.0);
    }
}
