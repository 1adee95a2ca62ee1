//! # h2priv-h2
//!
//! An HTTP/2 protocol model for the `h2priv` reproduction of *"Depending
//! on HTTP/2 for Privacy? Good Luck!"* (DSN 2020): RFC 7540-style
//! framing, a minimal HPACK, stream states, connection-level flow
//! control, and — most importantly — endpoint *behaviour models*:
//!
//! * [`server::ServerNode`] models the paper's multi-threaded HTTP/2
//!   server: each GET spawns a simulated worker thread that, after a
//!   time-to-first-byte, emits DATA chunks on a pacing timer. Concurrent
//!   workers interleave their chunks on the shared TCP stream — this is
//!   the **multiplexing** that recent privacy proposals relied on and
//!   that the paper's adversary destroys. A FIFO drain policy
//!   ([`config::MuxPolicy::Serial`]) reproduces HTTP/1.1-style
//!   head-of-line behaviour for baselines.
//! * [`page::PageLoad`] models a Firefox-like browser: it walks a
//!   [`h2priv_web::Site`] request plan (dependency-triggered GETs),
//!   re-issues a GET on a fresh stream when a response stalls (the
//!   app-layer "retransmission requests" whose duplicate served copies
//!   the paper observes as *intensified multiplexing*, Fig. 4), and
//!   resets its streams + re-requests after a long stall on a lossy
//!   channel (the behaviour the paper's targeted-drop phase exploits,
//!   Fig. 6). [`client::ClientNode`] runs it over HTTP/2 (`RST_STREAM`
//!   resets); `h2priv-quic`'s H3 client runs the same model over QUIC.
//!
//! Both endpoints run over `h2priv-tcp` connections wrapped in
//! `h2priv-tls` record framing, attached to the `h2priv-netsim` event
//! loop as nodes. Every response byte is ground-truth labelled in the
//! TLS [`h2priv_tls::WireMap`], which the metrics in `h2priv-core` join
//! against captures to compute the paper's *degree of multiplexing*.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod config;
pub mod conn;
pub mod frame;
pub mod hpack;
pub mod page;
pub mod server;
pub mod stack;
pub mod stream;

pub use client::ClientNode;
pub use config::{ClientConfig, MuxPolicy, ServerConfig, ShapingConfig};
pub use frame::{ErrorCode, Frame, FrameType};
pub use page::{ClientReport, ObjectOutcome, PageLoad, RequestRecord, RequestWire};
pub use server::{ServeRecord, ServerNode};
pub use stream::StreamId;
