//! # qcfe-net — the event-loop network front end
//!
//! Everything below [`qcfe_serve::QcfeGateway`] is in-process; this crate
//! puts the gateway on the network so remote clients submit plans and read
//! estimates over TCP or Unix-domain sockets:
//!
//! * [`wire`] — the `QCFP` wire protocol: length-framed, versioned,
//!   CRC-checked request/response records with strict unknown-version/flag
//!   rejection and no-panic bounds-checked decoding.
//! * [`server`] — a single-threaded reactor (epoll on Linux, `poll`
//!   elsewhere) multiplexing every connection through non-blocking framed
//!   reads/writes. Every request decoded from one readable event enters
//!   the gateway in one [`qcfe_serve::QcfeGateway::submit_batch`] call,
//!   completions wake the reactor through one coalescing
//!   [`sys::Waker`], and each connection's replies leave in one socket
//!   write per turn — thousands of in-flight estimates without a thread
//!   each.
//! * [`client`] — a small blocking client that connects, pipelines
//!   requests and reaps responses by correlation id. Sent requests are
//!   buffered and leave in one write at the next receive that waits on the
//!   server (or an explicit flush); a client dropped before then discards
//!   them. An opt-in [`client::RetryPolicy`] adds backoff-on-shed and
//!   transparent reconnect; [`client::ShardClient`] adds shard-aware
//!   routing over a replica set — it rendezvous-places each request's
//!   serving key, follows [`wire::WireFault::NotOwner`] redirects, and
//!   fails over to the surviving peers when the owner dies mid-load.
//! * [`replicator`] — the peer-to-peer shipping worker behind
//!   [`qcfe_serve::ReplicationSink`]: every published or refined
//!   snapshot/model is pushed to the other replica-set members as `QCFP`
//!   ship frames (the verbatim persisted `QCFS`/`QCFW` codec bytes), and
//!   heartbeat probes keep the shared liveness mask honest so a dead
//!   peer's shards rendezvous onto survivors. A peer seen coming back is
//!   caught up from this process's store before it is promoted. Every
//!   peer connection the worker opens is a [`client::QcfeClient`].
//!
//! The `qcfe-served` binary glues the pieces together: it opens a store
//! directory, builds a gateway and serves it on the listeners named on the
//! command line; `--peer`/`--self-index` turn N such processes into a
//! replica set.

pub mod client;
pub mod replicator;
pub mod server;
pub mod sys;
pub mod wire;

pub use client::{ClientError, QcfeClient, RetryPolicy, ShardClient};
pub use replicator::{Replicator, ReplicatorConfig};
pub use server::{NetServerBuilder, ServerHandle, ServerStats};
pub use wire::{
    decode_frame, encode_estimate_request, encode_request, encode_response, frame_length, Frame,
    WireError, WireEstimate, WireFault, WireRequest, WireResponse, WireShipAck, WireShipModel,
    WireShipSnapshot,
};
