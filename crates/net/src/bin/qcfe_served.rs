//! `qcfe-served` — serve a snapshot store's estimators over the network.
//!
//! ```text
//! qcfe-served STORE_DIR [--tcp ADDR]... [--uds PATH]... [--max-conns N] [--idle-secs N]
//!             [--peer ADDR]... [--self-index I] [--heartbeat-ms N]
//! ```
//!
//! Opens the gateway over `STORE_DIR` (persisted `QCFS` snapshots and
//! `QCFW` model weights are loaded on demand — a pre-populated store
//! serves without retraining) and listens on every `--tcp`/`--uds`
//! endpoint. With no listener flags it serves on `127.0.0.1:7433`.
//!
//! ## Replicated serving
//!
//! N processes started with the **same ordered `--peer` list** (each
//! naming every member's client-facing TCP address, its own included) and
//! a distinct `--self-index` form a static replica set: serving keys are
//! rendezvous-placed across the peers, requests for another alive peer's
//! key are refused with a `NotOwner` redirect, and every published or
//! refined snapshot/model is shipped to the other members as verbatim
//! `QCFS`/`QCFW` codec bytes, so survivors absorb a dead member's shards
//! bit-identically. `--heartbeat-ms` tunes the liveness probe cadence.
//! Revival is anti-entropic: when a heartbeat finds a dead peer answering
//! again, the replicator first exchanges store manifests with it, re-ships
//! any keys that diverged while it was down (for example re-publishes
//! absorbed by survivors), and only then routes traffic back to it.
//!
//! The process runs until stdin reaches EOF (or `SIGINT`/`SIGTERM` kills
//! it); EOF triggers a graceful shutdown that drains in-flight requests —
//! scriptable as `qcfe-served store < /dev/null` for a bind-check, or
//! driven by closing the pipe a supervisor holds open.

use qcfe_net::replicator::{Replicator, ReplicatorConfig};
use qcfe_net::server::NetServerBuilder;
use qcfe_serve::{QcfeGateway, ReplicaSet, SnapshotStore};
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: qcfe-served STORE_DIR [--tcp ADDR]... [--uds PATH]... \
         [--max-conns N] [--idle-secs N] \
         [--peer ADDR]... [--self-index I] [--heartbeat-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut store_dir: Option<String> = None;
    let mut tcp: Vec<String> = Vec::new();
    let mut uds: Vec<String> = Vec::new();
    let mut max_conns = 1024usize;
    let mut idle_secs = 300u64;
    let mut peers: Vec<String> = Vec::new();
    let mut self_index: Option<usize> = None;
    let mut heartbeat_ms = 1000u64;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => tcp.push(args.next().unwrap_or_else(|| usage())),
            "--uds" => uds.push(args.next().unwrap_or_else(|| usage())),
            "--max-conns" => {
                max_conns = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--idle-secs" => {
                idle_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--peer" => peers.push(args.next().unwrap_or_else(|| usage())),
            "--self-index" => {
                self_index = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--heartbeat-ms" => {
                heartbeat_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ if store_dir.is_none() && !arg.starts_with('-') => store_dir = Some(arg),
            _ => usage(),
        }
    }
    let Some(store_dir) = store_dir else { usage() };
    if tcp.is_empty() && uds.is_empty() {
        tcp.push("127.0.0.1:7433".to_string());
    }
    if peers.is_empty() != self_index.is_none() {
        eprintln!("qcfe-served: --peer and --self-index must be given together");
        std::process::exit(2);
    }

    let replicas = match self_index {
        Some(index) => match ReplicaSet::new(peers, index) {
            Ok(set) => Some(Arc::new(set)),
            Err(e) => {
                eprintln!("qcfe-served: invalid replica set: {e}");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let replicator = replicas.as_ref().map(|set| {
        let config = ReplicatorConfig {
            heartbeat: Duration::from_millis(heartbeat_ms.max(1)),
            ..ReplicatorConfig::default()
        };
        // Hand the replicator its own store handle so a peer seen coming
        // back from the dead is caught up (manifest diff + re-ship) before
        // traffic is routed back to it.
        match SnapshotStore::open(&store_dir) {
            Ok(store) => Replicator::start(Arc::clone(set), config, store),
            Err(e) => {
                eprintln!("qcfe-served: cannot open store {store_dir}: {e}");
                std::process::exit(1);
            }
        }
    });

    let mut gateway_builder = QcfeGateway::builder(&store_dir);
    if let (Some(set), Some(replicator)) = (&replicas, &replicator) {
        gateway_builder = gateway_builder.replication(Arc::clone(set), replicator.sink());
    }
    let gateway = match gateway_builder.build() {
        Ok(gateway) => Arc::new(gateway),
        Err(e) => {
            eprintln!("qcfe-served: cannot open store {store_dir}: {e}");
            std::process::exit(1);
        }
    };

    let mut builder = NetServerBuilder::new(gateway)
        .max_connections(max_conns)
        .idle_timeout(Duration::from_secs(idle_secs));
    if let Some(set) = &replicas {
        builder = builder.replica(Arc::clone(set));
    }
    for addr in tcp {
        builder = builder.tcp(addr);
    }
    for path in &uds {
        builder = builder.uds(path);
    }
    let handle = match builder.start() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("qcfe-served: cannot start server: {e}");
            std::process::exit(1);
        }
    };
    for addr in handle.tcp_addrs() {
        println!("listening tcp {addr}");
    }
    for path in handle.uds_paths() {
        println!("listening uds {}", path.display());
    }
    if let Some(set) = &replicas {
        println!(
            "replica {}/{} of [{}]",
            set.self_index().unwrap_or(0),
            set.len(),
            set.peers().join(", ")
        );
    }

    // Serve until stdin closes, then drain and exit.
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}

    drop(replicator); // stop shipping before the listeners go away
    match handle.join() {
        Ok(stats) => println!(
            "served {} ok / {} fault over {} connections",
            stats.responses_ok, stats.responses_fault, stats.connections_accepted
        ),
        Err(e) => {
            eprintln!("qcfe-served: reactor failed: {e}");
            std::process::exit(1);
        }
    }
}
