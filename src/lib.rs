//! `replidedup` — umbrella crate for the IPDPS'15 reproduction
//! *"Leveraging Naturally Distributed Data Redundancy to Reduce Collective
//! I/O Replication Overhead"* (Bogdan Nicolae, 2015).
//!
//! Re-exports the workspace crates under one roof; see the subcrates for
//! the substance:
//!
//! * [`core`] — the paper's contribution: the [`core::Replicator`] session
//!   driving `DUMP_OUTPUT`/restore with the `no-dedup` / `local-dedup` /
//!   `coll-dedup` strategies,
//! * [`mpi`] — the in-process message-passing runtime (collectives, RMA),
//! * [`hash`] — SHA-1, fingerprints, fixed and content-defined chunking,
//! * [`storage`] — node-local chunk stores, manifests, failure injection,
//! * [`ec`] — GF(2^8) Reed-Solomon codes behind the redundancy policies,
//! * [`ckpt`] — AC-FTE-style checkpoint/restart runtime,
//! * [`apps`] — HPCCG and CM1-like mini-apps plus synthetic workloads,
//! * [`sim`] — the Shamrock-testbed cost model,
//! * [`mod@bench`] — experiment harness regenerating every table and figure.

pub use replidedup_apps as apps;
pub use replidedup_bench as bench;
pub use replidedup_buf as buf;
pub use replidedup_ckpt as ckpt;
pub use replidedup_core as core;
pub use replidedup_ec as ec;
pub use replidedup_hash as hash;
pub use replidedup_mpi as mpi;
pub use replidedup_sim as sim;
pub use replidedup_storage as storage;
