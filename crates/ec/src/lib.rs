//! `replidedup-ec` — Reed-Solomon erasure coding for the redundancy
//! policy engine.
//!
//! The paper replicates every chunk `K` times; erasure coding is the
//! other classic redundancy lever: `k` data shards plus `m` parity shards
//! survive any `m` losses at a storage cost of `(k + m) / k` instead of
//! `K`. This crate supplies the math and the layout — [`gf`] (GF(2^8)
//! arithmetic, with an AVX2 multiply-accumulate kernel picked at run time
//! and a scalar log/exp one everywhere else), [`RsCode`] (systematic
//! Cauchy-matrix encode and decode-from-any-`k`), and [`stripe`]
//! (deterministic shard-to-node rotation) — while `replidedup-core`
//! decides *which* chunks get coded and credits naturally duplicated
//! chunks against stripe redundancy.
//!
//! Decode paths are panic-free by contract: every failure is a typed
//! [`EcError`]. The lints below enforce it outside tests, and confine
//! `unsafe` to the AVX2 kernel, where every block carries a `SAFETY`
//! comment.

#![deny(
    unsafe_code,
    unsafe_op_in_unsafe_fn,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::undocumented_unsafe_blocks
)]

pub mod gf;
pub mod rs;
pub mod stripe;

pub use rs::{EcError, RsCode};
pub use stripe::{shard_node, shard_nodes};
