//! The session-based public API: [`Replicator`].
//!
//! The pre-session free functions took four loose parameters per call and
//! validated the configuration at run time, inside the collective. A
//! [`Replicator`] is built once via
//! [`Replicator::builder`] — which absorbs the [`DumpConfig`] fields, the
//! cluster, the hasher and the trace preference, and rejects invalid
//! configurations with a typed [`ConfigError`] *before* any rank enters a
//! collective — and then drives any number of dump/restore collectives
//! through one handle. Instrumentation, validation and future pipelined
//! execution all hang off the session instead of being re-plumbed per call.

use replidedup_buf::Chunk;
use replidedup_hash::{ChunkHasher, ChunkerKind, Sha1ChunkHasher};
use replidedup_mpi::{Comm, CommError};
use replidedup_storage::{Cluster, DumpId, ScrubReport, SessionError, SessionId};

use crate::config::{ConfigError, DumpConfig, RedundancyPolicy, Strategy};
use crate::dump::{dump_impl, DumpContext, DumpError};
use crate::heal::{heal_impl, heal_step_impl, HealCursor, HealOptions, HealReport, TokenBucket};
use crate::repair::{scrub_impl, RepairError};
use crate::restore::{generations_impl, restore_impl, Generations, RestoreError};
use crate::stats::DumpStats;

/// Top-level error of the session API: every failure class of the
/// replication pipeline, with [`std::error::Error::source`] chains down to
/// the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplError {
    /// The configuration was rejected (only from the builder — a built
    /// [`Replicator`] cannot carry an invalid config).
    Config(ConfigError),
    /// A collective dump failed.
    Dump(DumpError),
    /// A collective restore failed.
    Restore(RestoreError),
    /// A collective heal or scrub failed.
    Repair(RepairError),
    /// A rank died (or a deadlock was suspected) inside a collective this
    /// session drove. A dump that ends here stored no recipe on this rank,
    /// so its generation is incomplete ([`Replicator::generations`]).
    RankFailure(CommError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Config(e) => write!(f, "invalid replicator config: {e}"),
            ReplError::Dump(e) => write!(f, "dump failed: {e}"),
            ReplError::Restore(e) => write!(f, "restore failed: {e}"),
            ReplError::Repair(e) => write!(f, "repair failed: {e}"),
            ReplError::RankFailure(e) => write!(f, "rank failure during collective: {e}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Config(e) => Some(e),
            ReplError::Dump(e) => Some(e),
            ReplError::Restore(e) => Some(e),
            ReplError::Repair(e) => Some(e),
            ReplError::RankFailure(e) => Some(e),
        }
    }
}

impl From<ConfigError> for ReplError {
    fn from(e: ConfigError) -> Self {
        ReplError::Config(e)
    }
}

impl From<DumpError> for ReplError {
    fn from(e: DumpError) -> Self {
        match e {
            DumpError::Comm(c) => ReplError::RankFailure(c),
            other => ReplError::Dump(other),
        }
    }
}

impl From<RestoreError> for ReplError {
    fn from(e: RestoreError) -> Self {
        match e {
            RestoreError::Comm(c) => ReplError::RankFailure(c),
            other => ReplError::Restore(other),
        }
    }
}

impl From<RepairError> for ReplError {
    fn from(e: RepairError) -> Self {
        match e {
            RepairError::Comm(c) => ReplError::RankFailure(c),
            other => ReplError::Repair(other),
        }
    }
}

/// Builder for a [`Replicator`] session. Obtained from
/// [`Replicator::builder`]; finished with [`ReplicatorBuilder::build`],
/// where all validation happens.
pub struct ReplicatorBuilder<'a> {
    cfg: DumpConfig,
    cluster: Option<&'a Cluster>,
    hasher: &'a (dyn ChunkHasher + Sync),
    tracing: Option<bool>,
    heal: HealOptions,
    session_label: Option<String>,
}

impl std::fmt::Debug for ReplicatorBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatorBuilder")
            .field("cfg", &self.cfg)
            .field("cluster", &self.cluster.map(|_| ".."))
            .field("tracing", &self.tracing)
            .field("heal", &self.heal)
            .field("session_label", &self.session_label)
            .finish_non_exhaustive() // hasher is a plain trait object
    }
}

impl<'a> ReplicatorBuilder<'a> {
    /// Target cluster (required).
    pub fn cluster(mut self, cluster: &'a Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Chunk hash function (default: SHA-1, the paper's choice).
    pub fn hasher(mut self, hasher: &'a (dyn ChunkHasher + Sync)) -> Self {
        self.hasher = hasher;
        self
    }

    /// Replication factor `K` (total copies including the local one).
    pub fn replication(mut self, k: u32) -> Self {
        self.cfg = self.cfg.with_replication(k);
        self
    }

    /// Fixed chunk size in bytes.
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.cfg = self.cfg.with_chunk_size(chunk_size);
        self
    }

    /// Chunking algorithm (default: fixed-size, the paper's scheme).
    /// Content-defined [`ChunkerKind::Gear`] carries its own min/avg/max
    /// parameters and realigns chunk boundaries under byte shifts,
    /// trading a cut-point scan for dedup on shifted duplicates.
    pub fn with_chunker(mut self, chunker: ChunkerKind) -> Self {
        self.cfg = self.cfg.with_chunker(chunker);
        self
    }

    /// Per-chunk redundancy policy: `K`× replication (the default and the
    /// paper's scheme), Reed-Solomon `k + m` striping, or the automatic
    /// per-chunk choice. See [`RedundancyPolicy`] for the dedup-credit
    /// rule the coded policies apply.
    pub fn with_policy(mut self, policy: RedundancyPolicy) -> Self {
        self.cfg = self.cfg.with_policy(policy);
        self
    }

    /// Reduction threshold `F`.
    pub fn f_threshold(mut self, f: usize) -> Self {
        self.cfg = self.cfg.with_f_threshold(f);
        self
    }

    /// Load-aware partner selection (Algorithm 2) on or off.
    pub fn shuffle(mut self, shuffle: bool) -> Self {
        self.cfg = self.cfg.with_shuffle(shuffle);
        self
    }

    /// Replace the whole configuration at once (including the strategy).
    /// Escape hatch for callers that already hold a [`DumpConfig`]; it is
    /// still validated by [`ReplicatorBuilder::build`].
    pub fn with_config(mut self, cfg: DumpConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Force the communicator's phase tracer on (or off) for every
    /// collective this session drives. Default: inherit whatever the world
    /// was configured with (the zero-cost no-op sink unless enabled).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = Some(enabled);
        self
    }

    /// Tuning for the incremental background healer
    /// ([`Replicator::heal`] and friends): the chunk and owner window
    /// sizes (a window also rebuilds the stripe shards it lists), the
    /// optional byte rate limit, and the optional superseded-generation
    /// GC bound, collected node by node in the scrub step. Must be
    /// identical on every rank driving the same heal.
    pub fn heal_options(mut self, opts: HealOptions) -> Self {
        self.heal = opts;
        self
    }

    /// Name this session on the cluster. Labeled sessions get their own
    /// [`SessionId`]: a private dump-id generation space and a private
    /// point-to-point tag namespace, so several labeled [`Replicator`]s
    /// can dump, restore and heal against the same cluster concurrently
    /// without their generations or in-flight messages colliding.
    ///
    /// Labels must be unique among *live* sessions on the cluster —
    /// [`ReplicatorBuilder::build`] returns
    /// [`ConfigError::DuplicateSession`] otherwise, and
    /// [`ConfigError::SessionsExhausted`] once the cluster has handed out
    /// every session id. The registration is
    /// released when the [`Replicator`] is dropped, but its [`SessionId`]
    /// is never reused, so a crashed session's stale messages and
    /// generations can never alias a later one's.
    pub fn session_label(mut self, label: impl Into<String>) -> Self {
        self.session_label = Some(label.into());
        self
    }

    /// Validate and build the session.
    pub fn build(self) -> Result<Replicator<'a>, ConfigError> {
        self.cfg.validate()?;
        let cluster = self.cluster.ok_or(ConfigError::MissingCluster)?;
        let session = match &self.session_label {
            Some(label) => Some(cluster.begin_session(label).map_err(|e| match e {
                SessionError::Duplicate => ConfigError::DuplicateSession {
                    label: label.clone(),
                },
                SessionError::Exhausted => ConfigError::SessionsExhausted,
            })?),
            None => None,
        };
        Ok(Replicator {
            cfg: self.cfg,
            cluster,
            hasher: self.hasher,
            tracing: self.tracing,
            heal: self.heal,
            session,
        })
    }
}

/// A validated replication session: one strategy, one cluster, one hasher,
/// any number of dump/restore collectives.
///
/// ```
/// use replidedup_core::{Replicator, Strategy};
/// use replidedup_mpi::WorldConfig;
/// use replidedup_storage::{Cluster, Placement};
///
/// let cluster = Cluster::new(Placement::one_per_node(4));
/// let repl = Replicator::builder(Strategy::CollDedup)
///     .cluster(&cluster)
///     .replication(3)
///     .chunk_size(64)
///     .build()
///     .unwrap();
/// let out = WorldConfig::default().launch(4, |comm| {
///     let buf = vec![comm.rank() as u8; 256];
///     // Passing the Vec by value enters the zero-copy path.
///     repl.dump(comm, 1, buf.clone()).unwrap();
///     assert_eq!(repl.restore(comm, 1).unwrap(), buf);
/// }).expect_all();
/// ```
pub struct Replicator<'a> {
    cfg: DumpConfig,
    cluster: &'a Cluster,
    hasher: &'a (dyn ChunkHasher + Sync),
    tracing: Option<bool>,
    heal: HealOptions,
    session: Option<SessionId>,
}

impl Drop for Replicator<'_> {
    fn drop(&mut self) {
        // Release the label so it can be claimed again; the SessionId
        // itself is never reused (see `Cluster::begin_session`).
        if let Some(id) = self.session {
            self.cluster.end_session(id);
        }
    }
}

impl std::fmt::Debug for Replicator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("cfg", &self.cfg)
            .field("tracing", &self.tracing)
            .field("session", &self.session)
            .finish_non_exhaustive() // cluster/hasher carry no useful Debug
    }
}

impl<'a> Replicator<'a> {
    /// Start building a session for `strategy`, from the paper-faithful
    /// defaults (`K = 3`, 4 KiB chunks, `F = 2^17`, shuffle for
    /// `coll-dedup`).
    pub fn builder(strategy: Strategy) -> ReplicatorBuilder<'a> {
        ReplicatorBuilder {
            cfg: DumpConfig::paper_defaults(strategy),
            cluster: None,
            hasher: &Sha1ChunkHasher,
            tracing: None,
            heal: HealOptions::default(),
            session_label: None,
        }
    }

    /// The validated configuration this session runs with.
    pub fn config(&self) -> &DumpConfig {
        &self.cfg
    }

    /// The session's strategy.
    pub fn strategy(&self) -> Strategy {
        self.cfg.strategy
    }

    /// The cluster this session dumps into.
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// The session id this replicator operates under:
    /// [`SessionId::DEFAULT`] unless the builder registered a
    /// [`ReplicatorBuilder::session_label`].
    pub fn session_id(&self) -> SessionId {
        self.session.unwrap_or(SessionId::DEFAULT)
    }

    /// Fold the session into `dump_id`: labeled sessions address their
    /// own generation space ([`SessionId::scope`]); the default session
    /// keeps raw ids, so unlabeled callers see the historical layout.
    fn scoped_id(&self, dump_id: DumpId) -> DumpId {
        self.session_id().scope(dump_id)
    }

    /// Put `comm` under this session (tracing preference, tag namespace)
    /// and build the collective's context for the already-scoped `dump_id`.
    fn enter(&self, comm: &mut Comm, dump_id: DumpId) -> DumpContext<'_> {
        if let Some(on) = self.tracing {
            comm.set_tracing(on);
        }
        comm.set_tag_namespace(self.session_id().as_u16());
        DumpContext {
            cluster: self.cluster,
            hasher: self.hasher,
            dump_id,
        }
    }

    /// Collective `DUMP_OUTPUT(buffer, K)`: dump `data` as generation
    /// `dump_id`. Must be called by every rank of the world.
    ///
    /// Accepts anything convertible to a [`Chunk`]: a `Vec<u8>`, a
    /// [`bytes::Bytes`] or an existing [`Chunk`] enters the zero-copy hot
    /// path (the dumped chunks are slices of the buffer you pass); a
    /// borrowed `&[u8]` / `&Vec<u8>` still works but pays one recorded
    /// copy at the boundary.
    pub fn dump(
        &self,
        comm: &mut Comm,
        dump_id: DumpId,
        data: impl Into<Chunk>,
    ) -> Result<DumpStats, ReplError> {
        let ctx = self.enter(comm, self.scoped_id(dump_id));
        dump_impl(comm, &ctx, &data.into(), &self.cfg)
            .map(|mut stats| {
                stats.session = self.session_id();
                stats
            })
            .map_err(ReplError::from)
    }

    /// Collective restore of this rank's buffer from generation `dump_id`.
    /// Must be called by every rank of the world.
    ///
    /// Returns the reassembled buffer as a [`Chunk`]; callers that need a
    /// `Vec<u8>` can use `Vec::from(chunk)` (one recorded copy).
    pub fn restore(&self, comm: &mut Comm, dump_id: DumpId) -> Result<Chunk, ReplError> {
        let ctx = self.enter(comm, self.scoped_id(dump_id));
        restore_impl(comm, &ctx, self.cfg.strategy).map_err(ReplError::from)
    }

    /// Collective: which of this session's generations storage can restore.
    /// Each live node's leader reads only its own node, and rank 0 judges
    /// every generation once, so every rank gets the same answer: the
    /// newest complete generation, the one a restart restores, and the
    /// newest generation with anything stored, past which the next dump's
    /// id must lie. Must be called by every rank of the world.
    pub fn generations(&self, comm: &mut Comm) -> Result<Generations, ReplError> {
        self.enter(comm, 0);
        generations_impl(comm, self.cluster, self.session_id()).map_err(ReplError::RankFailure)
    }

    /// Collective heal of generation `dump_id`, from the beginning: scrub
    /// and quarantine, then re-replicate every under-replicated chunk and
    /// re-materialize lost manifests/blobs, rebuilding every missing
    /// erasure-coded shard on its home node in the same windows, until everything the dump
    /// still references has `min(K, live_nodes)` intact copies (or a full
    /// `k+m` stripe). Under an `Rs`/`Auto` policy the replica target is
    /// the same `m+1` floor the dump's pipeline used, so healing converges
    /// to exactly the dump's redundancy, not past it. Executed as a
    /// sequence of bounded, rate-limited steps (see
    /// [`ReplicatorBuilder::heal_options`]) that other collectives can
    /// interleave with. Idempotent — re-running after a crash converges.
    /// Must be called by every rank of the world (a revived node's ranks
    /// included).
    pub fn heal(&self, comm: &mut Comm, dump_id: DumpId) -> Result<HealReport, ReplError> {
        let mut cursor = HealCursor::new(self.scoped_id(dump_id));
        self.heal_from(comm, &mut cursor)
    }

    /// Collective incremental heal resumed from `cursor` — typically a
    /// [`HealCursor`] decoded from bytes a killed healer persisted.
    /// Drives the cursor to [`crate::HealStage::Done`]; the report
    /// covers the steps this call drove. Must be called by every rank
    /// of the world with an identical cursor.
    pub fn heal_from(
        &self,
        comm: &mut Comm,
        cursor: &mut HealCursor,
    ) -> Result<HealReport, ReplError> {
        let ctx = self.enter(comm, cursor.dump_id);
        let k = self.cfg.policy.hmerge_k(self.cfg.replication);
        heal_impl(comm, &ctx, self.cfg.strategy, k, &self.heal, cursor)
            .map(|mut report| {
                report.session = self.session_id();
                report
            })
            .map_err(ReplError::from)
    }

    /// Advance one bounded healing step, folding what it did into
    /// `report`. Returns `true` while steps remain — the operator's
    /// loop shape for healing under live traffic, pausing, persisting
    /// the cursor, or yielding the world between steps. Each call
    /// grants the rate limiter's burst anew; for a sustained bound over
    /// a whole heal prefer [`Replicator::heal_from`]. Collective.
    pub fn heal_step(
        &self,
        comm: &mut Comm,
        cursor: &mut HealCursor,
        report: &mut HealReport,
    ) -> Result<bool, ReplError> {
        let ctx = self.enter(comm, cursor.dump_id);
        let k = self.cfg.policy.hmerge_k(self.cfg.replication);
        let mut bucket = self.heal.rate.map(TokenBucket::new);
        report.session = self.session_id();
        heal_step_impl(
            comm,
            &ctx,
            self.cfg.strategy,
            k,
            &self.heal,
            &mut bucket,
            cursor,
            report,
        )?;
        Ok(!cursor.is_done())
    }

    /// Collective integrity scrub: every live node is re-hashed and
    /// cross-checked by its leader rank, stripe parity is verified
    /// cluster-wide, and all ranks return the identical merged
    /// cluster-wide [`ScrubReport`]. Read-only — use
    /// [`Replicator::heal`] to act on what it finds.
    pub fn scrub(&self, comm: &mut Comm) -> Result<ScrubReport, ReplError> {
        let ctx = self.enter(comm, 0);
        scrub_impl(comm, &ctx, true).map_err(ReplError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_hash::{Fingerprint, Sha1};
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::Placement;
    use std::error::Error as _;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cluster(n: u32) -> Cluster {
        Cluster::new(Placement::one_per_node(n))
    }

    /// SHA-1 with the first digest byte inverted: every fingerprint differs
    /// from plain SHA-1's, so any path that ignores the session's hasher
    /// disagrees with the paths that use it.
    struct FlippedSha1;

    impl ChunkHasher for FlippedSha1 {
        fn name(&self) -> &'static str {
            "sha1-flipped"
        }

        fn fingerprint(&self, chunk: &[u8]) -> Fingerprint {
            let mut digest = Sha1::digest(chunk);
            digest[0] = !digest[0];
            Fingerprint::from_bytes(digest)
        }
    }

    /// SHA-1 that counts its calls, to pin how often a path hashes.
    #[derive(Default)]
    struct CountingSha1(AtomicUsize);

    impl ChunkHasher for CountingSha1 {
        fn name(&self) -> &'static str {
            "sha1-counting"
        }

        fn fingerprint(&self, chunk: &[u8]) -> Fingerprint {
            self.0.fetch_add(1, Ordering::Relaxed);
            Sha1ChunkHasher.fingerprint(chunk)
        }
    }

    #[test]
    fn builder_rejects_invalid_configs_with_typed_errors() {
        let c = cluster(2);
        let err = |b: ReplicatorBuilder<'_>| b.build().err().unwrap();
        assert_eq!(
            err(Replicator::builder(Strategy::CollDedup)
                .cluster(&c)
                .replication(0)),
            ConfigError::ZeroReplication
        );
        assert_eq!(
            err(Replicator::builder(Strategy::CollDedup)
                .cluster(&c)
                .chunk_size(0)),
            ConfigError::ZeroChunkSize
        );
        assert_eq!(
            err(Replicator::builder(Strategy::CollDedup)
                .cluster(&c)
                .f_threshold(0)),
            ConfigError::ZeroFThreshold
        );
        assert_eq!(
            err(Replicator::builder(Strategy::CollDedup)),
            ConfigError::MissingCluster
        );
    }

    #[test]
    fn a_cluster_out_of_session_ids_is_a_typed_config_error() {
        let c = cluster(1);
        let open = || {
            Replicator::builder(Strategy::CollDedup)
                .cluster(&c)
                .session_label("nightly")
                .build()
        };
        // Each session closes when its replicator drops; ids are never
        // reused, so the cluster hands out exactly `u16::MAX` of them.
        for _ in 0..u16::MAX {
            open().expect("an id is left");
        }
        assert_eq!(open().err(), Some(ConfigError::SessionsExhausted));
    }

    #[test]
    fn builder_absorbs_config_fields() {
        let c = cluster(2);
        let repl = Replicator::builder(Strategy::LocalDedup)
            .cluster(&c)
            .hasher(&FlippedSha1)
            .replication(2)
            .chunk_size(128)
            .f_threshold(64)
            .shuffle(true)
            .build()
            .unwrap();
        let cfg = repl.config();
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.chunk_size, 128);
        assert_eq!(cfg.f_threshold, 64);
        assert!(cfg.shuffle);
        assert_eq!(repl.strategy(), Strategy::LocalDedup);
    }

    #[test]
    fn session_round_trips_every_strategy() {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            let c = cluster(3);
            let repl = Replicator::builder(strategy)
                .cluster(&c)
                .replication(2)
                .chunk_size(64)
                .build()
                .unwrap();
            let out = WorldConfig::default()
                .launch(3, |comm| {
                    let buf = vec![comm.rank() as u8 + 1; 300];
                    repl.dump(comm, 7, &buf).unwrap();
                    (repl.restore(comm, 7).unwrap(), buf)
                })
                .expect_all();
            for (restored, original) in out.results {
                assert_eq!(restored, original, "{}", strategy.label());
            }
        }
    }

    #[test]
    fn session_hasher_drives_dump_restore_and_scrub() {
        let c = cluster(3);
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&c)
            .hasher(&FlippedSha1)
            .with_policy(RedundancyPolicy::Replicate(2))
            .chunk_size(64)
            .tracing(true)
            .build()
            .unwrap();
        let shared = [0x5Au8; 64];
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let mut buf = shared.repeat(4);
                buf.extend(vec![comm.rank() as u8 + 1; 200]);
                repl.dump(comm, 1, &buf).unwrap();
                comm.take_trace_events();
                let restored = repl.restore(comm, 1).unwrap() == buf;
                let fallbacks = comm
                    .take_trace_events()
                    .iter()
                    .filter(|e| e.name == "restore_replica_fallback")
                    .count();
                (restored, fallbacks, repl.scrub(comm).unwrap())
            })
            .expect_all();
        for (restored, fallbacks, report) in out.results {
            assert!(restored);
            assert_eq!(fallbacks, 0, "restore must verify with the session hasher");
            assert!(report.chunks_checked > 0);
            assert!(
                report.corrupt.is_empty(),
                "scrub must re-hash with the session hasher"
            );
            assert!(report.is_clean(), "{report:?}");
        }
        // The stores are keyed by the session hasher's fingerprints.
        let held = |fp: Fingerprint| (0..3).any(|node| c.has_chunk(node, &fp));
        assert!(held(FlippedSha1.fingerprint(&shared)));
        assert!(!held(Sha1ChunkHasher.fingerprint(&shared)));
    }

    /// A healthy restore verifies each distinct chunk once, however many
    /// times the manifest references it.
    #[test]
    fn healthy_restore_hashes_each_distinct_chunk_once() {
        let c = cluster(3);
        let hasher = CountingSha1::default();
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&c)
            .hasher(&hasher)
            .replication(2)
            .chunk_size(64)
            .build()
            .unwrap();
        // Per rank: R = 4 + 2 + 1 = 7 chunk references to D = 3 distinct
        // chunks (one shared by every rank, one private, one tail).
        let buffer = |rank: u32| {
            let mut buf = [0x5Au8; 64].repeat(4);
            buf.extend([rank as u8 + 1; 128]);
            buf.extend([0xC3; 20]);
            buf
        };
        WorldConfig::default()
            .launch(3, |comm| repl.dump(comm, 1, buffer(comm.rank())).unwrap())
            .expect_all();
        hasher.0.store(0, Ordering::Relaxed);
        let out = WorldConfig::default()
            .launch(3, |comm| {
                repl.restore(comm, 1).unwrap() == buffer(comm.rank())
            })
            .expect_all();
        assert!(out.results.into_iter().all(|ok| ok));
        assert_eq!(hasher.0.load(Ordering::Relaxed), 3 * 3, "3 ranks × D");
    }

    /// A hasher with no batch kernel keeps the trait's default
    /// `fingerprint_all`: a dump hashes each chunk once, and a heal's
    /// scrub each stored chunk once.
    #[test]
    fn a_hasher_without_a_batch_kernel_hashes_each_chunk_once() {
        let c = cluster(3);
        let hasher = CountingSha1::default();
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&c)
            .hasher(&hasher)
            .replication(2)
            .chunk_size(64)
            .build()
            .unwrap();
        // Per rank: 4 + 2 + 1 = 7 chunks.
        let buffer = |rank: u32| {
            let mut buf = [0x5Au8; 64].repeat(4);
            buf.extend([rank as u8 + 1; 128]);
            buf.extend([0xC3; 20]);
            buf
        };
        WorldConfig::default()
            .launch(3, |comm| repl.dump(comm, 1, buffer(comm.rank())).unwrap())
            .expect_all();
        assert_eq!(
            hasher.0.swap(0, Ordering::Relaxed),
            3 * 7,
            "3 ranks × 7 chunks"
        );
        let stored: usize = (0..3)
            .map(|node| c.chunk_fps(node, None, usize::MAX).unwrap().len())
            .sum();
        WorldConfig::default()
            .launch(3, |comm| repl.heal(comm, 1).unwrap())
            .expect_all();
        assert!(stored > 0);
        assert_eq!(
            hasher.0.load(Ordering::Relaxed),
            stored,
            "one per stored chunk"
        );
    }

    #[test]
    fn one_session_many_dumps() {
        let c = cluster(2);
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&c)
            .replication(2)
            .chunk_size(32)
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(2, |comm| {
                for gen in 1..=3u64 {
                    let buf = vec![(comm.rank() as u8) ^ (gen as u8); 128];
                    repl.dump(comm, gen, &buf).unwrap();
                }
                repl.restore(comm, 2).unwrap()
            })
            .expect_all();
        assert_eq!(out.results[0], vec![2u8; 128]);
        assert_eq!(out.results[1], vec![1u8 ^ 2; 128]);
    }

    #[test]
    fn repl_error_chains_to_source() {
        let e = ReplError::Dump(DumpError::Config(ConfigError::ZeroChunkSize));
        let dump_err = e.source().unwrap();
        assert!(dump_err.to_string().contains("chunk_size"));
        let config_err = dump_err.source().unwrap();
        assert!(config_err.downcast_ref::<ConfigError>().is_some());
        let e = ReplError::Restore(RestoreError::RecipeLost { rank: 3 });
        assert!(e.to_string().contains("rank 3"));
    }

    #[test]
    fn duplicate_session_labels_are_rejected_until_dropped() {
        let c = cluster(2);
        let build = |label: &str| {
            Replicator::builder(Strategy::CollDedup)
                .cluster(&c)
                .replication(2)
                .chunk_size(64)
                .session_label(label)
                .build()
        };
        let a = build("app-a").unwrap();
        let id_a = a.session_id();
        assert_ne!(id_a, SessionId::DEFAULT);
        assert_eq!(
            build("app-a").err().unwrap(),
            ConfigError::DuplicateSession {
                label: "app-a".into()
            }
        );
        let b = build("app-b").unwrap();
        assert_ne!(b.session_id(), id_a);
        drop(a);
        // The label frees on drop, but the id is never reused.
        let a2 = build("app-a").unwrap();
        assert_ne!(a2.session_id(), id_a);
        assert_ne!(a2.session_id(), b.session_id());
    }

    #[test]
    fn labeled_sessions_partition_generations_and_stamp_stats() {
        let c = cluster(2);
        let mk = |label: &str| {
            Replicator::builder(Strategy::CollDedup)
                .cluster(&c)
                .replication(2)
                .chunk_size(32)
                .session_label(label)
                .build()
                .unwrap()
        };
        let a = mk("writer-a");
        let b = mk("writer-b");
        // The same user-facing dump id in both sessions, different data.
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let buf_a = vec![0xAAu8 ^ comm.rank() as u8; 128];
                let buf_b = vec![0xBBu8 ^ comm.rank() as u8; 128];
                let sa = a.dump(comm, 1, &buf_a).unwrap();
                let sb = b.dump(comm, 1, &buf_b).unwrap();
                assert_eq!(sa.session, a.session_id());
                assert_eq!(sb.session, b.session_id());
                let ra = Vec::from(a.restore(comm, 1).unwrap());
                let rb = Vec::from(b.restore(comm, 1).unwrap());
                (ra == buf_a, rb == buf_b)
            })
            .expect_all();
        assert!(out.results.iter().all(|&(ra, rb)| ra && rb));
    }

    #[test]
    fn default_session_keeps_raw_dump_ids() {
        let c = cluster(2);
        let repl = Replicator::builder(Strategy::LocalDedup)
            .cluster(&c)
            .replication(2)
            .chunk_size(64)
            .build()
            .unwrap();
        assert_eq!(repl.session_id(), SessionId::DEFAULT);
        assert_eq!(repl.scoped_id(42), 42);
    }

    #[test]
    fn session_tracing_override_enables_recorder() {
        let c = cluster(2);
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&c)
            .replication(2)
            .chunk_size(64)
            .tracing(true)
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(2, |comm| {
                repl.dump(comm, 1, &[7u8; 128]).unwrap();
                comm.take_trace_events().len()
            })
            .expect_all();
        assert!(
            out.results.iter().all(|&n| n > 0),
            "tracing(true) must record events"
        );
    }
}
