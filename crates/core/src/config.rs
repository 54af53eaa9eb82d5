//! Configuration of the collective dump.

use std::fmt;

use replidedup_ec::RsCode;
use replidedup_hash::ChunkerKind;

/// A dump configuration rejected at build/validation time.
///
/// Produced by [`DumpConfig::validate`] and by
/// [`crate::ReplicatorBuilder::build`], so malformed parameters surface as
/// typed errors before any collective starts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `K = 0`: at least the local copy is required.
    ZeroReplication,
    /// `chunk_size = 0`: chunks must hold at least one byte.
    ZeroChunkSize,
    /// `chunk_size` does not fit the `u32` record header used on the wire.
    ChunkSizeOverflow {
        /// The rejected chunk size.
        chunk_size: usize,
    },
    /// `F = 0`: the reduction must be allowed to keep fingerprints.
    ZeroFThreshold,
    /// No [`replidedup_storage::Cluster`] was supplied to the builder.
    MissingCluster,
    /// The chunker's parameters are inconsistent (e.g. `min_size >
    /// max_size`).
    InvalidChunker {
        /// What the chunker validation rejected.
        reason: &'static str,
    },
    /// The Reed-Solomon geometry of a [`RedundancyPolicy`] is unusable:
    /// `k` and `m` must both be at least 1 and `k + m` must fit GF(2^8)
    /// (at most 255 shards).
    InvalidRsParams {
        /// Data shard count of the rejected policy.
        k: u8,
        /// Parity shard count of the rejected policy.
        m: u8,
    },
    /// Another live [`crate::Replicator`] already registered the same
    /// `session_label` on the target cluster. Concurrent sessions must
    /// carry distinct labels so their tag namespaces and dump-id
    /// generations cannot collide.
    DuplicateSession {
        /// The label that is already active on the cluster.
        label: String,
    },
    /// The target cluster has handed out every labeled-session id. Ids are
    /// never reused, so no further labeled [`crate::Replicator`] can be
    /// built against it.
    SessionsExhausted,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroReplication => write!(f, "replication factor must be at least 1"),
            ConfigError::ZeroChunkSize => write!(f, "chunk_size must be positive"),
            ConfigError::ChunkSizeOverflow { chunk_size } => {
                write!(f, "chunk_size {chunk_size} must fit in a u32 record header")
            }
            ConfigError::ZeroFThreshold => write!(f, "f_threshold must be positive"),
            ConfigError::MissingCluster => {
                write!(
                    f,
                    "a target cluster is required: call .cluster(..) before .build()"
                )
            }
            ConfigError::InvalidChunker { reason } => {
                write!(f, "invalid chunker parameters: {reason}")
            }
            ConfigError::InvalidRsParams { k, m } => {
                write!(
                    f,
                    "invalid Reed-Solomon geometry k={k} m={m}: need k >= 1, m >= 1, k + m <= 255"
                )
            }
            ConfigError::DuplicateSession { label } => {
                write!(
                    f,
                    "session label {label:?} is already active on this cluster; \
                     concurrent sessions need distinct labels"
                )
            }
            ConfigError::SessionsExhausted => {
                write!(f, "the cluster has no labeled-session ids left")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which replication scheme to run — the three settings of the paper's
/// evaluation (Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Strategy {
    /// `no-dedup`: full replication. Every chunk is stored locally and sent
    /// to `K-1` partners; no redundancy elimination at all.
    NoDedup,
    /// `local-dedup`: each rank removes its own duplicate chunks first,
    /// then replicates the locally unique remainder to `K-1` partners.
    LocalDedup,
    /// `coll-dedup`: the paper's contribution. Local dedup plus the
    /// collective fingerprint reduction; chunks already duplicated on at
    /// least `K` ranks are not replicated (surplus copies are discarded),
    /// under-replicated ones get topped up to `K` copies.
    CollDedup,
}

impl Strategy {
    /// The label the paper uses for this setting.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::NoDedup => "no-dedup",
            Strategy::LocalDedup => "local-dedup",
            Strategy::CollDedup => "coll-dedup",
        }
    }
}

/// Per-chunk redundancy scheme: how a chunk survives node losses once the
/// dedup pass has decided who holds it.
///
/// The paper's scheme is [`RedundancyPolicy::Replicate`] — `K` full
/// copies, fault tolerance `K - 1` at `K`× storage. Erasure coding
/// ([`RedundancyPolicy::Rs`]) reaches the same tolerance `m` at
/// `(k + m) / k`× storage by striping each payload into `k` data +
/// `m` parity shards on distinct nodes. [`RedundancyPolicy::Auto`]
/// chooses per chunk.
///
/// Both coded policies apply the *dedup credit*: a chunk the application
/// already wrote on `m + 1` or more ranks survives any `m` losses with no
/// redundancy added, so the HMERGE reduction keeps `m + 1` of its natural
/// copies and skips parity generation entirely. Only chunks the cluster
/// cannot cover naturally pay for a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RedundancyPolicy {
    /// Full replication with `K` total copies (the paper's scheme).
    Replicate(u32),
    /// Reed-Solomon `k + m` striping for every chunk that is not already
    /// naturally duplicated on `m + 1` ranks.
    Rs {
        /// Data shards per stripe.
        k: u8,
        /// Parity shards per stripe; the stripe survives any `m` losses.
        m: u8,
    },
    /// Per-chunk choice: chunks smaller than `replicate_below` bytes or
    /// naturally duplicated on `m + 1` ranks stay replicated (striping a
    /// tiny chunk costs more in shard bookkeeping than the parity saves);
    /// large cold chunks are coded as `k + m` stripes.
    Auto {
        /// Data shards per stripe for the coded chunks.
        k: u8,
        /// Parity shards per stripe for the coded chunks.
        m: u8,
        /// Chunks strictly smaller than this many bytes are replicated.
        replicate_below: usize,
    },
}

impl Default for RedundancyPolicy {
    /// The paper's default: 3× replication.
    fn default() -> Self {
        RedundancyPolicy::Replicate(3)
    }
}

impl RedundancyPolicy {
    /// The Reed-Solomon geometry, when the policy can code chunks.
    pub fn rs_params(self) -> Option<(u8, u8)> {
        match self {
            RedundancyPolicy::Replicate(_) => None,
            RedundancyPolicy::Rs { k, m } | RedundancyPolicy::Auto { k, m, .. } => Some((k, m)),
        }
    }

    /// Losses this policy tolerates: `K - 1` for replication, `m` for the
    /// coded policies (the dedup credit keeps `m + 1` natural copies, so
    /// replicated-by-credit chunks match the stripes' tolerance).
    pub fn fault_tolerance(self) -> u32 {
        match self {
            RedundancyPolicy::Replicate(k) => k.saturating_sub(1),
            RedundancyPolicy::Rs { m, .. } | RedundancyPolicy::Auto { m, .. } => u32::from(m),
        }
    }

    /// Whether a chunk of `len` bytes that the reduction saw on `freq`
    /// ranks gets coded into a stripe (as opposed to replicated / credited
    /// with its natural copies).
    pub fn codes_chunk(self, len: usize, freq: usize) -> bool {
        match self {
            RedundancyPolicy::Replicate(_) => false,
            RedundancyPolicy::Rs { m, .. } => freq <= m as usize,
            RedundancyPolicy::Auto {
                m, replicate_below, ..
            } => len >= replicate_below && freq <= m as usize,
        }
    }

    /// The copy target the HMERGE reduction designates keepers for. Under
    /// replication this is `K`; under `Rs` it is `m + 1`, so naturally
    /// duplicated chunks retain exactly enough copies to match the stripe
    /// tolerance and surplus copies are still discarded. `Auto` keeps the
    /// larger of the two, since its small chunks are replicated to `K`.
    pub fn hmerge_k(self, cfg_k: u32) -> u32 {
        match self {
            RedundancyPolicy::Replicate(k) => k,
            RedundancyPolicy::Rs { m, .. } => u32::from(m) + 1,
            RedundancyPolicy::Auto { m, .. } => cfg_k.max(u32::from(m) + 1),
        }
    }

    /// Validate the policy parameters.
    pub fn validate(self) -> Result<(), ConfigError> {
        match self {
            RedundancyPolicy::Replicate(0) => Err(ConfigError::ZeroReplication),
            _ => self.rs_code().map(drop),
        }
    }

    /// The checked Reed-Solomon code, when the policy can code chunks.
    pub fn rs_code(self) -> Result<Option<RsCode>, ConfigError> {
        self.rs_params()
            .map(|(k, m)| RsCode::new(k, m).map_err(|_| ConfigError::InvalidRsParams { k, m }))
            .transpose()
    }
}

/// Parameters of one `DUMP_OUTPUT` collective.
///
/// Construct via [`DumpConfig::paper_defaults`] and the `with_*` builders
/// (the struct is `#[non_exhaustive]`), or go through
/// [`crate::Replicator::builder`], which validates at build time.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct DumpConfig {
    /// Replication scheme.
    pub strategy: Strategy,
    /// Desired replication factor `K` (total copies, including the local
    /// one). Clamped to the world size at run time.
    pub replication: u32,
    /// Fixed chunk size in bytes (paper: 4 KiB, the memory page size).
    /// Used by the [`ChunkerKind::Fixed`] chunker and as the transport
    /// framing unit for `no-dedup` dumps (which never hash or chunk by
    /// content).
    pub chunk_size: usize,
    /// Chunking algorithm for the dedup strategies (default: fixed-size,
    /// the paper's scheme). CDC kinds carry their own size parameters.
    pub chunker: ChunkerKind,
    /// Reduction threshold `F`: at most this many fingerprints survive each
    /// merge; the rest are conservatively treated as unique. Paper: 2^17.
    pub f_threshold: usize,
    /// Load-aware partner selection (Algorithm 2). `false` gives the
    /// `coll-no-shuffle` ablation / the naive ring of the baselines.
    pub shuffle: bool,
    /// Per-chunk redundancy scheme (replication, Reed-Solomon stripes, or
    /// the automatic per-chunk choice). Defaults to the paper's `K`×
    /// replication.
    pub policy: RedundancyPolicy,
}

impl DumpConfig {
    /// Paper-faithful defaults for the given strategy: `K = 3`,
    /// 4 KiB chunks, `F = 2^17`, shuffling on for `coll-dedup`.
    pub fn paper_defaults(strategy: Strategy) -> Self {
        Self {
            strategy,
            replication: 3,
            chunk_size: 4096,
            chunker: ChunkerKind::Fixed,
            f_threshold: 1 << 17,
            shuffle: matches!(strategy, Strategy::CollDedup),
            policy: RedundancyPolicy::Replicate(3),
        }
    }

    /// Builder-style: set the replication factor. Keeps a
    /// [`RedundancyPolicy::Replicate`] policy in sync so the two `K`s
    /// cannot silently diverge.
    pub fn with_replication(mut self, k: u32) -> Self {
        self.replication = k;
        if matches!(self.policy, RedundancyPolicy::Replicate(_)) {
            self.policy = RedundancyPolicy::Replicate(k);
        }
        self
    }

    /// Builder-style: select the redundancy policy. A
    /// [`RedundancyPolicy::Replicate`] policy also sets the replication
    /// factor; the coded policies leave `K` in place for the chunks they
    /// keep replicated (manifests, `Auto`'s small chunks).
    pub fn with_policy(mut self, policy: RedundancyPolicy) -> Self {
        self.policy = policy;
        if let RedundancyPolicy::Replicate(k) = policy {
            self.replication = k;
        }
        self
    }

    /// Builder-style: set the chunk size.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Builder-style: select the chunking algorithm.
    pub fn with_chunker(mut self, chunker: ChunkerKind) -> Self {
        self.chunker = chunker;
        self
    }

    /// Builder-style: set the reduction threshold `F`.
    pub fn with_f_threshold(mut self, f: usize) -> Self {
        self.f_threshold = f;
        self
    }

    /// Builder-style: enable or disable rank shuffling.
    pub fn with_shuffle(mut self, shuffle: bool) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.replication == 0 {
            return Err(ConfigError::ZeroReplication);
        }
        if self.chunk_size == 0 {
            return Err(ConfigError::ZeroChunkSize);
        }
        if self.chunk_size > u32::MAX as usize {
            return Err(ConfigError::ChunkSizeOverflow {
                chunk_size: self.chunk_size,
            });
        }
        if self.f_threshold == 0 {
            return Err(ConfigError::ZeroFThreshold);
        }
        self.chunker
            .validate()
            .map_err(|reason| ConfigError::InvalidChunker { reason })?;
        self.policy.validate()?;
        if self.record_payload_cap() > u32::MAX as usize {
            return Err(ConfigError::ChunkSizeOverflow {
                chunk_size: self.record_payload_cap(),
            });
        }
        Ok(())
    }

    /// Largest chunk payload one exchange-record cell must hold for this
    /// config: the fixed chunk size for `no-dedup` (pure transport
    /// framing, no content chunking) and for the fixed chunker; the CDC
    /// chunker's `max_size` otherwise.
    pub fn record_payload_cap(&self) -> usize {
        match self.strategy {
            Strategy::NoDedup => self.chunk_size,
            Strategy::LocalDedup | Strategy::CollDedup => {
                self.chunker.max_chunk_len(self.chunk_size)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = DumpConfig::paper_defaults(Strategy::CollDedup);
        assert_eq!(c.replication, 3);
        assert_eq!(c.chunk_size, 4096);
        assert_eq!(c.f_threshold, 1 << 17);
        assert!(c.shuffle);
        let c = DumpConfig::paper_defaults(Strategy::NoDedup);
        assert!(!c.shuffle, "baselines use the naive ring");
    }

    #[test]
    fn labels() {
        assert_eq!(Strategy::NoDedup.label(), "no-dedup");
        assert_eq!(Strategy::LocalDedup.label(), "local-dedup");
        assert_eq!(Strategy::CollDedup.label(), "coll-dedup");
    }

    #[test]
    fn builders_chain() {
        let c = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(6)
            .with_chunk_size(512)
            .with_f_threshold(128)
            .with_shuffle(false);
        assert_eq!(c.replication, 6);
        assert_eq!(c.chunk_size, 512);
        assert_eq!(c.f_threshold, 128);
        assert!(!c.shuffle);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_params() {
        let base = DumpConfig::paper_defaults(Strategy::CollDedup);
        assert_eq!(
            base.with_replication(0).validate(),
            Err(ConfigError::ZeroReplication)
        );
        assert_eq!(
            base.with_chunk_size(0).validate(),
            Err(ConfigError::ZeroChunkSize)
        );
        assert_eq!(
            base.with_f_threshold(0).validate(),
            Err(ConfigError::ZeroFThreshold)
        );
        assert_eq!(
            base.with_chunk_size(u32::MAX as usize + 1).validate(),
            Err(ConfigError::ChunkSizeOverflow {
                chunk_size: u32::MAX as usize + 1
            })
        );
        assert!(base.validate().is_ok());
    }

    #[test]
    fn chunker_selection_validates_and_sizes_the_cell() {
        use replidedup_hash::GearParams;
        let base = DumpConfig::paper_defaults(Strategy::CollDedup);
        assert_eq!(base.chunker, ChunkerKind::Fixed);
        assert_eq!(base.record_payload_cap(), 4096);

        let gear = base.with_chunker(ChunkerKind::Gear(GearParams::default()));
        assert!(gear.validate().is_ok());
        assert_eq!(gear.record_payload_cap(), GearParams::default().max_size);

        // no-dedup never chunks by content: the cap is transport framing.
        let nd = DumpConfig::paper_defaults(Strategy::NoDedup)
            .with_chunker(ChunkerKind::Gear(GearParams::default()));
        assert_eq!(nd.record_payload_cap(), 4096);

        let bad = base.with_chunker(ChunkerKind::Gear(GearParams {
            min_size: 0,
            avg_size: 64,
            max_size: 128,
        }));
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidChunker { .. })
        ));
    }

    #[test]
    fn policy_validation_and_selection() {
        let base = DumpConfig::paper_defaults(Strategy::CollDedup);
        assert_eq!(base.policy, RedundancyPolicy::Replicate(3));

        // Replicate policy and K stay in sync in both directions.
        let c = base.with_policy(RedundancyPolicy::Replicate(2));
        assert_eq!(c.replication, 2);
        let c = base.with_replication(5);
        assert_eq!(c.policy, RedundancyPolicy::Replicate(5));

        // Coded policies leave K alone (manifests and Auto's small chunks
        // still replicate K times).
        let rs = base.with_policy(RedundancyPolicy::Rs { k: 4, m: 2 });
        assert_eq!(rs.replication, 3);
        assert!(rs.validate().is_ok());

        for bad in [
            RedundancyPolicy::Rs { k: 0, m: 2 },
            RedundancyPolicy::Rs { k: 4, m: 0 },
            RedundancyPolicy::Auto {
                k: 200,
                m: 56,
                replicate_below: 0,
            },
        ] {
            let (k, m) = bad.rs_params().unwrap();
            assert_eq!(
                base.with_policy(bad).validate(),
                Err(ConfigError::InvalidRsParams { k, m })
            );
        }
        assert_eq!(
            base.with_policy(RedundancyPolicy::Replicate(0)).validate(),
            Err(ConfigError::ZeroReplication)
        );
    }

    #[test]
    fn policy_chunk_classification() {
        let rep = RedundancyPolicy::Replicate(3);
        let rs = RedundancyPolicy::Rs { k: 4, m: 2 };
        let auto = RedundancyPolicy::Auto {
            k: 4,
            m: 2,
            replicate_below: 1024,
        };

        // Replication never codes.
        assert!(!rep.codes_chunk(1 << 20, 1));
        // Rs codes everything the cluster does not cover naturally: the
        // dedup credit keeps m+1 natural copies instead of a stripe.
        assert!(rs.codes_chunk(100, 1));
        assert!(rs.codes_chunk(100, 2));
        assert!(!rs.codes_chunk(100, 3), "freq >= m+1 is credited");
        // Auto also exempts small chunks.
        assert!(!auto.codes_chunk(1023, 1));
        assert!(auto.codes_chunk(1024, 1));
        assert!(!auto.codes_chunk(1 << 20, 3), "hot chunks stay replicated");

        assert_eq!(rep.hmerge_k(3), 3);
        assert_eq!(rs.hmerge_k(3), 3, "m + 1 natural copies");
        assert_eq!(RedundancyPolicy::Rs { k: 4, m: 1 }.hmerge_k(3), 2);
        assert_eq!(auto.hmerge_k(2), 3, "Auto keeps max(K, m+1)");

        assert_eq!(rep.fault_tolerance(), 2);
        assert_eq!(rs.fault_tolerance(), 2);
        assert_eq!(rep.rs_params(), None);
        assert_eq!(auto.rs_params(), Some((4, 2)));
    }

    #[test]
    fn config_error_display_is_informative() {
        assert!(ConfigError::ZeroReplication
            .to_string()
            .contains("replication"));
        assert!(ConfigError::ChunkSizeOverflow { chunk_size: 5 }
            .to_string()
            .contains('5'));
    }
}
