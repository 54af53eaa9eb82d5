//! Integrity scrubbing: verify that the bytes behind every fingerprint are
//! still the bytes that were written.
//!
//! The paper's replication scheme survives *losing* devices; it never
//! checks that surviving devices still hold what they claim. A chunk store
//! is content-addressed, so the check is self-contained: re-hash every
//! stored chunk and compare against its key. On top of that per-chunk
//! check, the scrubber cross-references the node's manifests against its
//! chunk presence, classifying every inconsistency:
//!
//! * **corrupt** — a chunk whose bytes no longer hash to its key (bit-rot),
//! * **dangling** — a manifest referencing a chunk the node does not hold
//!   (a broken recipe: restore from this node alone would fail),
//! * **length mismatch** — a held chunk whose stored byte count disagrees
//!   with the manifest's per-chunk length (a truncated or padded write;
//!   chunks are variable-length under CDC, so the check reads each
//!   manifest's explicit length list, never a fixed chunk size),
//! * **orphan** — a chunk, held as a copy or as chunk-stripe shards, that
//!   no manifest on the node references (leaked space; harmless to
//!   correctness, reclaimable).
//!
//! Raw `no-dedup` blobs carry no integrity key, so scrub can only confirm
//! their presence, not their content — one more reason the paper's
//! dedup'd format is the robust one.
//!
//! Scrubbing is node-local and lock-coupled: one pass under the node lock
//! yields a consistent snapshot. The collective wrapper (repair in
//! `replidedup-core`) aggregates per-node reports into a cluster view.

use std::collections::BTreeMap;

use bytes::Bytes;
use replidedup_ec::RsCode;
use replidedup_hash::{ChunkHasher, Fingerprint, FpHashSet};
use replidedup_mpi::wire::{Wire, WireResult};

use crate::cluster::{Cluster, NodeId, StorageResult};
use crate::manifest::DumpId;
use crate::shard::{StoredShard, StripeKey};

/// What one scrub pass found. Reports from several nodes merge into a
/// cluster-wide view with [`ScrubReport::merge`]; every finding carries its
/// node id so merged reports stay attributable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ScrubReport {
    /// Chunks re-hashed across the scrubbed node(s).
    pub chunks_checked: u64,
    /// Corrupt chunks: `(node, fingerprint)` whose bytes no longer hash to
    /// the key. Sorted, deduplicated.
    pub corrupt: Vec<(NodeId, Fingerprint)>,
    /// Dangling manifest references: `(node, owner_rank, dump_id,
    /// fingerprint)` listed by a manifest on `node` but absent from its
    /// store. Sorted, deduplicated.
    pub dangling: Vec<(NodeId, u32, DumpId, Fingerprint)>,
    /// Held chunks whose stored length disagrees with the manifest's
    /// per-chunk length list: `(node, owner_rank, dump_id, fingerprint)`.
    /// Sorted, deduplicated.
    pub length_mismatch: Vec<(NodeId, u32, DumpId, Fingerprint)>,
    /// Orphaned chunks: `(node, fingerprint)` held by `node`, as a copy or
    /// as chunk-stripe shards, but referenced by none of its manifests
    /// (the collective scrub keeps those no manifest anywhere references,
    /// which a heal's GC drops). Sorted, deduplicated.
    pub orphans: Vec<(NodeId, Fingerprint)>,
    /// Erasure-coded shards examined by the cluster-wide stripe pass
    /// ([`Cluster::scrub_stripes`]).
    pub shards_checked: u64,
    /// Shards inconsistent with their stripe: `(node, stripe, shard
    /// index)` of a copy whose geometry differs from the stripe's, or
    /// whose bytes disagree with the stripe its data shards encode (a
    /// parity copy unequal to the parity recomputed from them, a
    /// duplicate unequal to the lowest node's copy). A single corrupt
    /// data shard is located exactly when the stripe's redundancy allows
    /// it (a chunk stripe's payload hash, or a second parity shard);
    /// otherwise the disagreeing parity copies are flagged, and a chunk
    /// stripe that agrees with itself but not with its key flags its data
    /// shards. Stripes missing a data shard are not checked. Sorted,
    /// deduplicated.
    pub stripe_mismatches: Vec<(NodeId, StripeKey, u8)>,
}

impl ScrubReport {
    /// No findings of any class (checked counts do not matter).
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
            && self.dangling.is_empty()
            && self.length_mismatch.is_empty()
            && self.orphans.is_empty()
            && self.stripe_mismatches.is_empty()
    }

    /// Fold another report (typically from another node) into this one,
    /// keeping every finding list sorted and deduplicated so merged
    /// reports compare deterministically regardless of merge order.
    pub fn merge(&mut self, other: &ScrubReport) {
        self.chunks_checked += other.chunks_checked;
        self.corrupt.extend_from_slice(&other.corrupt);
        self.corrupt.sort_unstable();
        self.corrupt.dedup();
        self.dangling.extend_from_slice(&other.dangling);
        self.dangling.sort_unstable();
        self.dangling.dedup();
        self.length_mismatch
            .extend_from_slice(&other.length_mismatch);
        self.length_mismatch.sort_unstable();
        self.length_mismatch.dedup();
        self.orphans.extend_from_slice(&other.orphans);
        self.orphans.sort_unstable();
        self.orphans.dedup();
        self.shards_checked += other.shards_checked;
        self.stripe_mismatches
            .extend_from_slice(&other.stripe_mismatches);
        self.stripe_mismatches.sort_unstable();
        self.stripe_mismatches.dedup();
    }
}

impl Wire for ScrubReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.chunks_checked.encode(buf);
        self.corrupt.encode(buf);
        self.dangling.encode(buf);
        self.length_mismatch.encode(buf);
        self.orphans.encode(buf);
        self.shards_checked.encode(buf);
        self.stripe_mismatches.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(ScrubReport {
            chunks_checked: u64::decode(input)?,
            corrupt: Vec::decode(input)?,
            dangling: Vec::decode(input)?,
            length_mismatch: Vec::decode(input)?,
            orphans: Vec::decode(input)?,
            shards_checked: u64::decode(input)?,
            stripe_mismatches: Vec::decode(input)?,
        })
    }
}

impl Cluster {
    /// Scrub one node: re-hash every stored chunk against its fingerprint
    /// key with `hasher` (which must be the hasher the chunks were written
    /// with) and cross-check the node's manifests — across *all* dump
    /// generations — against chunk presence. Runs under the node lock, so
    /// the report is a consistent snapshot. Fails with
    /// [`crate::StorageError::NodeDown`] when the node is dead: a wiped
    /// device has nothing to scrub.
    ///
    /// Detection only — quarantining, collection and re-replication are
    /// the heal's job (`replidedup-core`), which is also what clears a
    /// dirty report.
    pub fn scrub(&self, node: NodeId, hasher: &dyn ChunkHasher) -> StorageResult<ScrubReport> {
        self.scrub_node(node, hasher, true)
    }

    /// [`Cluster::scrub`], with the node-local `dangling` and `orphans`
    /// findings only when `resolve` is set. They say what this node
    /// lacks or holds unreferenced, which means something only once the
    /// collective scrub resolves them against every other node; unresolved,
    /// the passes that find them are skipped and both lists stay empty.
    /// `corrupt` and `length_mismatch` are intrinsic to the node's bytes
    /// and are found either way.
    pub fn scrub_node(
        &self,
        node: NodeId,
        hasher: &dyn ChunkHasher,
        resolve: bool,
    ) -> StorageResult<ScrubReport> {
        self.with_node(node, |state| {
            let mut report = ScrubReport::default();

            // Pass 1: re-hash every chunk against its key, in one batch.
            let (keys, chunks): (Vec<&Fingerprint>, Vec<&[u8]>) = state
                .store
                .entries()
                .map(|(fp, data)| (fp, &data[..]))
                .unzip();
            report.chunks_checked = keys.len() as u64;
            for (fp, sum) in keys.into_iter().zip(hasher.fingerprint_all(&chunks)) {
                if sum != *fp {
                    report.corrupt.push((node, *fp));
                }
            }

            // Pass 2: manifests vs. chunk presence and geometry.
            // `referenced` collects every fingerprint any manifest on this
            // node lists, so the orphan pass below is a set difference.
            // Held chunks are re-checked against the manifest's explicit
            // per-chunk length — chunks are variable-length under CDC, so
            // the stored byte count must match the recipe's, or restore
            // would reassemble a buffer of the wrong shape.
            let mut referenced = FpHashSet::default();
            for ((owner, dump_id), recipe) in &state.recipes {
                let Some(m) = recipe.manifest() else { continue };
                for (i, fp) in m.chunks.iter().enumerate() {
                    if resolve {
                        referenced.insert(*fp);
                    }
                    // Coded chunks live as stripe shards, not replicas:
                    // absence here is by design, and their integrity is
                    // [`Cluster::scrub_stripes`]' job. (Still `referenced`,
                    // so a restore-reseeded copy is not an orphan.)
                    if m.coded.binary_search(&(i as u64)).is_ok() {
                        continue;
                    }
                    match state.store.get(fp) {
                        None if resolve => report.dangling.push((node, *owner, *dump_id, *fp)),
                        Some(data) if data.len() != m.chunk_len(i) => {
                            report.length_mismatch.push((node, *owner, *dump_id, *fp));
                        }
                        _ => {}
                    }
                }
            }

            // Pass 3: chunks — copies or chunk-stripe shards — no
            // manifest references. (Blobs are opaque — no key to verify,
            // no chunk references to cross-check.)
            if resolve {
                let stripes = state.shards.keys().filter_map(|(key, _)| match key {
                    StripeKey::Chunk(fp) => Some(fp),
                    StripeKey::Blob { .. } => None,
                });
                for fp in state.store.fingerprints().chain(stripes) {
                    if !referenced.contains(fp) {
                        report.orphans.push((node, *fp));
                    }
                }
            }

            report.corrupt.sort_unstable();
            report.corrupt.dedup();
            report.dangling.sort_unstable();
            report.dangling.dedup();
            report.length_mismatch.sort_unstable();
            report.length_mismatch.dedup();
            report.orphans.sort_unstable();
            report.orphans.dedup();
            Ok(report)
        })?
    }

    /// Verify parity consistency of every erasure-coded stripe across the
    /// cluster. Stripes are inherently cross-node (shards of one stripe
    /// live on distinct devices), so unlike [`Cluster::scrub`] this pass is
    /// cluster-wide; the repair collective runs it once on the lowest live
    /// rank and folds the findings into the merged report.
    ///
    /// Each live node's sorted shard map is walked once, under every live
    /// node's lock (one consistent snapshot, no shard copied), and each
    /// stripe whose `k` data shards all survive is checked without
    /// decoding: its
    /// parity is recomputed from the data shards block by block and
    /// compared in cache ([`RsCode::parity_mismatches`], one code per
    /// geometry), every duplicate copy is compared with the copy the
    /// lowest node holds, and chunk stripes' payloads are hashed against
    /// their keys in batches ([`ChunkHasher::fingerprint_all`]). A stripe
    /// that fails any of these — or holds shards of another geometry —
    /// is re-checked by decoding it, which locates a lone corrupt *data*
    /// shard exactly when the redundancy allows it (chunk stripes re-hash
    /// each candidate payload against the fingerprint key; any stripe
    /// with a second parity shard uses parity consensus); otherwise the
    /// disagreeing parity copies are flagged. Stripes with missing data
    /// shards are repair's reconstruction problem, not scrub's. Like blob
    /// replicas, blob stripes with `m == 1` carry too little redundancy to
    /// attribute a data-shard error.
    pub fn scrub_stripes(&self, hasher: &dyn ChunkHasher) -> ScrubReport {
        self.with_live_nodes(|nodes| {
            let mut report = ScrubReport::default();
            let mut walks: Vec<_> = nodes
                .iter()
                .map(|(node, state)| (*node, state.shards.iter().peekable()))
                .collect();
            let mut pass = CleanPath::default();
            let mut copies: Vec<(NodeId, &StoredShard)> = Vec::new();
            let mut suspects: Vec<StripeKey> = Vec::new();
            // Each node's map is sorted by stripe, so the lowest stripe any
            // walk stands at is the next one, and its copies are the runs
            // the walks hold of it, taken in node order.
            while let Some(key) = walks
                .iter_mut()
                .filter_map(|(_, walk)| walk.peek().map(|((key, _), _)| *key))
                .min()
            {
                copies.clear();
                for (node, walk) in &mut walks {
                    while let Some((_, s)) = walk.next_if(|((held, _), _)| *held == key) {
                        copies.push((*node, s));
                    }
                }
                report.shards_checked += copies.len() as u64;
                if !pass.agrees(key, &copies) {
                    suspects.push(key);
                }
                if pass.arena.len() >= HASH_BATCH_BYTES {
                    pass.hash_pending(hasher, &mut suspects);
                }
            }
            pass.hash_pending(hasher, &mut suspects);
            // The rare stripe the clean path could not clear is decoded.
            for key in suspects {
                let copies: Vec<(NodeId, StoredShard)> = nodes
                    .iter()
                    .flat_map(|(node, state)| {
                        let shards = state.shards.range((key, 0)..=(key, u8::MAX));
                        shards.map(|(_, s)| (*node, s.clone()))
                    })
                    .collect();
                verify_stripe(hasher, &mut report, key, &copies);
            }
            report.stripe_mismatches.sort_unstable();
            report.stripe_mismatches.dedup();
            report
        })
    }
}

/// Chunk-stripe payload bytes the clean path gathers before it hashes them
/// in one batch: enough for a batch kernel to run full, little enough that
/// the arena stays small.
const HASH_BATCH_BYTES: usize = 1 << 20;

/// The stripe pass's clean path. It clears a stripe whose copies agree
/// with one another — parity with data, duplicates with the lowest node's
/// copy, a chunk payload with its key — with no decode, no encode and no
/// allocation of its own per stripe: its buffers are reused from stripe
/// to stripe. A stripe it cannot clear goes to [`verify_stripe`].
#[derive(Default)]
struct CleanPath<'a> {
    /// One code per `(k, m)` geometry seen.
    codes: Vec<RsCode>,
    /// The stripe's copy of each shard index held by the lowest node.
    first: Vec<Option<&'a [u8]>>,
    /// The `k` data shards, in index order.
    data: Vec<&'a [u8]>,
    /// Every parity copy, duplicates included.
    parity: Vec<(u8, &'a [u8])>,
    /// Concatenated payloads of the chunk stripes awaiting their hash.
    arena: Vec<u8>,
    /// Those stripes' keys, with the end of each payload in `arena`.
    pending: Vec<(Fingerprint, usize)>,
}

impl<'a> CleanPath<'a> {
    /// Whether the stripe `key`, whose copies (in node order) are
    /// `copies`, may be clean: `false` when they disagree on geometry or
    /// bytes; `true` when they agree or a data shard is missing
    /// (reconstruction's job, as in [`verify_stripe`]). An agreeing chunk
    /// stripe's payload joins the arena, and [`CleanPath::hash_pending`]
    /// settles it.
    fn agrees(&mut self, key: StripeKey, copies: &[(NodeId, &'a StoredShard)]) -> bool {
        let Some((_, head)) = copies.first() else {
            return true;
        };
        let (k, m, len64) = (head.meta.k, head.meta.m, head.meta.total_len);
        let Ok(total_len) = usize::try_from(len64) else {
            return false;
        };
        let code = match self.codes.iter().position(|c| (c.k(), c.m()) == (k, m)) {
            Some(at) => &self.codes[at],
            None => match RsCode::new(k, m) {
                Ok(code) => {
                    self.codes.push(code);
                    &self.codes[self.codes.len() - 1]
                }
                Err(_) => return false,
            },
        };
        self.first.clear();
        self.first.resize(usize::from(code.shards()), None);
        self.parity.clear();
        for (_, s) in copies {
            let meta = s.meta;
            if (meta.k, meta.m, meta.total_len) != (k, m, len64) {
                return false;
            }
            let Some(slot) = self.first.get_mut(usize::from(meta.index)) else {
                return false;
            };
            match slot {
                None => *slot = Some(&s.data[..]),
                Some(first) if meta.is_parity() || *first == &s.data[..] => {}
                Some(_) => return false,
            }
            if meta.is_parity() {
                self.parity.push((meta.index, &s.data[..]));
            }
        }
        self.data.clear();
        for slot in &self.first[..usize::from(k)] {
            match slot {
                Some(shard) => self.data.push(shard),
                None => return true, // missing shards are reconstruction's job
            }
        }
        if !matches!(code.parity_mismatches(&self.data, &self.parity, total_len), Ok(bad) if bad.is_empty())
        {
            return false;
        }
        if let StripeKey::Chunk(fp) = key {
            for shard in &self.data {
                self.arena.extend_from_slice(shard);
            }
            self.pending.push((fp, self.arena.len()));
        }
        true
    }

    /// Hash every pending chunk payload in one batch and add each stripe
    /// whose payload no longer hashes to its key to `suspects`.
    fn hash_pending(&mut self, hasher: &dyn ChunkHasher, suspects: &mut Vec<StripeKey>) {
        let mut start = 0;
        let payloads: Vec<&[u8]> = self
            .pending
            .iter()
            .map(|&(_, end)| {
                let payload = &self.arena[start..end];
                start = end;
                payload
            })
            .collect();
        for (&(fp, _), sum) in self.pending.iter().zip(hasher.fingerprint_all(&payloads)) {
            if sum != fp {
                suspects.push(StripeKey::Chunk(fp));
            }
        }
        self.pending.clear();
        self.arena.clear();
    }
}

/// Check one stripe's copies for internal consistency, pushing findings
/// into `report.stripe_mismatches`.
fn verify_stripe(
    hasher: &dyn ChunkHasher,
    report: &mut ScrubReport,
    key: StripeKey,
    copies: &[(NodeId, StoredShard)],
) {
    let Some((_, first)) = copies.first() else {
        return;
    };
    let (k, m, len64) = (first.meta.k, first.meta.m, first.meta.total_len);
    let Ok(total_len) = usize::try_from(len64) else {
        return;
    };
    let Ok(code) = RsCode::new(k, m) else {
        // Degenerate geometry slipped past the wire validation: every
        // shard claiming it is suspect.
        for (node, s) in copies {
            report.stripe_mismatches.push((*node, key, s.meta.index));
        }
        return;
    };
    // Shards disagreeing with the stripe's (first-seen) geometry are
    // flagged outright; the consensus set continues below.
    let mut consistent: Vec<(NodeId, &StoredShard)> = Vec::new();
    for (node, s) in copies {
        if s.meta.k == k && s.meta.m == m && s.meta.total_len == len64 {
            consistent.push((*node, s));
        } else {
            report.stripe_mismatches.push((*node, key, s.meta.index));
        }
    }
    // One representative copy per index (lowest node wins, matching
    // `Cluster::gather_shards`).
    let mut by_index: BTreeMap<u8, (NodeId, &StoredShard)> = BTreeMap::new();
    for (node, s) in &consistent {
        by_index.entry(s.meta.index).or_insert((*node, s));
    }
    if !(0..k).all(|i| by_index.contains_key(&i)) {
        return; // missing shards are reconstruction's job
    }
    let survivors: Vec<(u8, &[u8])> = (0..k)
        .map(|i| {
            (
                i,
                by_index
                    .get(&i)
                    .map(|(_, s)| s.data.as_ref())
                    .unwrap_or_default(),
            )
        })
        .collect();
    let Ok(payload) = code.decode(&survivors, total_len) else {
        return;
    };
    let payload = Bytes::from(payload);
    let expected = code.encode(&payload);
    let mismatched: Vec<(NodeId, u8)> = consistent
        .iter()
        .filter(|(_, s)| {
            expected
                .get(s.meta.index as usize)
                .map(|want| want.as_ref() != s.data.as_ref())
                .unwrap_or(true)
        })
        .map(|(node, s)| (*node, s.meta.index))
        .collect();
    let payload_hash_ok = match key {
        StripeKey::Chunk(fp) => hasher.fingerprint(&payload) == fp,
        StripeKey::Blob { .. } => true, // blobs carry no integrity key
    };
    if mismatched.is_empty() {
        if !payload_hash_ok {
            // The stripe is self-consistent but encodes the wrong bytes:
            // the data shards were corrupted in concert (or before
            // encoding). Nothing to reconstruct from — flag all data.
            for (node, s) in &consistent {
                if !s.meta.is_parity() {
                    report.stripe_mismatches.push((*node, key, s.meta.index));
                }
            }
        }
        return;
    }
    // Parity disagrees with the data shards. Try to pin it on a single
    // corrupt data shard: drop each data shard in turn, decode from the
    // remaining k-1 plus the lowest parity shard, and accept the candidate
    // whose repaired stripe satisfies every stored parity copy (and, for
    // chunk stripes, the payload hash). Needs an error oracle: the chunk
    // fingerprint, or for blobs at least two surviving parity shards.
    let surviving_parity = by_index.range(k..).count();
    let try_locate = match key {
        StripeKey::Chunk(_) => !payload_hash_ok,
        StripeKey::Blob { .. } => surviving_parity >= 2,
    };
    if try_locate {
        for suspect in 0..k {
            let mut alt: Vec<(u8, &[u8])> = survivors
                .iter()
                .filter(|(i, _)| *i != suspect)
                .copied()
                .collect();
            let Some((_, parity)) = by_index.range(k..).next().map(|(_, v)| *v) else {
                break;
            };
            alt.push((parity.meta.index, parity.data.as_ref()));
            let Ok(candidate) = code.decode(&alt, total_len) else {
                continue;
            };
            let candidate = Bytes::from(candidate);
            let hash_ok = match key {
                StripeKey::Chunk(fp) => hasher.fingerprint(&candidate) == fp,
                StripeKey::Blob { .. } => true,
            };
            if !hash_ok {
                continue;
            }
            let re = code.encode(&candidate);
            let all_parity_agree =
                consistent
                    .iter()
                    .filter(|(_, s)| s.meta.is_parity())
                    .all(|(_, s)| {
                        re.get(s.meta.index as usize)
                            .map(|want| want.as_ref() == s.data.as_ref())
                            .unwrap_or(false)
                    });
            if all_parity_agree {
                if let Some((node, _)) = by_index.get(&suspect) {
                    report.stripe_mismatches.push((*node, key, suspect));
                }
                return;
            }
        }
    }
    // Could not locate a single bad data shard: flag the disagreeing
    // parity copies themselves.
    for (node, index) in mismatched {
        report.stripe_mismatches.push((node, key, index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Placement, StorageError};
    use crate::manifest::{Manifest, Recipe};
    use bytes::Bytes;
    use replidedup_hash::Sha1ChunkHasher;

    /// Store `data` on `node` under its true SHA-1 fingerprint.
    fn put(c: &Cluster, node: NodeId, data: &'static [u8]) -> Fingerprint {
        let fp = Sha1ChunkHasher.fingerprint(data);
        c.put_chunk(node, fp, Bytes::from_static(data)).unwrap();
        fp
    }

    fn put_manifest(c: &Cluster, node: NodeId, m: Manifest) {
        c.put_recipe(node, m.owner_rank, m.dump_id, Recipe::Manifest(m))
            .unwrap();
    }

    fn manifest_of(owner: u32, dump_id: DumpId, chunks: Vec<Fingerprint>) -> Manifest {
        Manifest::fixed_stride(owner, dump_id, 4, 4 * chunks.len() as u64, chunks)
    }

    #[test]
    fn clean_node_scrubs_clean() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = put(&c, 0, b"aaaa");
        let b = put(&c, 0, b"bbbb");
        put_manifest(&c, 0, manifest_of(0, 1, vec![a, b]));
        let r = c.scrub(0, &Sha1ChunkHasher).unwrap();
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.chunks_checked, 2);
    }

    #[test]
    fn scrub_detects_exactly_the_injected_corruption() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = put(&c, 0, b"aaaa");
        let b = put(&c, 0, b"bbbb");
        put_manifest(&c, 0, manifest_of(0, 1, vec![a, b]));
        assert!(c.corrupt_chunk(0, &a).unwrap());
        let r = c.scrub(0, &Sha1ChunkHasher).unwrap();
        assert_eq!(r.corrupt, vec![(0, a)], "exactly the injected corruption");
        assert!(r.dangling.is_empty() && r.orphans.is_empty());
    }

    #[test]
    fn scrub_reports_dangling_manifest_references() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = put(&c, 0, b"aaaa");
        let ghost = Sha1ChunkHasher.fingerprint(b"neverstored");
        put_manifest(&c, 0, manifest_of(3, 7, vec![a, ghost]));
        let r = c.scrub(0, &Sha1ChunkHasher).unwrap();
        assert_eq!(r.dangling, vec![(0, 3, 7, ghost)]);
        assert!(r.corrupt.is_empty() && r.orphans.is_empty());
    }

    #[test]
    fn scrub_detects_truncated_variable_length_chunk() {
        // A manifest with an explicit variable length list promises a
        // 9-byte chunk, but the store holds a truncated 4-byte version
        // (stored under the truncated content's own fingerprint, so the
        // per-chunk hash check alone cannot see the damage). Scrub must
        // compare stored lengths against the manifest's length list —
        // never a fixed chunk size — and flag exactly this chunk.
        let c = Cluster::new(Placement::one_per_node(1));
        let ok = put(&c, 0, b"intact-chunk");
        let truncated = put(&c, 0, b"trun"); // 4 bytes actually stored
        let m = Manifest {
            owner_rank: 2,
            dump_id: 5,
            total_len: 12 + 9,
            chunks: vec![ok, truncated],
            chunk_lens: vec![12, 9], // recipe expects 9 bytes, store has 4
            rs: None,
            coded: vec![],
        };
        put_manifest(&c, 0, m);
        let r = c.scrub(0, &Sha1ChunkHasher).unwrap();
        assert_eq!(r.length_mismatch, vec![(0, 2, 5, truncated)]);
        assert!(
            r.corrupt.is_empty() && r.dangling.is_empty() && r.orphans.is_empty(),
            "only the length check can catch this: {r:?}"
        );
        assert!(!r.is_clean());
    }

    #[test]
    fn length_mismatch_merges_and_roundtrips() {
        let mut a = ScrubReport {
            length_mismatch: vec![(0, 1, 2, Fingerprint::synthetic(9))],
            ..ScrubReport::default()
        };
        let b = ScrubReport {
            length_mismatch: vec![
                (0, 1, 2, Fingerprint::synthetic(9)),
                (1, 4, 2, Fingerprint::synthetic(3)),
            ],
            ..ScrubReport::default()
        };
        a.merge(&b);
        assert_eq!(a.length_mismatch.len(), 2, "deduplicated");
        assert!(!a.is_clean());
        let bytes = a.to_bytes();
        assert_eq!(ScrubReport::from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn scrub_reports_orphaned_chunks() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = put(&c, 0, b"aaaa");
        let stray = put(&c, 0, b"stray");
        put_manifest(&c, 0, manifest_of(0, 1, vec![a]));
        let r = c.scrub(0, &Sha1ChunkHasher).unwrap();
        assert_eq!(r.orphans, vec![(0, stray)]);
    }

    #[test]
    fn chunk_stripe_shards_count_as_held_for_orphans() {
        let c = Cluster::new(Placement::one_per_node(6));
        let payload: &[u8] = b"stripe-payload-under-test!";
        let fp = Sha1ChunkHasher.fingerprint(payload);
        let homes = stripe_put(&c, StripeKey::Chunk(fp), 4, 2, payload);
        let r = c.scrub(homes[0], &Sha1ChunkHasher).unwrap();
        assert_eq!(r.orphans, vec![(homes[0], fp)], "a shard, not a copy");
        put_manifest(&c, homes[0], manifest_of(0, 1, vec![fp]));
        let r = c.scrub(homes[0], &Sha1ChunkHasher).unwrap();
        assert!(r.orphans.is_empty(), "{r:?}");
    }

    #[test]
    fn scrub_covers_all_dump_generations() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = put(&c, 0, b"aaaa");
        put_manifest(&c, 0, manifest_of(0, 1, vec![a]));
        let ghost = Sha1ChunkHasher.fingerprint(b"gen2only");
        put_manifest(&c, 0, manifest_of(0, 2, vec![ghost]));
        let r = c.scrub(0, &Sha1ChunkHasher).unwrap();
        assert_eq!(r.dangling, vec![(0, 0, 2, ghost)], "generation 2 checked");
    }

    /// Unresolved, a node's scrub skips the passes that find `dangling`
    /// and `orphans` and keeps every other finding.
    #[test]
    fn an_unresolved_scrub_is_the_resolved_one_without_dangling_and_orphans() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = put(&c, 0, b"aaaa");
        let rotten = put(&c, 0, b"rott");
        let short = put(&c, 0, b"shrt");
        let stray = put(&c, 0, b"stray");
        let ghost = Sha1ChunkHasher.fingerprint(b"neverstored");
        c.corrupt_chunk(0, &rotten).unwrap();
        put_manifest(&c, 0, manifest_of(0, 1, vec![a, rotten, ghost]));
        put_manifest(
            &c,
            0,
            Manifest {
                total_len: 9,
                chunk_lens: vec![9],
                ..manifest_of(1, 1, vec![short])
            },
        );
        let resolved = c.scrub_node(0, &Sha1ChunkHasher, true).unwrap();
        assert_eq!(resolved, c.scrub(0, &Sha1ChunkHasher).unwrap());
        assert_eq!(resolved.corrupt, vec![(0, rotten)]);
        assert_eq!(resolved.dangling, vec![(0, 0, 1, ghost)]);
        assert_eq!(resolved.length_mismatch, vec![(0, 1, 1, short)]);
        assert_eq!(resolved.orphans, vec![(0, stray)]);
        let unresolved = c.scrub_node(0, &Sha1ChunkHasher, false).unwrap();
        assert_eq!(
            unresolved,
            ScrubReport {
                dangling: Vec::new(),
                orphans: Vec::new(),
                ..resolved
            }
        );
    }

    #[test]
    fn scrubbing_a_dead_node_is_node_down() {
        let c = Cluster::new(Placement::one_per_node(1));
        c.fail_node(0);
        assert_eq!(c.scrub(0, &Sha1ChunkHasher), Err(StorageError::NodeDown(0)));
    }

    #[test]
    fn merge_aggregates_and_dedups_across_nodes() {
        let c = Cluster::new(Placement::one_per_node(2));
        let a0 = put(&c, 0, b"aaaa");
        let a1 = put(&c, 1, b"zzzz");
        c.corrupt_chunk(0, &a0).unwrap();
        c.corrupt_chunk(1, &a1).unwrap();
        let mut merged = c.scrub(0, &Sha1ChunkHasher).unwrap();
        let r1 = c.scrub(1, &Sha1ChunkHasher).unwrap();
        merged.merge(&r1);
        merged.merge(&r1); // idempotent per finding
        assert_eq!(merged.chunks_checked, 3);
        let mut want = vec![(0, a0), (1, a1)];
        want.sort_unstable();
        assert_eq!(merged.corrupt, want);
        // Both chunks are orphans too (no manifests stored).
        assert_eq!(merged.orphans.len(), 2);
    }

    #[test]
    fn report_wire_roundtrip() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = put(&c, 0, b"aaaa");
        c.corrupt_chunk(0, &a).unwrap();
        let r = c.scrub(0, &Sha1ChunkHasher).unwrap();
        let bytes = r.to_bytes();
        assert_eq!(ScrubReport::from_bytes(&bytes).unwrap(), r);
    }

    /// Encode `payload` as a `k+m` stripe and store each shard on its home
    /// node (per [`replidedup_ec::shard_nodes`]). Returns the home nodes.
    fn stripe_put(
        c: &Cluster,
        key: StripeKey,
        k: u8,
        m: u8,
        payload: &'static [u8],
    ) -> Vec<NodeId> {
        let code = RsCode::new(k, m).unwrap();
        let shards = code.encode(&Bytes::from_static(payload));
        let homes = replidedup_ec::shard_nodes(key.seed(), k + m, c.node_count());
        for (i, shard) in shards.into_iter().enumerate() {
            let meta = crate::shard::ShardMeta {
                k,
                m,
                index: i as u8,
                total_len: payload.len() as u64,
            };
            c.put_shard(homes[i], key, meta, shard).unwrap();
        }
        homes
    }

    #[test]
    fn intact_stripes_scrub_clean() {
        let c = Cluster::new(Placement::one_per_node(6));
        let payload: &[u8] = b"stripe-payload-under-test!";
        let key = StripeKey::Chunk(Sha1ChunkHasher.fingerprint(payload));
        stripe_put(&c, key, 4, 2, payload);
        let r = c.scrub_stripes(&Sha1ChunkHasher);
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.shards_checked, 6);
    }

    #[test]
    fn corrupt_parity_shard_is_located_exactly() {
        let c = Cluster::new(Placement::one_per_node(6));
        let payload: &[u8] = b"stripe-payload-under-test!";
        let key = StripeKey::Chunk(Sha1ChunkHasher.fingerprint(payload));
        let homes = stripe_put(&c, key, 4, 2, payload);
        // Flip a byte of parity shard 5: the data still decodes to the
        // right payload (hash passes), so the disagreeing parity copy
        // itself must be flagged.
        assert!(c.corrupt_shard(homes[5], key, 5).unwrap());
        let r = c.scrub_stripes(&Sha1ChunkHasher);
        assert_eq!(r.stripe_mismatches, vec![(homes[5], key, 5)]);
    }

    #[test]
    fn corrupt_data_shard_located_via_chunk_fingerprint() {
        let c = Cluster::new(Placement::one_per_node(6));
        let payload: &[u8] = b"stripe-payload-under-test!";
        let key = StripeKey::Chunk(Sha1ChunkHasher.fingerprint(payload));
        let homes = stripe_put(&c, key, 4, 2, payload);
        // Flip a byte of data shard 1: decode-from-data yields a payload
        // that fails the fingerprint check, and the drop-one-suspect scan
        // pins the corruption on exactly shard 1.
        assert!(c.corrupt_shard(homes[1], key, 1).unwrap());
        let r = c.scrub_stripes(&Sha1ChunkHasher);
        assert_eq!(r.stripe_mismatches, vec![(homes[1], key, 1)]);
    }

    #[test]
    fn corrupt_data_shard_of_blob_located_via_parity_consensus() {
        // Blobs carry no integrity key, but with m >= 2 a second parity
        // shard serves as the error oracle.
        let c = Cluster::new(Placement::one_per_node(5));
        let key = StripeKey::Blob {
            owner: 3,
            dump_id: 1,
        };
        let homes = stripe_put(&c, key, 2, 2, b"blob-bytes-with-two-parity");
        assert!(c.corrupt_shard(homes[0], key, 0).unwrap());
        let r = c.scrub_stripes(&Sha1ChunkHasher);
        assert_eq!(r.stripe_mismatches, vec![(homes[0], key, 0)]);
    }

    #[test]
    fn blob_stripe_with_single_parity_flags_parity_not_data() {
        // Documented limitation: a blob stripe with m == 1 has no oracle
        // to attribute a data-shard error, so the disagreeing parity copy
        // is flagged instead — still dirty, still repairable by rebuild.
        let c = Cluster::new(Placement::one_per_node(4));
        let key = StripeKey::Blob {
            owner: 0,
            dump_id: 2,
        };
        let homes = stripe_put(&c, key, 2, 1, b"blob-with-one-parity");
        assert!(c.corrupt_shard(homes[0], key, 0).unwrap());
        let r = c.scrub_stripes(&Sha1ChunkHasher);
        assert_eq!(r.stripe_mismatches, vec![(homes[2], key, 2)]);
        assert!(!r.is_clean());
    }

    /// The stripe pass as it was before its clean path: every stripe is
    /// decoded and re-encoded by [`verify_stripe`]. The reference model the
    /// clean path must match finding for finding.
    fn scrub_stripes_by_decoding(c: &Cluster, hasher: &dyn ChunkHasher) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut stripes: BTreeMap<StripeKey, Vec<(NodeId, StoredShard)>> = BTreeMap::new();
        for node in 0..c.node_count() {
            let held = c
                .with_node(node, |n| {
                    n.shards
                        .iter()
                        .map(|((key, _), s)| (*key, s.clone()))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            for (key, s) in held {
                stripes.entry(key).or_default().push((node, s));
            }
        }
        for (key, copies) in stripes {
            report.shards_checked += copies.len() as u64;
            verify_stripe(hasher, &mut report, key, &copies);
        }
        report.stripe_mismatches.sort_unstable();
        report.stripe_mismatches.dedup();
        report
    }

    /// SplitMix64 step: the proptest below derives its whole cluster from
    /// one seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A cluster of 3–8 nodes holding 1–4 stripes (chunk or blob keys,
    /// `k` 1–4, `m` 1–3, so `m = 1` blob stripes occur; lengths from empty
    /// to past a 4 KiB column block per shard; some chunk keys that no
    /// longer match their payload), then 0–5 of: rot, an intact or rotten
    /// duplicate on another node, a shard of another geometry or past
    /// `k + m`, a truncated or padded shard, a missing shard, a dead node.
    fn damaged_cluster(seed: u64) -> Cluster {
        let mut rng = seed;
        let mut pick = |n: u64| next(&mut rng) % n;
        let nodes = 3 + pick(6) as u32;
        let c = Cluster::new(Placement::one_per_node(nodes));
        let mut stripes = Vec::new();
        for s in 0..1 + pick(4) {
            let (k, m) = (1 + pick(4) as u8, 1 + pick(3) as u8);
            let kk = usize::from(k);
            let len = match pick(5) {
                0 => pick(2) as usize,
                1 => kk - 1 + pick(3) as usize,
                2 => pick(300) as usize,
                // Shards of one 4 KiB column block, give or take a byte.
                3 => (kk << 12) - 1 + pick(3) as usize,
                _ => (kk << 13) + pick(100) as usize,
            };
            let payload: Vec<u8> = (0..len).map(|_| pick(256) as u8).collect();
            let key = match pick(5) {
                0 => StripeKey::Blob {
                    owner: s as u32,
                    dump_id: 1,
                },
                1 => StripeKey::Chunk(Fingerprint::synthetic(s)),
                _ => StripeKey::Chunk(Sha1ChunkHasher.fingerprint(&payload)),
            };
            let code = RsCode::new(k, m).unwrap();
            let homes = replidedup_ec::shard_nodes(key.seed(), k + m, nodes);
            for (i, shard) in code.encode(&Bytes::from(payload)).into_iter().enumerate() {
                let meta = crate::shard::ShardMeta {
                    k,
                    m,
                    index: i as u8,
                    total_len: len as u64,
                };
                c.put_shard(homes[i], key, meta, shard).unwrap();
            }
            stripes.push((key, k + m, homes));
        }
        for _ in 0..pick(6) {
            let (key, n, homes) = &stripes[pick(stripes.len() as u64) as usize];
            let index = pick(u64::from(*n)) as u8;
            let home = homes[usize::from(index)];
            let other = pick(u64::from(nodes)) as u32;
            let Ok(shard) = c.get_shard(home, *key, index) else {
                continue;
            };
            let meta = shard.meta;
            // Damage aimed at a dead node is lost with it.
            match pick(6) {
                0 => {
                    c.corrupt_shard(home, *key, index).ok();
                }
                1 => {
                    c.put_shard(other, *key, meta, shard.data).ok();
                    if pick(2) == 0 {
                        c.corrupt_shard(other, *key, index).ok();
                    }
                }
                2 => {
                    let odd = match pick(4) {
                        0 => crate::shard::ShardMeta {
                            k: meta.k + 1,
                            ..meta
                        },
                        1 => crate::shard::ShardMeta {
                            m: meta.m + 1,
                            ..meta
                        },
                        2 => crate::shard::ShardMeta {
                            total_len: meta.total_len + 1,
                            ..meta
                        },
                        _ => crate::shard::ShardMeta { index: *n, ..meta },
                    };
                    c.put_shard(other, *key, odd, shard.data).ok();
                }
                3 => {
                    let mut bytes = shard.data.to_vec();
                    if bytes.pop().is_none() || pick(2) == 0 {
                        bytes.push(0);
                    }
                    c.put_shard(home, *key, meta, bytes).ok();
                }
                4 => {
                    c.quarantine_shard(home, *key, index).ok();
                }
                _ => c.fail_node(other),
            }
        }
        c
    }

    proptest::proptest! {
        /// The clean path plus the decode-and-locate fallback report
        /// exactly what decoding every stripe reports.
        #[test]
        fn the_clean_path_matches_the_decoding_model(seed in proptest::prelude::any::<u64>()) {
            let c = damaged_cluster(seed);
            proptest::prop_assert_eq!(
                c.scrub_stripes(&Sha1ChunkHasher),
                scrub_stripes_by_decoding(&c, &Sha1ChunkHasher)
            );
        }
    }
}
