//! Phase two of the deduplication: the global fingerprint view and the
//! `HMERGE` reduction operator.
//!
//! "We propose an efficient (logarithmic in the number of processes)
//! reduction-based algorithm that performs both the selection and the
//! frequency counting in a hierarchic bottom-up fashion. [...] it is based
//! on a merge step that given two sets of fingerprints and the frequency of
//! their appearance, outputs the F most frequent fingerprints of the union
//! [...]. Besides counting the frequency, the merge step also associates at
//! most K processes for each fingerprint (the *designated ranks*)."
//! (Section III-B)
//!
//! Load balancing is embedded in the merge exactly as the paper describes:
//! "for each process we count the number of fingerprints it was designated
//! for. Whenever we need to merge two fingerprints, if the combined list of
//! ranks is larger than K, we truncate it in such way that the most loaded
//! ranks are eliminated first."
//!
//! The view is stored as columns — fingerprints sorted ascending,
//! frequencies, and every entry's designated ranks in one flat column cut
//! by end offsets — so the merge is one linear merge-join that writes its
//! output columns directly, the post-broadcast lookup is a binary search,
//! and the wire decode allocates per view, not per entry. The reduction
//! runs as the runtime's `allreduce`, whose recursive-doubling schedule
//! combines *disjoint* rank blocks at every step — which is what makes
//! frequency addition exact and designated-rank lists duplicate-free.

use replidedup_hash::Fingerprint;
use replidedup_mpi::wire::{Wire, WireError, WireResult};
use replidedup_mpi::{Comm, CommError, Rank};
use std::cmp::Ordering;

/// One fingerprint's global record, borrowed from a [`GlobalView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalEntry<'a> {
    /// The chunk fingerprint.
    pub fp: Fingerprint,
    /// Number of ranks observed holding this chunk (each rank counts once,
    /// local duplicates were already collapsed).
    pub freq: u32,
    /// Designated ranks (ascending, at most `K`, all actual holders). These
    /// ranks keep the chunk; everyone else may discard their copy once
    /// `freq >= K`.
    pub ranks: &'a [Rank],
}

/// The (partial or final) global view: at most `F` entries sorted by
/// fingerprint, held as columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalView {
    /// Fingerprints, strictly ascending.
    fps: Vec<Fingerprint>,
    /// `freqs[i]` is the frequency of `fps[i]`.
    freqs: Vec<u32>,
    /// Entry `i`'s designated ranks are `ranks[ends[i - 1]..ends[i]]`
    /// (from 0 for the first entry).
    ends: Vec<usize>,
    /// Every entry's designated ranks, ascending within an entry.
    ranks: Vec<Rank>,
}

/// Per-entry bytes of the wire encoding besides the ranks: fingerprint,
/// `u64` frequency and `u64` rank count.
const ENTRY_WIRE_BYTES: usize = Fingerprint::SIZE + 8 + 8;

impl GlobalView {
    fn with_capacity(entries: usize, ranks: usize) -> Self {
        Self {
            fps: Vec::with_capacity(entries),
            freqs: Vec::with_capacity(entries),
            ends: Vec::with_capacity(entries),
            ranks: Vec::with_capacity(ranks),
        }
    }

    /// Leaf view of one rank: every locally unique fingerprint with
    /// frequency 1 and itself as the sole designated rank. When the rank
    /// holds more than `F` unique fingerprints, only the first `F` in
    /// fingerprint order enter the view — "we select only a maximum of F
    /// fingerprints [...] while considering the rest of them unique even if
    /// they are not"; correctness is unaffected, only dedup quality.
    pub fn from_local<I>(rank: Rank, fps: I, f_threshold: usize) -> Self
    where
        I: IntoIterator<Item = Fingerprint>,
    {
        let mut fps: Vec<Fingerprint> = fps.into_iter().collect();
        fps.sort_unstable_by(fp_cmp);
        fps.dedup();
        fps.truncate(f_threshold);
        let n = fps.len();
        Self {
            fps,
            freqs: vec![1; n],
            ends: (1..=n).collect(),
            ranks: vec![rank; n],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// The entries in fingerprint order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = GlobalEntry<'_>> {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Binary-search lookup by fingerprint.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<GlobalEntry<'_>> {
        self.fps
            .binary_search_by(|probe| fp_cmp(probe, fp))
            .ok()
            .map(|i| self.entry(i))
    }

    /// Number of entries that designate `rank` (a rank appears at most
    /// once per entry).
    pub fn designations(&self, rank: Rank) -> usize {
        self.ranks.iter().filter(|&&r| r == rank).count()
    }

    fn entry(&self, i: usize) -> GlobalEntry<'_> {
        GlobalEntry {
            fp: self.fps[i],
            freq: self.freqs[i],
            ranks: self.ranks_of(i),
        }
    }

    fn ranks_of(&self, i: usize) -> &[Rank] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.ranks[start..self.ends[i]]
    }

    /// `HMERGE`: combine two partial views into the `F` most frequent
    /// fingerprints of their union, with load-balanced designated-rank
    /// truncation.
    ///
    /// The two inputs must come from disjoint rank blocks (guaranteed by
    /// the allreduce schedule), so frequencies add and rank lists union
    /// without double counting.
    pub fn merge(a: GlobalView, b: GlobalView, k: u32, f_threshold: usize) -> GlobalView {
        debug_assert!(k >= 1);
        let k = k as usize;
        let mut loads = Loads::default();
        let entries = a.len() + b.len();
        let ranks = (a.ranks.len() + b.ranks.len()).min(entries.saturating_mul(k));
        if entries <= f_threshold {
            // The whole union survives: truncate while joining.
            let mut out = GlobalView::with_capacity(entries, ranks);
            for u in Join::new(&a, &b) {
                out.push_union(u, &a, &b, k, &mut loads);
            }
            return out;
        }
        // Keep only the F most frequent fingerprints (ties broken by
        // fingerprint for cross-rank determinism), then truncate the
        // survivors' rank lists in fingerprint order.
        let union: Vec<Union> = Join::new(&a, &b).collect();
        let mut keep: Vec<usize> = (0..union.len()).collect();
        if keep.len() > f_threshold {
            keep.select_nth_unstable_by(f_threshold, |&i, &j| {
                let (x, y) = (&union[i], &union[j]);
                y.freq.cmp(&x.freq).then_with(|| fp_cmp(&x.fp, &y.fp))
            });
            keep.truncate(f_threshold);
            keep.sort_unstable();
        }
        let mut out =
            GlobalView::with_capacity(keep.len(), ranks.min(keep.len().saturating_mul(k)));
        for i in keep {
            out.push_union(union[i], &a, &b, k, &mut loads);
        }
        out
    }

    /// Append one fingerprint of the union: frequencies added, rank lists
    /// concatenated and, when longer than `k`, cut to the `k` least-loaded
    /// ranks (ties by rank); the kept ranks, ascending, count towards
    /// `loads`.
    fn push_union(
        &mut self,
        u: Union,
        a: &GlobalView,
        b: &GlobalView,
        k: usize,
        loads: &mut Loads,
    ) {
        let start = self.ranks.len();
        for (view, i) in [(a, u.a), (b, u.b)] {
            if let Some(i) = i {
                self.ranks.extend_from_slice(view.ranks_of(i));
            }
        }
        if self.ranks.len() - start > k {
            loads.least_loaded_first(&mut self.ranks[start..]);
            self.ranks.truncate(start + k);
            self.ranks[start..].sort_unstable();
        } else if u.a.is_some() && u.b.is_some() {
            // Each side's list is already ascending.
            self.ranks[start..].sort_unstable();
        }
        let kept = &self.ranks[start..];
        debug_assert!(
            kept.windows(2).all(|w| w[0] < w[1]),
            "designated ranks must be distinct"
        );
        for &r in kept {
            loads.bump(r);
        }
        self.fps.push(u.fp);
        self.freqs.push(u.freq);
        self.ends.push(self.ranks.len());
    }

    /// Exact size in bytes of this view's [`Wire`] encoding, computed by
    /// arithmetic instead of encoding the view a second time just to
    /// measure it (the reduction already paid for the real encodes).
    pub fn wire_size(&self) -> usize {
        8 + self.len() * ENTRY_WIRE_BYTES + 4 * self.ranks.len()
    }
}

#[cfg(test)]
impl GlobalView {
    /// A view holding `entries`, sorted into fingerprint order (and each
    /// entry's ranks ascending).
    pub(crate) fn from_entries(entries: &[GlobalEntry<'_>]) -> Self {
        let mut sorted = Vec::from(entries);
        sorted.sort_unstable_by_key(|e| e.fp);
        let mut view = Self::default();
        for e in sorted {
            view.fps.push(e.fp);
            view.freqs.push(e.freq);
            let start = view.ranks.len();
            view.ranks.extend_from_slice(e.ranks);
            view.ranks[start..].sort_unstable();
            view.ends.push(view.ranks.len());
        }
        view
    }
}

/// Fingerprint order — the derived lexicographic one — decided on a
/// big-endian 64-bit prefix first, which settles nearly every comparison
/// of uniformly distributed digests without a byte-wise compare.
/// (`Fingerprint::prefix64` is little-endian and does not preserve the
/// order.)
pub(crate) fn fp_cmp(x: &Fingerprint, y: &Fingerprint) -> Ordering {
    fp_head(x).cmp(&fp_head(y)).then_with(|| x.cmp(y))
}

/// A fingerprint's big-endian 64-bit prefix: order-preserving, so
/// `fp_head(x) < fp_head(y)` implies `x < y`.
pub(crate) fn fp_head(fp: &Fingerprint) -> u64 {
    let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = *fp.as_bytes();
    u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
}

/// One fingerprint of the union of two views: its summed frequency and its
/// entry index in each view that holds it.
#[derive(Clone, Copy)]
struct Union {
    fp: Fingerprint,
    freq: u32,
    a: Option<usize>,
    b: Option<usize>,
}

/// Merge-join of two views' fingerprint columns, yielding their union in
/// fingerprint order.
struct Join<'v> {
    a: &'v GlobalView,
    b: &'v GlobalView,
    i: usize,
    j: usize,
}

impl<'v> Join<'v> {
    fn new(a: &'v GlobalView, b: &'v GlobalView) -> Self {
        Self { a, b, i: 0, j: 0 }
    }
}

impl Iterator for Join<'_> {
    type Item = Union;

    fn next(&mut self) -> Option<Union> {
        let order = match (self.a.fps.get(self.i), self.b.fps.get(self.j)) {
            (Some(x), Some(y)) => fp_cmp(x, y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        let a = (order != Ordering::Greater).then_some(self.i);
        let b = (order != Ordering::Less).then_some(self.j);
        let freq = |view: &GlobalView, at: Option<usize>| at.map_or(0, |k| view.freqs[k]);
        let u = Union {
            fp: a.map_or_else(|| self.b.fps[self.j], |i| self.a.fps[i]),
            freq: freq(self.a, a).saturating_add(freq(self.b, b)),
            a,
            b,
        };
        self.i += usize::from(a.is_some());
        self.j += usize::from(b.is_some());
        Some(u)
    }
}

/// Per-rank designation counts for load-balanced truncation, indexed by
/// rank (decode bounds every rank by [`MAX_RANKS`]), plus a scratch of
/// `(load << 32) | rank` sort keys reused across entries.
#[derive(Default)]
struct Loads {
    counts: Vec<u32>,
    keys: Vec<u64>,
}

impl Loads {
    fn get(&self, r: Rank) -> u32 {
        self.counts.get(r as usize).copied().unwrap_or(0)
    }

    fn bump(&mut self, r: Rank) {
        let i = r as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Reorder `list` by (load, rank) ascending: "the most loaded ranks
    /// are eliminated first" when the caller truncates it.
    fn least_loaded_first(&mut self, list: &mut [Rank]) {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend(
            list.iter()
                .map(|&r| (u64::from(self.get(r)) << 32) | u64::from(r)),
        );
        keys.sort_unstable();
        for (slot, key) in list.iter_mut().zip(&keys) {
            *slot = *key as Rank;
        }
        self.keys = keys;
    }
}

/// Bound on the ranks a decoded view may name. Every rank of a world runs
/// on its own thread, so no world comes near it; a rank past it marks a
/// malformed view, which would otherwise size the per-rank load table.
const MAX_RANKS: Rank = 1 << 20;

/// The wire layout is `u64` entry count, then per entry the 20-byte
/// fingerprint, `u64` frequency, `u64` rank count and the `u32` ranks, all
/// little-endian — byte-identical to the `Vec` of records it replaced.
impl Wire for GlobalView {
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.resize(start + self.wire_size(), 0);
        let mut out = &mut buf[start..];
        put(&mut out, &(self.len() as u64).to_le_bytes());
        for e in self.iter() {
            put(&mut out, e.fp.as_bytes());
            put(&mut out, &u64::from(e.freq).to_le_bytes());
            put(&mut out, &(e.ranks.len() as u64).to_le_bytes());
            for r in e.ranks {
                put(&mut out, &r.to_le_bytes());
            }
        }
        debug_assert!(out.is_empty(), "wire_size is exact");
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        const WHAT: &str = "GlobalView";
        let n = usize::decode(input)?;
        // Bound both columns by what the input can hold before allocating.
        if n > input.len() / ENTRY_WIRE_BYTES {
            return Err(WireError::Truncated { what: WHAT });
        }
        let mut view = Self::with_capacity(n, (input.len() - n * ENTRY_WIRE_BYTES) / 4);
        for _ in 0..n {
            let fp = Fingerprint::decode(input)?;
            if view
                .fps
                .last()
                .is_some_and(|last| fp_cmp(last, &fp) != Ordering::Less)
            {
                return Err(WireError::Malformed {
                    what: "GlobalView (unsorted)",
                });
            }
            let freq = u32::try_from(u64::decode(input)?).map_err(|_| WireError::Malformed {
                what: "GlobalView (frequency)",
            })?;
            let count = usize::decode(input)?;
            if count > input.len() / 4 {
                return Err(WireError::Truncated { what: WHAT });
            }
            let start = view.ranks.len();
            for _ in 0..count {
                view.ranks.push(Rank::decode(input)?);
            }
            let ranks = &view.ranks[start..];
            if !ranks.windows(2).all(|w| w[0] < w[1]) || ranks.last() >= Some(&MAX_RANKS) {
                return Err(WireError::Malformed {
                    what: "GlobalView (ranks)",
                });
            }
            view.fps.push(fp);
            view.freqs.push(freq);
            view.ends.push(view.ranks.len());
        }
        Ok(view)
    }
}

/// Copy `bytes` to the front of `out` and advance past them; `out` was
/// sized by [`GlobalView::wire_size`].
fn put(out: &mut &mut [u8], bytes: &[u8]) {
    let (head, tail) = std::mem::take(out).split_at_mut(bytes.len());
    head.copy_from_slice(bytes);
    *out = tail;
}

/// Run the collective fingerprint reduction: every rank contributes its
/// leaf view; all ranks receive the identical final view of at most
/// `f_threshold` entries (the paper's `ALLREDUCE(HMERGE, LHashes)`).
/// Rank deaths during the reduction surface as [`CommError`].
pub fn try_reduce_global_view(
    comm: &mut Comm,
    local: GlobalView,
    k: u32,
    f_threshold: usize,
) -> Result<GlobalView, CommError> {
    comm.try_allreduce(local, |a, b| GlobalView::merge(a, b, k, f_threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use replidedup_hash::{ChunkHasher, Sha1ChunkHasher};
    use replidedup_mpi::WorldConfig;
    use std::collections::BTreeMap;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    fn leaf(rank: Rank, ids: &[u64]) -> GlobalView {
        GlobalView::from_local(rank, ids.iter().map(|&n| fp(n)), usize::MAX)
    }

    /// A view's content as plain tuples, in fingerprint order.
    fn content(view: &GlobalView) -> Vec<(Fingerprint, u32, Vec<Rank>)> {
        view.iter()
            .map(|e| (e.fp, e.freq, Vec::from(e.ranks)))
            .collect()
    }

    /// Hand-encoded wire bytes of `(id, freq, ranks)` entries, in the
    /// given order: `u64` count, then per entry the 20-byte fingerprint,
    /// `u64` freq, `u64` rank count and `u32` ranks, all little-endian.
    fn raw_view(entries: &[(u64, u64, &[Rank])]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for &(id, freq, ranks) in entries {
            buf.extend_from_slice(fp(id).as_bytes());
            buf.extend_from_slice(&freq.to_le_bytes());
            buf.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
            for r in ranks {
                buf.extend_from_slice(&r.to_le_bytes());
            }
        }
        buf
    }

    /// SHA-1 over (fp, freq, rank count, ranks) of every entry; the first
    /// eight bytes in hex.
    fn digest(view: &GlobalView) -> String {
        let mut bytes = Vec::new();
        for (fp, freq, ranks) in content(view) {
            bytes.extend_from_slice(fp.as_bytes());
            bytes.extend_from_slice(&u64::from(freq).to_le_bytes());
            bytes.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
            for r in ranks {
                bytes.extend_from_slice(&r.to_le_bytes());
            }
        }
        Sha1ChunkHasher.fingerprint(&bytes).as_bytes()[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Rank `me`'s seeded chunk ids: a core every rank holds, a block
    /// shared by its group of four ranks, picks from a common pool and a
    /// private tail.
    fn seeded_ids(me: Rank, seed: u64) -> Vec<u64> {
        let mut s = seed ^ u64::from(me).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let group = u64::from(me / 4);
        let mut ids: Vec<u64> = (0..48).collect();
        ids.extend((0..24).map(|i| 1_000 + group * 100 + i));
        ids.extend((0..32).map(|_| 10_000 + splitmix(&mut s) % 2_000));
        ids.extend((0..16).map(|i| 1_000_000 + u64::from(me) * 100 + i));
        ids
    }

    /// The reduced view of seeded leaves is pinned entry for entry: any
    /// change to frequencies, top-F selection or load-balanced rank
    /// truncation moves a digest. 37 ranks exercise the allreduce's fold
    /// and unfold; the bounded-F cases force top-F selection.
    #[test]
    fn reduced_view_digest_is_pinned() {
        const ALL: usize = usize::MAX;
        let cases: [(u32, u32, usize, usize, &str); 6] = [
            (8, 3, ALL, 466, "eba1551cf70ebe38"),
            (8, 2, 300, 300, "c51a94952d07a190"),
            (37, 3, ALL, 1760, "4944d1992fb1d955"),
            (37, 2, 900, 900, "15b132b5afb92586"),
            (128, 3, ALL, 4626, "1e20a6df1c699e59"),
            (128, 4, 1500, 1500, "da1d4db90543ceb4"),
        ];
        for (n, k, f, len, want) in cases {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    let me = comm.rank();
                    let ids = seeded_ids(me, 7);
                    let local = GlobalView::from_local(me, ids.into_iter().map(fp), f);
                    try_reduce_global_view(comm, local, k, f).unwrap()
                })
                .expect_all();
            let view = &out.results[0];
            assert!(out.results.iter().all(|v| v == view), "{n} ranks diverged");
            assert_eq!(
                (view.len(), digest(view).as_str()),
                (len, want),
                "{n} ranks, K = {k}, F = {f}"
            );
        }
    }

    /// Reference `HMERGE` over ordered maps: the paper's rule spelled out
    /// with no attention to speed.
    type Model = BTreeMap<Fingerprint, (u32, Vec<Rank>)>;

    fn model_leaf(rank: Rank, ids: &[u64], f: usize) -> Model {
        let fps: std::collections::BTreeSet<Fingerprint> = ids.iter().map(|&n| fp(n)).collect();
        fps.into_iter()
            .take(f)
            .map(|fp| (fp, (1, vec![rank])))
            .collect()
    }

    fn model_merge(a: Model, b: Model, k: usize, f: usize) -> Model {
        let mut union = a;
        for (fp, (freq, ranks)) in b {
            let e = union.entry(fp).or_insert((0, Vec::new()));
            e.0 += freq;
            e.1.extend(ranks);
        }
        if union.len() > f {
            let mut by_freq: Vec<_> = union.into_iter().collect();
            by_freq.sort_by(|x, y| y.1 .0.cmp(&x.1 .0).then(x.0.cmp(&y.0)));
            by_freq.truncate(f);
            union = by_freq.into_iter().collect();
        }
        let mut loads: BTreeMap<Rank, u32> = BTreeMap::new();
        for (_, ranks) in union.values_mut() {
            if ranks.len() > k {
                ranks.sort_by_key(|r| (loads.get(r).copied().unwrap_or(0), *r));
                ranks.truncate(k);
            }
            ranks.sort();
            for &r in ranks.iter() {
                *loads.entry(r).or_default() += 1;
            }
        }
        union
    }

    fn model_content(m: &Model) -> Vec<(Fingerprint, u32, Vec<Rank>)> {
        m.iter()
            .map(|(fp, (freq, ranks))| (*fp, *freq, ranks.clone()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random leaves folded pairwise, as the allreduce tree folds
        /// them, with every partial view sent through the wire codec:
        /// each merge equals the reference model's, including top-F
        /// selection (small F) and load-balanced truncation (K 1..=4).
        #[test]
        fn merge_matches_reference_model(
            leaves in proptest::collection::vec(
                proptest::collection::vec(0u64..48, 0..24), 1..18),
            k in 1u32..5,
            f in 1usize..40,
        ) {
            // Distinct, non-monotone ranks: 5 is coprime to 17.
            let mut views: Vec<(GlobalView, Model)> = leaves
                .iter()
                .enumerate()
                .map(|(i, ids)| {
                    let rank = (i as Rank * 5) % 17;
                    let v = GlobalView::from_local(rank, ids.iter().map(|&n| fp(n)), f);
                    (v, model_leaf(rank, ids, f))
                })
                .collect();
            for (v, m) in &views {
                prop_assert_eq!(content(v), model_content(m));
            }
            while views.len() > 1 {
                let mut next = Vec::with_capacity(views.len().div_ceil(2));
                let mut it = views.into_iter();
                while let Some((va, ma)) = it.next() {
                    next.push(match it.next() {
                        Some((vb, mb)) => {
                            let v = GlobalView::merge(va, vb, k, f);
                            let m = model_merge(ma, mb, k as usize, f);
                            prop_assert_eq!(content(&v), model_content(&m));
                            let back = GlobalView::from_bytes(&v.to_bytes()).unwrap();
                            prop_assert_eq!(&back, &v);
                            (back, m)
                        }
                        None => (va, ma),
                    });
                }
                views = next;
            }
        }
    }

    #[test]
    fn leaf_view_is_sorted_deduped_and_truncated() {
        let v = GlobalView::from_local(3, [fp(5), fp(1), fp(5), fp(2)], 2);
        assert_eq!(v.len(), 2);
        let entries: Vec<GlobalEntry> = v.iter().collect();
        assert!(entries[0].fp < entries[1].fp);
        assert!(entries.iter().all(|e| e.freq == 1 && e.ranks == [3]));
    }

    #[test]
    fn merge_sums_frequencies_of_shared_fingerprints() {
        let a = leaf(0, &[1, 2, 3]);
        let b = leaf(1, &[2, 3, 4]);
        let m = GlobalView::merge(a, b, 3, usize::MAX);
        assert_eq!(m.len(), 4);
        assert_eq!(m.lookup(&fp(1)).unwrap().freq, 1);
        assert_eq!(m.lookup(&fp(2)).unwrap().freq, 2);
        assert_eq!(m.lookup(&fp(2)).unwrap().ranks, vec![0, 1]);
        assert_eq!(m.lookup(&fp(4)).unwrap().ranks, vec![1]);
    }

    #[test]
    fn merge_truncates_to_k_designated_ranks() {
        let mut acc = leaf(0, &[7]);
        for r in 1..6 {
            acc = GlobalView::merge(acc, leaf(r, &[7]), 3, usize::MAX);
        }
        let e = acc.lookup(&fp(7)).unwrap();
        assert_eq!(e.freq, 6, "frequency keeps counting past K");
        assert_eq!(e.ranks.len(), 3, "designated ranks capped at K");
        assert!(e.ranks.windows(2).all(|w| w[0] < w[1]), "ranks sorted");
    }

    #[test]
    fn top_f_selection_keeps_most_frequent() {
        // fp 10 appears on both ranks, fps 1..=3 on one each.
        let a = leaf(0, &[10, 1, 2]);
        let b = leaf(1, &[10, 3]);
        let m = GlobalView::merge(a, b, 3, 2);
        assert_eq!(m.len(), 2);
        assert!(m.lookup(&fp(10)).is_some(), "most frequent must survive");
        // The tie among freq-1 entries breaks by fingerprint order.
        let survivors: Vec<u32> = m.iter().map(|e| e.freq).collect();
        assert_eq!(survivors.iter().max(), Some(&2));
    }

    #[test]
    fn load_balanced_truncation_spreads_designations() {
        // All 6 ranks hold the same 12 chunks; K=3 means each chunk keeps 3
        // designated ranks — load balance should give every rank 12*3/6 = 6
        // designations, never the naive "first 3 ranks get everything".
        let chunks: Vec<u64> = (0..12).collect();
        let mut acc = leaf(0, &chunks);
        for r in 1..6 {
            acc = GlobalView::merge(acc, leaf(r, &chunks), 3, usize::MAX);
        }
        let loads: Vec<usize> = (0..6).map(|r| acc.designations(r)).collect();
        for (r, l) in loads.iter().enumerate() {
            assert!(
                (4..=8).contains(l),
                "rank {r} got {l} designations; expected ~6 (even spread)"
            );
        }
        assert_eq!(loads.iter().sum::<usize>(), 12 * 3);
    }

    #[test]
    fn merge_is_deterministic() {
        let a = leaf(0, &[1, 2, 3, 4, 5]);
        let b = leaf(1, &[3, 4, 5, 6, 7]);
        let m1 = GlobalView::merge(a.clone(), b.clone(), 2, 4);
        let m2 = GlobalView::merge(a, b, 2, 4);
        assert_eq!(m1, m2);
    }

    #[test]
    fn merged_view_stays_sorted() {
        let a = leaf(0, &[9, 1, 5]);
        let b = leaf(1, &[2, 8]);
        let m = GlobalView::merge(a, b, 3, usize::MAX);
        let fps: Vec<Fingerprint> = m.iter().map(|e| e.fp).collect();
        assert!(fps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn wire_roundtrip() {
        let a = leaf(0, &[1, 2]);
        let b = leaf(1, &[2, 3]);
        let m = GlobalView::merge(a, b, 3, usize::MAX);
        let bytes = m.to_bytes();
        assert_eq!(GlobalView::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn wire_size_matches_actual_encoding() {
        for view in [
            GlobalView::default(),
            leaf(0, &[1, 2, 3]),
            GlobalView::merge(leaf(0, &[1, 2, 3]), leaf(1, &[2, 3, 4]), 3, usize::MAX),
            GlobalView::merge(leaf(0, &[7]), leaf(1, &[7]), 1, usize::MAX),
            GlobalView::merge(leaf(2, &[1, 5, 9]), leaf(0, &[5, 6, 7, 8]), 2, 3),
        ] {
            assert_eq!(view.wire_size(), view.to_bytes().len());
        }
    }

    #[test]
    fn wire_rejects_unsorted_view() {
        // Synthetic ids do not sort like their fingerprints: order first.
        let (lo, hi) = if fp(1) < fp(5) { (1, 5) } else { (5, 1) };
        let sorted = raw_view(&[(lo, 1, &[0]), (hi, 1, &[1])]);
        assert!(GlobalView::from_bytes(&sorted).is_ok());
        let unsorted = raw_view(&[(hi, 1, &[0]), (lo, 1, &[1])]);
        assert!(GlobalView::from_bytes(&unsorted).is_err());
        let duplicate = raw_view(&[(lo, 1, &[0]), (lo, 1, &[1])]);
        assert!(GlobalView::from_bytes(&duplicate).is_err());
    }

    #[test]
    fn wire_rejects_rank_count_overrunning_the_input() {
        let mut bytes = raw_view(&[(1, 2, &[0, 1])]);
        // Claim a third rank the input does not carry.
        let count_at = 8 + Fingerprint::SIZE + 8;
        bytes[count_at..count_at + 8].copy_from_slice(&3u64.to_le_bytes());
        assert!(GlobalView::from_bytes(&bytes).is_err());
        // A count too large for any input must not be trusted either.
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(GlobalView::from_bytes(&bytes).is_err());
        // Likewise an entry count past the input's end.
        let mut bytes = raw_view(&[(1, 1, &[0])]);
        bytes[..8].copy_from_slice(&2u64.to_le_bytes());
        assert!(GlobalView::from_bytes(&bytes).is_err());
    }

    #[test]
    fn wire_rejects_malformed_entries() {
        assert!(GlobalView::from_bytes(&raw_view(&[(1, 2, &[0, 5])])).is_ok());
        for (freq, ranks) in [
            (2, &[5, 0][..]),
            (2, &[3, 3][..]),
            (1, &[MAX_RANKS][..]),
            (u64::from(u32::MAX) + 1, &[0][..]),
        ] {
            let bytes = raw_view(&[(1, freq, ranks)]);
            assert!(
                GlobalView::from_bytes(&bytes).is_err(),
                "freq {freq}, ranks {ranks:?}"
            );
        }
    }

    #[test]
    fn wire_rejects_trailing_bytes() {
        let mut bytes = raw_view(&[(1, 1, &[0])]);
        assert!(GlobalView::from_bytes(&bytes).is_ok());
        bytes.push(0);
        assert!(GlobalView::from_bytes(&bytes).is_err());
    }

    /// The encoding is the documented layout byte for byte, so the
    /// reduction's traffic and `view_bytes` stay comparable across
    /// versions.
    #[test]
    fn wire_layout_is_pinned() {
        let m = GlobalView::merge(leaf(4, &[1, 2]), leaf(1, &[2, 3]), 3, usize::MAX);
        let mut want: Vec<(u64, u64, &[Rank])> = vec![(1, 1, &[4]), (2, 2, &[1, 4]), (3, 1, &[1])];
        want.sort_by_key(|e| fp(e.0));
        assert_eq!(&m.to_bytes()[..], &raw_view(&want)[..]);
    }

    #[test]
    fn reduction_counts_exactly_across_world() {
        // 8 ranks; rank r holds chunks {r, r+1, 100}: chunk 100 is on all 8,
        // interior chunks on exactly 2 ranks, endpoints on 1.
        let out = WorldConfig::default()
            .launch(8, |comm| {
                let me = comm.rank();
                let local = GlobalView::from_local(
                    me,
                    [fp(u64::from(me)), fp(u64::from(me) + 1), fp(100)],
                    usize::MAX,
                );
                try_reduce_global_view(comm, local, 3, usize::MAX).unwrap()
            })
            .expect_all();
        let first = &out.results[0];
        for r in &out.results {
            assert_eq!(r, first, "all ranks must hold the identical view");
        }
        assert_eq!(first.lookup(&fp(100)).unwrap().freq, 8);
        assert_eq!(first.lookup(&fp(100)).unwrap().ranks.len(), 3);
        assert_eq!(first.lookup(&fp(0)).unwrap().freq, 1);
        for mid in 1..8u64 {
            assert_eq!(first.lookup(&fp(mid)).unwrap().freq, 2, "chunk {mid}");
        }
    }

    #[test]
    fn reduction_respects_f_threshold() {
        let out = WorldConfig::default()
            .launch(5, |comm| {
                let me = comm.rank();
                // Every rank holds chunk 0 (freq 5) plus 10 private chunks.
                let mut ids = vec![0u64];
                ids.extend((0..10).map(|i| 1000 + u64::from(me) * 100 + i));
                let local = GlobalView::from_local(me, ids.into_iter().map(fp), 4);
                try_reduce_global_view(comm, local, 2, 4).unwrap()
            })
            .expect_all();
        for view in &out.results {
            assert!(view.len() <= 4);
            assert_eq!(
                view.lookup(&fp(0)).unwrap().freq,
                5,
                "the genuinely frequent chunk must survive selection"
            );
        }
    }

    #[test]
    fn designated_ranks_are_actual_holders() {
        let out = WorldConfig::default()
            .launch(6, |comm| {
                let me = comm.rank();
                // Even ranks hold chunk 42; odd ranks hold chunk 43.
                let id = if me % 2 == 0 { 42 } else { 43 };
                let local = GlobalView::from_local(me, [fp(id)], usize::MAX);
                try_reduce_global_view(comm, local, 2, usize::MAX).unwrap()
            })
            .expect_all();
        let view = &out.results[0];
        for &r in view.lookup(&fp(42)).unwrap().ranks {
            assert_eq!(r % 2, 0, "designated rank {r} does not hold chunk 42");
        }
        for &r in view.lookup(&fp(43)).unwrap().ranks {
            assert_eq!(r % 2, 1, "designated rank {r} does not hold chunk 43");
        }
    }
}
