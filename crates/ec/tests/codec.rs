//! Reed-Solomon encode/decode round-trips: every loss pattern of at most
//! `m` shards must reconstruct the payload byte-exactly, and every
//! unsatisfiable or malformed request must fail with a typed error.

use bytes::Bytes;
use proptest::prelude::*;
use replidedup_ec::{EcError, RsCode};

fn payload(len: usize, seed: u64) -> Bytes {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push(state as u8);
    }
    Bytes::from(out)
}

fn survivors(shards: &[Bytes], lost: u32) -> Vec<(u8, &[u8])> {
    shards
        .iter()
        .enumerate()
        .filter(|(i, _)| lost & (1 << i) == 0)
        .map(|(i, s)| (i as u8, s.as_ref()))
        .collect()
}

/// Exhaustive: for several geometries, every loss pattern of `<= m`
/// shards decodes back to the exact payload — including recovering each
/// individual lost shard for repair.
#[test]
fn every_tolerated_loss_pattern_round_trips() {
    for (k, m) in [(2u8, 1u8), (3, 2), (4, 2), (5, 3)] {
        let code = RsCode::new(k, m).unwrap();
        let n = code.shards() as u32;
        // Lengths straddling shard alignment: empty, sub-shard, unaligned, aligned.
        for len in [0usize, 1, 7, k as usize * 37, k as usize * 64 - 3] {
            let data = payload(len, u64::from(k) * 1000 + u64::from(m) + len as u64);
            let shards = code.encode(&data);
            assert_eq!(shards.len(), n as usize);
            for j in 0..k {
                assert_eq!(&shards[j as usize][..], &data[code.data_range(j, len)]);
            }
            for lost in 0u32..(1 << n) {
                if lost.count_ones() > u32::from(m) {
                    continue;
                }
                let have = survivors(&shards, lost);
                let decoded = code
                    .decode(&have, len)
                    .unwrap_or_else(|e| panic!("k={k} m={m} len={len} lost={lost:#b}: {e}"));
                assert_eq!(decoded, data, "k={k} m={m} len={len} lost={lost:#b}");
                // Repair primitive: each lost shard is rebuilt bit-exactly.
                for i in 0..n as u8 {
                    if lost & (1 << i) != 0 {
                        let rebuilt = code.reconstruct_shard(&have, i, len).unwrap();
                        assert_eq!(rebuilt, shards[i as usize], "shard {i} lost={lost:#b}");
                    }
                }
            }
        }
    }
}

/// FNV-1a 64 of `bytes`: a dependency-free digest for pinning shard bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the stored format: the two parity shards of a seeded 1 MiB 4+2
/// stripe, digests recorded from the scalar-only implementation. Any
/// kernel that changes a parity byte fails here.
#[test]
fn parity_of_a_seeded_mib_is_pinned() {
    let code = RsCode::new(4, 2).unwrap();
    let data = payload(1 << 20, 2026);
    let shards = code.encode(&data);
    let digests: Vec<(usize, u64)> = shards[4..].iter().map(|p| (p.len(), fnv1a(p))).collect();
    assert_eq!(
        digests,
        vec![
            (1 << 18, 0x233c_50cf_999c_31f6),
            (1 << 18, 0xae46_cf6c_5543_5c5c)
        ]
    );
}

/// A payload whose length is not a multiple of `k` has a short last data
/// shard (here 249 of 250 bytes, and an empty one for 9 bytes over 4).
/// Decode returns it from exactly the data shards, from a data + parity
/// mix, and from a set holding both parities; each lost data shard is
/// rebuilt at its true length.
#[test]
fn decode_with_a_short_last_shard() {
    let code = RsCode::new(4, 2).unwrap();
    for len in [999usize, 9] {
        let data = payload(len, len as u64);
        let shards = code.encode(&data);
        assert!(
            shards[3].len() < shards[0].len(),
            "len {len}: last shard short"
        );
        for lost in [
            0b11_0000u32,
            0b10_1000,
            0b00_1001,
            0b01_0100,
            0b00_0011,
            0b00_1100,
        ] {
            let have = survivors(&shards, lost);
            assert_eq!(
                code.decode(&have, len).unwrap(),
                data,
                "len {len} lost={lost:#b}"
            );
            for i in (0..4u8).filter(|i| lost & (1 << i) != 0) {
                let rebuilt = code.reconstruct_shard(&have, i, len).unwrap();
                assert_eq!(rebuilt, shards[i as usize], "len {len} shard {i}");
            }
        }
    }
}

#[test]
fn more_than_m_losses_is_a_typed_failure() {
    let code = RsCode::new(4, 2).unwrap();
    let data = payload(1000, 7);
    let shards = code.encode(&data);
    // Lose 3 shards: only 3 survive, 4 needed.
    let have = survivors(&shards, 0b000111);
    assert_eq!(
        code.decode(&have, 1000),
        Err(EcError::NotEnoughShards { have: 3, need: 4 })
    );
    assert_eq!(
        code.reconstruct_shard(&have, 0, 1000),
        Err(EcError::NotEnoughShards { have: 3, need: 4 })
    );
}

#[test]
fn malformed_inputs_are_typed_failures_not_panics() {
    let code = RsCode::new(3, 2).unwrap();
    let data = payload(300, 1);
    let shards = code.encode(&data);
    let mut have = survivors(&shards, 0);
    // Out-of-range index.
    have[0].0 = 200;
    assert_eq!(
        code.decode(&have, 300),
        Err(EcError::ShardIndexOutOfRange {
            index: 200,
            shards: 5
        })
    );
    // Duplicate index.
    have[0].0 = 1;
    assert_eq!(
        code.decode(&have, 300),
        Err(EcError::DuplicateShard { index: 1 })
    );
    // Wrong geometry: a shard of the wrong length.
    let mut have = survivors(&shards, 0);
    have[1].1 = &have[1].1[..50];
    assert_eq!(
        code.decode(&have, 300),
        Err(EcError::ShardLengthMismatch {
            index: 1,
            len: 50,
            expected: 100
        })
    );
    // Wrong recovery target.
    let have = survivors(&shards, 0);
    assert_eq!(
        code.reconstruct_shard(&have, 9, 300),
        Err(EcError::ShardIndexOutOfRange {
            index: 9,
            shards: 5
        })
    );
}

#[test]
fn invalid_geometries_are_rejected() {
    assert_eq!(
        RsCode::new(0, 2),
        Err(EcError::InvalidParams { k: 0, m: 2 })
    );
    assert_eq!(
        RsCode::new(4, 0),
        Err(EcError::InvalidParams { k: 4, m: 0 })
    );
    assert_eq!(
        RsCode::new(200, 56),
        Err(EcError::InvalidParams { k: 200, m: 56 })
    );
    assert!(RsCode::new(200, 55).is_ok(), "k + m == 255 is the ceiling");
}

#[test]
fn shard_geometry_accessors_agree_with_encode() {
    let code = RsCode::new(4, 2).unwrap();
    for len in [0usize, 1, 9, 100, 128] {
        let data = payload(len, len as u64);
        let shards = code.encode(&data);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.len(), code.true_len(i as u8, len), "len={len} shard {i}");
        }
        let l = code.shard_len(len);
        assert_eq!(l, len.div_ceil(4));
        for parity in shards.iter().skip(4) {
            assert_eq!(parity.len(), l, "parity is always full length");
        }
    }
}

#[test]
fn stripe_placement_is_deterministic_and_distinct() {
    use replidedup_ec::{shard_node, shard_nodes};
    let nodes = shard_nodes(12345, 6, 8);
    assert_eq!(nodes.len(), 6);
    let mut sorted = nodes.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 6, "6 shards over 8 nodes must be distinct");
    for (i, &nd) in nodes.iter().enumerate() {
        assert_eq!(shard_node(12345, i as u8, 8), Some(nd));
    }
    // Small clusters wrap instead of failing.
    let wrapped = shard_nodes(3, 6, 4);
    assert_eq!(wrapped.len(), 6);
    assert!(wrapped.iter().all(|&nd| nd < 4));
    assert!(shard_nodes(0, 4, 0).is_empty());
    assert_eq!(shard_node(0, 0, 0), None);
}

proptest! {
    /// Random payloads and geometries: encode → drop a random tolerated
    /// subset → decode is the identity.
    #[test]
    fn random_round_trip(seed in any::<u64>(), len in 0usize..2000, kx in 2u8..8, mx in 1u8..4) {
        let code = RsCode::new(kx, mx).unwrap();
        let data = payload(len, seed);
        let shards = code.encode(&data);
        // Seed-derived loss pattern of exactly m shards.
        let n = code.shards() as u32;
        let mut lost = 0u32;
        let mut s = seed;
        while lost.count_ones() < u32::from(mx) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lost |= 1 << (s % u64::from(n));
        }
        let have = survivors(&shards, lost);
        prop_assert_eq!(code.decode(&have, len).unwrap(), &data[..]);
    }
}

/// Payload lengths for the parity check: empty, one byte, below `k`, and
/// either side of multiples of `k` and of the 4 KiB column block (a shard
/// of `len / k` bytes crosses a block boundary at `len = 4096 k`).
fn check_lengths(k: usize) -> Vec<usize> {
    let block = 4096 * k;
    let mut lens = vec![0, 1, k - 1, k, k + 1, 3 * k - 1, 3 * k + 1];
    lens.extend([
        4095,
        4096,
        4097,
        block - 1,
        block,
        block + 1,
        2 * block + k - 1,
    ]);
    lens
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// `parity_mismatches` names exactly the parity indices whose copies
    /// differ from what `encode` computes: nothing for an intact stripe,
    /// and, after bytes of 1..=m parity shards are flipped, truncated or
    /// extended, exactly those shards — with an intact duplicate copy of
    /// every parity shard alongside, which cannot hide a bad one.
    #[test]
    fn parity_check_agrees_with_encode(
        seed in any::<u64>(),
        kx in 1u8..7,
        mx in 1u8..4,
        at in 0usize..14,
        hit in 1u32..8,
        damage in 0u8..3,
    ) {
        let code = RsCode::new(kx, mx).unwrap();
        let len = check_lengths(usize::from(kx))[at];
        let shards = code.encode(&payload(len, seed));
        let (data, parity) = shards.split_at(usize::from(kx));
        let data: Vec<&[u8]> = data.iter().map(Bytes::as_ref).collect();
        let intact: Vec<(u8, &[u8])> = (kx..).zip(parity.iter().map(Bytes::as_ref)).collect();
        prop_assert_eq!(code.parity_mismatches(&data, &intact, len), Ok(vec![]));

        // Damage the parity shards named by the low `m` bits of `hit`
        // (at least one: bit 0 stands in when they are all clear).
        let hit = match hit & ((1 << mx) - 1) {
            0 => 1,
            h => h,
        };
        let mut stored: Vec<Vec<u8>> = parity.iter().map(|p| p.to_vec()).collect();
        for (p, bytes) in stored.iter_mut().enumerate() {
            if hit & (1 << p) == 0 {
                continue;
            }
            let pos = (seed as usize).wrapping_add(p) % bytes.len().max(1);
            match (damage, bytes.get_mut(pos)) {
                (0, Some(b)) => *b ^= 1 + (seed >> 8) as u8 % 255,
                (1, Some(_)) => {
                    bytes.pop();
                }
                _ => bytes.push(0),
            }
        }
        let mut copies: Vec<(u8, &[u8])> = (kx..).zip(stored.iter().map(Vec::as_slice)).collect();
        copies.extend(&intact);
        let want: Vec<u8> = (kx..)
            .zip(parity.iter().zip(&stored))
            .filter(|(_, (enc, got))| enc.as_ref() != got.as_slice())
            .map(|(i, _)| i)
            .collect();
        let named: Vec<u8> = (kx..).take(usize::from(mx)).filter(|i| hit & (1 << (i - kx)) != 0).collect();
        prop_assert_eq!(&want, &named);
        prop_assert_eq!(code.parity_mismatches(&data, &copies, len), Ok(want));
    }
}

/// The parity check's malformed inputs are typed errors, like decode's.
#[test]
fn parity_check_rejects_malformed_inputs() {
    let code = RsCode::new(3, 2).unwrap();
    let shards = code.encode(&payload(100, 7));
    let data: Vec<&[u8]> = shards[..3].iter().map(Bytes::as_ref).collect();
    let parity = [(3u8, shards[3].as_ref())];
    assert_eq!(
        code.parity_mismatches(&data[..2], &parity, 100),
        Err(EcError::NotEnoughShards { have: 2, need: 3 })
    );
    let extra = [data[0], data[1], data[2], data[2]];
    assert_eq!(
        code.parity_mismatches(&extra, &parity, 100),
        Err(EcError::ShardIndexOutOfRange {
            index: 3,
            shards: 5
        })
    );
    let short = [data[0], &data[1][1..], data[2]];
    assert_eq!(
        code.parity_mismatches(&short, &parity, 100),
        Err(EcError::ShardLengthMismatch {
            index: 1,
            len: 33,
            expected: 34
        })
    );
    for index in [2u8, 5] {
        assert_eq!(
            code.parity_mismatches(&data, &[(index, shards[3].as_ref())], 100),
            Err(EcError::ShardIndexOutOfRange { index, shards: 5 })
        );
    }
    assert_eq!(code.parity_mismatches(&data, &[], 100), Ok(vec![]));
}
