//! Pins the draw streams of the constructive graph samplers.
//!
//! The goldens draw graphs only from `RootedSampler`, at `n ≤ 8`. These
//! hashes cover the rooted, non-split and async-crash samplers at sizes
//! up to 64, so a change to any sampler's draws, their order or the
//! graphs built from them fails here, not just where a golden reaches.

use consensus_netmodel::sampler::{
    AsyncCrashSampler, GraphSampler, NonsplitSampler, RootedSampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Graphs hashed per (sampler, size).
const DRAWS: usize = 2000;

/// The agent counts every sampler is pinned at.
const SIZES: [usize; 5] = [4, 8, 12, 16, 64];

/// FNV-1a over the in-masks (little-endian bytes) of the first
/// [`DRAWS`] graphs `sampler` draws from a generator seeded with `seed`.
fn stream_hash(sampler: &impl GraphSampler, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for _ in 0..DRAWS {
        for &mask in sampler.sample(&mut rng).in_masks() {
            for byte in mask.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    hash
}

/// Hashes the stream of `make(n)` at every size of [`SIZES`], seeded
/// from `seed` and the size, as `(n, hash)` pairs.
fn pins<S: GraphSampler>(seed: u64, make: impl Fn(usize) -> S) -> Vec<(usize, u64)> {
    SIZES
        .iter()
        .map(|&n| (n, stream_hash(&make(n), seed ^ ((n as u64) << 32))))
        .collect()
}

#[test]
fn rooted_streams_are_pinned() {
    assert_eq!(
        pins(15, |n| RootedSampler::new(n, 0.15)),
        [
            (4, 0xA7940B7E709CF620),
            (8, 0x99FC41959CDAC0A6),
            (12, 0x5489734D1D4D9DF3),
            (16, 0xA9A891C6F5D4479F),
            (64, 0xA8024C2FE72A4B62),
        ]
    );
    assert_eq!(
        pins(50, |n| RootedSampler::new(n, 0.5)),
        [
            (4, 0x0A05AA8696566C08),
            (8, 0x95AA39E9B8267D26),
            (12, 0xB07DEC11C2EC7BAB),
            (16, 0x3CF8B224193BBEE6),
            (64, 0xC0F9D1F261FE031C),
        ]
    );
}

#[test]
fn nonsplit_streams_are_pinned() {
    assert_eq!(
        pins(20, |n| NonsplitSampler::new(n, 0.2)),
        [
            (4, 0x8D5BFC304841D4CE),
            (8, 0x5D2320A28FA8F05F),
            (12, 0x0293E9F020560CF8),
            (16, 0x020EA7BA295255B0),
            (64, 0x2143480D6456B7EC),
        ]
    );
    assert_eq!(
        pins(40, |n| NonsplitSampler::new(n, 0.4)),
        [
            (4, 0x7054AF5F5D3F7822),
            (8, 0x88F350B10F52D28F),
            (12, 0xFCDE72DB9C211DE6),
            (16, 0x1F5068C3F3514861),
            (64, 0xA7DB4B331490EB3D),
        ]
    );
}

#[test]
fn async_crash_streams_are_pinned() {
    assert_eq!(
        pins(1, |n| AsyncCrashSampler::new(n, 1)),
        [
            (4, 0x1C35E808F462CFA4),
            (8, 0x8EED1955B959CB7C),
            (12, 0xF529E4E91A9B37F7),
            (16, 0xE306CE693533235B),
            (64, 0x3299A59AFAF5CABC),
        ]
    );
}
