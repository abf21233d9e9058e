//! The `serve-churn` inputs: a seeded pool of generated program pairs and a seeded
//! Zipf request stream over it.
//!
//! The pool holds [`DRAWS`] pairs of each shape class of [`CLASSES`], one cell of
//! the depth ≤ 2 Table-2 shape grid per class; the seed draws each pair's program
//! (bounds, deltas, amplitudes) through [`dca_ir::generate_pair`], which also gives
//! the tight answer by construction. Pairs of one class share their shape, so a
//! later draw of a class can warm-start (`near`) from an earlier one.
//!
//! Five draws per class put the median cold miss in the middle of one class's
//! cluster of similar solve times instead of in the gap between two classes, which
//! keeps `miss_p50_ms` steady across seeds. Popularity follows the pool order, which
//! interleaves the classes (the first five pairs are one of each class), so every
//! seed has hot sets of the same shapes. The seed orders the stream.

use dca_ir::{generate_pair, GeneratedPair, PairKind, ShapeParams, SmallRng};

/// Requests per stream: enough that every run sees well over 1,000 cache hits
/// after the pool's one cold request per pair.
pub const STREAM_LEN: usize = 4500;

/// The Zipf exponent of request popularity.
const ZIPF_EXPONENT: f64 = 1.0;

/// Pairs drawn per shape class.
pub const DRAWS: usize = 9;

const fn class(depth: u32, phases: u32, kind: PairKind) -> ShapeParams {
    ShapeParams {
        depth,
        phases,
        dependent: false,
        disjunctive: false,
        padding: false,
        phase_flip: false,
        kind,
    }
}

/// The shape classes, each one cell of the depth ≤ 2 grid: a dependent inner loop,
/// a disjunctive guard, straight-line padding, a phase-flip amplitude change and an
/// equivalent rewrite. Their cold solves take from tens of milliseconds (the
/// equivalent rewrite) to about half a second (the padded depth-2 nest).
pub const CLASSES: [ShapeParams; 5] = [
    ShapeParams {
        dependent: true,
        ..class(1, 1, PairKind::Delta)
    },
    ShapeParams {
        disjunctive: true,
        ..class(1, 2, PairKind::Delta)
    },
    ShapeParams {
        padding: true,
        ..class(1, 2, PairKind::Delta)
    },
    ShapeParams {
        phase_flip: true,
        ..class(1, 2, PairKind::Delta)
    },
    class(1, 2, PairKind::Equivalent),
];

/// The pool of `seed`: [`DRAWS`] rounds of one pair per class, in class order. A
/// draw that repeats an earlier pair of the pool is drawn again, so every pair is
/// distinct and its first request is a genuine miss.
pub fn pool(seed: u64) -> Vec<GeneratedPair> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs: Vec<GeneratedPair> = Vec::new();
    for shape in (0..DRAWS).flat_map(|_| CLASSES.iter()) {
        let pair = std::iter::repeat_with(|| generate_pair(rng.next_u64(), shape))
            .find(|pair| {
                !pairs.iter().any(|earlier| {
                    earlier.source_new == pair.source_new && earlier.source_old == pair.source_old
                })
            })
            .expect("the generator has more than DRAWS distinct pairs per class");
        pairs.push(pair);
    }
    pairs
}

/// The request stream of `seed` over a pool of `pool_len` pairs: [`STREAM_LEN`]
/// pool indices drawn from a Zipf law over the pool order, with every pair present
/// at least once (a pair the draw missed replaces a request of a pair drawn twice or
/// more).
pub fn stream(seed: u64, pool_len: usize) -> Vec<usize> {
    assert!(
        pool_len > 0 && pool_len < STREAM_LEN,
        "pool must fit the stream"
    );
    // A different stream of the same seed than the pool's.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_C4A2_0000_0000);
    let weights: Vec<f64> = (0..pool_len)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut requests: Vec<usize> = (0..STREAM_LEN)
        .map(|_| {
            let mut u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(pool_len - 1)
        })
        .collect();
    let mut counts = vec![0usize; pool_len];
    for &index in &requests {
        counts[index] += 1;
    }
    for missing in 0..pool_len {
        if counts[missing] > 0 {
            continue;
        }
        loop {
            let at = rng.gen_index(STREAM_LEN);
            if counts[requests[at]] > 1 {
                counts[requests[at]] -= 1;
                requests[at] = missing;
                counts[missing] = 1;
                break;
            }
        }
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL_LEN: usize = CLASSES.len() * DRAWS;

    #[test]
    fn equal_seeds_give_identical_pools_and_streams() {
        for seed in [1, 7, 0xC0FFEE] {
            let (a, b) = (pool(seed), pool(seed));
            assert_eq!(a.len(), POOL_LEN);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.source_new, y.source_new);
                assert_eq!(x.source_old, y.source_old);
                assert_eq!((x.tight, x.degree), (y.tight, y.degree));
            }
            assert_eq!(stream(seed, a.len()), stream(seed, b.len()));
        }
        let (a, b) = (pool(1), pool(2));
        assert!(a.iter().zip(&b).any(|(x, y)| x.source_new != y.source_new));
        assert_ne!(stream(1, POOL_LEN), stream(2, POOL_LEN));
    }

    #[test]
    fn every_pair_is_requested_and_hits_dominate() {
        for seed in 0..20 {
            let requests = stream(seed, POOL_LEN);
            assert_eq!(requests.len(), STREAM_LEN);
            for index in 0..POOL_LEN {
                assert!(
                    requests.contains(&index),
                    "seed {seed}: pair {index} never requested"
                );
            }
            // Each pair is cold once; everything after its first request is a hit,
            // enough for ten hits beyond the 99th percentile.
            assert!(requests.len() - POOL_LEN >= 1000);
            // Zipf: the most popular pair is requested more often than the least.
            let count = |i: usize| requests.iter().filter(|&&r| r == i).count();
            assert!(count(0) > count(POOL_LEN - 1));
        }
    }

    #[test]
    fn the_pool_holds_distinct_pairs_within_depth_two() {
        assert!(CLASSES.iter().all(|shape| shape.depth <= 2));
        for seed in 0..100 {
            let pairs = pool(seed);
            let sources: std::collections::BTreeSet<(&str, &str)> = pairs
                .iter()
                .map(|p| (p.source_new.as_str(), p.source_old.as_str()))
                .collect();
            assert_eq!(sources.len(), POOL_LEN, "seed {seed}: a pair repeats");
        }
    }
}
