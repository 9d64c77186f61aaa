//! Workload inputs drawn by `--seed` from a corpus of fixed character.
//!
//! The synthetic generators derive their Zipf vocabulary from their
//! seed, and the vocabulary sets how many candidates a join or query
//! meets: over generator seeds 1–3, the 2·10⁵-string Author+Title
//! self-join at τ = 8 verifies 76.6 M, 12.8 M and 29.1 M pairs. A
//! benchmark that regenerated the vocabulary per seed would measure the
//! vocabulary, not the program. So the join and churn workloads fix the
//! vocabulary with datagen's default seed and let `--seed` draw which
//! strings are used, and in what order.

use datagen::{DatasetKind, DatasetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `DatasetSpec`'s default seed: the vocabulary every drawn corpus
/// shares.
pub const VOCAB_SEED: u64 = 42;

/// Generates `pool` strings of `kind` under [`VOCAB_SEED`] and draws
/// `n` of them by `seed`, in drawn order; the rest follow, also in drawn
/// order.
pub fn draw(kind: DatasetKind, pool: usize, n: usize, seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut all = DatasetSpec::new(kind, pool.max(n))
        .with_seed(VOCAB_SEED)
        .generate();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..all.len() {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    let rest = all.split_off(n);
    (all, rest)
}
