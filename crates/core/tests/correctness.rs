//! Correctness: every Pass-Join configuration (4 selectors × 5 verifiers)
//! must produce exactly the naive ground-truth join on arbitrary corpora,
//! including corpora full of unpartitionably short strings, duplicates, and
//! planted near-duplicates.

use editdist::NaiveJoin;
use passjoin::{PartitionScheme, PassJoin, Selection, Verification};
use proptest::prelude::*;
use sj_common::{SimilarityJoin, StringCollection};

fn all_configs() -> Vec<PassJoin> {
    let verifications = [
        Verification::Full,
        Verification::Banded,
        Verification::LengthAware,
        Verification::Myers,
        Verification::Extension {
            share_prefix: false,
        },
        Verification::Extension { share_prefix: true },
    ];
    let mut configs = Vec::new();
    for selection in Selection::all() {
        for verification in verifications {
            configs.push(
                PassJoin::new()
                    .with_selection(selection)
                    .with_verification(verification),
            );
        }
    }
    // The partition ablation must be just as correct (Lemma 1 holds for
    // any disjoint partition into τ+1 segments).
    configs.push(PassJoin::new().with_partition(PartitionScheme::LeftHeavy));
    configs.push(
        PassJoin::new()
            .with_partition(PartitionScheme::LeftHeavy)
            .with_selection(Selection::Position)
            .with_verification(Verification::LengthAware),
    );
    configs
}

fn check_against_naive(strings: &[Vec<u8>], tau: usize) {
    let coll = StringCollection::new(strings.to_vec());
    let expected = NaiveJoin.self_join(&coll, tau).normalized_pairs();
    for config in all_configs() {
        let out = config.self_join(&coll, tau);
        let got = out.normalized_pairs();
        assert_eq!(
            got,
            expected,
            "selection={:?} verification={:?} tau={} corpus={:?}",
            config.selection(),
            config.verification(),
            tau,
            strings
                .iter()
                .map(|s| String::from_utf8_lossy(s).into_owned())
                .collect::<Vec<_>>()
        );
        // A correct join also never emits duplicates.
        assert_eq!(got.len(), out.pairs.len(), "duplicate pairs emitted");
        assert_eq!(out.stats.results as usize, out.pairs.len());
    }
}

/// Random short strings over a 3-letter alphabet: maximal collision density.
fn dense_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..12),
        0..24,
    )
}

/// Longer, more realistic strings over the lowercase alphabet.
fn wide_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(97u8..=122, 0..30), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_ground_truth_dense(strings in dense_corpus(), tau in 0usize..5) {
        check_against_naive(&strings, tau);
    }

    #[test]
    fn matches_ground_truth_wide(strings in wide_corpus(), tau in 0usize..7) {
        check_against_naive(&strings, tau);
    }

    #[test]
    fn rs_join_with_self_matches_self_join(strings in dense_corpus(), tau in 0usize..4) {
        let coll = StringCollection::new(strings.clone());
        let expected = NaiveJoin.self_join(&coll, tau).normalized_pairs();
        let rs = PassJoin::new().rs_join(&coll, &coll, tau);
        // R×S with R = S reports each unordered pair twice (once per
        // orientation) plus every identity pair (i, i); strip those.
        let mut got: Vec<(u32, u32)> = rs
            .pairs
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        got.sort_unstable();
        got.dedup();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rs_join_matches_bruteforce(
        left in dense_corpus(),
        right in dense_corpus(),
        tau in 0usize..4,
    ) {
        let r_coll = StringCollection::new(left.clone());
        let s_coll = StringCollection::new(right.clone());
        let mut expected = Vec::new();
        for (i, r) in left.iter().enumerate() {
            for (j, s) in right.iter().enumerate() {
                if editdist::edit_distance(r, s) <= tau {
                    expected.push((i as u32, j as u32));
                }
            }
        }
        expected.sort_unstable();
        let mut got = PassJoin::new().rs_join(&r_coll, &s_coll, tau).pairs;
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_matches_sequential_on_random_corpora(
        strings in dense_corpus(),
        tau in 0usize..4,
        threads in 2usize..5,
    ) {
        let coll = StringCollection::new(strings);
        let seq = PassJoin::new().self_join(&coll, tau);
        let par = PassJoin::new().par_self_join(&coll, tau, threads);
        prop_assert_eq!(par.normalized_pairs(), seq.normalized_pairs());
    }

    #[test]
    fn self_join_distances_are_exact(strings in dense_corpus(), tau in 0usize..4) {
        let coll = StringCollection::new(strings.clone());
        for ((a, b), d) in PassJoin::new().self_join_distances(&coll, tau) {
            prop_assert_eq!(
                d,
                editdist::edit_distance(&strings[a as usize], &strings[b as usize])
            );
            prop_assert!(d <= tau);
        }
    }
}

#[test]
fn planted_duplicates_are_all_recovered() {
    // Deterministic regression: seed strings plus controlled mutations.
    let seeds: &[&str] = &[
        "similarity joins with edit distance",
        "partition based framework",
        "inverted segment indices",
        "query logs from search engines",
    ];
    let mut strings: Vec<Vec<u8>> = Vec::new();
    for seed in seeds {
        let bytes = seed.as_bytes();
        strings.push(bytes.to_vec());
        // One deletion.
        let mut del = bytes.to_vec();
        del.remove(bytes.len() / 2);
        strings.push(del);
        // One substitution + one insertion (distance 2).
        let mut sub = bytes.to_vec();
        sub[1] = b'#';
        sub.insert(4, b'!');
        strings.push(sub);
    }
    let coll = StringCollection::new(strings.clone());
    for tau in 0..=4 {
        check_against_naive(&strings, tau);
        let out = PassJoin::new().self_join(&coll, tau);
        if tau >= 1 {
            // Every seed must pair with its deletion variant.
            for k in 0..seeds.len() as u32 {
                let pair = (3 * k, 3 * k + 1);
                assert!(
                    out.normalized_pairs().contains(&pair),
                    "tau={tau}: missing planted pair {pair:?}"
                );
            }
        }
    }
}

#[test]
fn all_short_strings_corpus() {
    // Every string shorter than τ+1: the partition path is never usable and
    // the brute-force fallback must carry the whole join.
    let strings: Vec<Vec<u8>> = ["a", "b", "ab", "ba", "", "aa", "b"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    for tau in 0..=4 {
        check_against_naive(&strings, tau);
    }
}

#[test]
fn mixed_short_and_long_corpus() {
    let strings: Vec<Vec<u8>> = ["ab", "abcdef", "abdef", "a", "abcdefg", "", "zzzzz"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    for tau in 0..=5 {
        check_against_naive(&strings, tau);
    }
}

#[test]
fn stats_are_internally_consistent() {
    let strings: Vec<Vec<u8>> = (0..40u8)
        .map(|i| format!("record number {i:02} payload").into_bytes())
        .collect();
    let coll = StringCollection::new(strings);
    let out = PassJoin::new().self_join(&coll, 2);
    let s = &out.stats;
    assert_eq!(s.strings, 40);
    assert!(s.probes <= s.selected_substrings);
    assert!(s.candidate_pairs <= s.candidate_occurrences);
    assert!(s.results <= s.candidate_pairs + s.verifications);
    assert!(s.index_bytes > 0);
}
