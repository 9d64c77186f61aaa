//! Integration tests for the beyond-the-paper features: the parallel
//! driver, the top-k join, and online similarity search — each checked
//! against an independent oracle on realistic corpora.

use datagen::{DatasetKind, DatasetSpec};
use passjoin::PassJoin;
use passjoin_online::{OnlineIndex, Queryable};
use sj_common::{SimilarityJoin, StringCollection};

#[test]
fn parallel_join_matches_sequential_on_all_corpora() {
    for kind in DatasetKind::all() {
        let coll = DatasetSpec::new(kind, 2_000).collection();
        let tau = kind.figure12_taus()[0];
        let seq = PassJoin::new().self_join(&coll, tau);
        let par = PassJoin::new().par_self_join(&coll, tau, 4);
        assert_eq!(
            par.normalized_pairs(),
            seq.normalized_pairs(),
            "{} tau={tau}",
            kind.name()
        );
        assert_eq!(par.stats.results, seq.stats.results);
        // The parallel run builds the whole index up front, so its peak is
        // at least the sequential sliding window's.
        assert!(par.stats.index_bytes >= seq.stats.index_bytes);
    }
}

#[test]
fn topk_distances_match_threshold_join() {
    let coll = DatasetSpec::new(DatasetKind::Author, 1_200).collection();
    let k = 500;
    let top = PassJoin::new().topk_self_join(&coll, k);
    assert_eq!(top.len(), k);
    // Distances ascend.
    for w in top.windows(2) {
        assert!(w[0].1 <= w[1].1);
    }
    // Cross-check: every pair within the k-th distance minus one must be
    // in the top-k (they all rank strictly better).
    let kth = top.last().unwrap().1;
    if kth > 0 {
        let within = PassJoin::new().self_join_distances(&coll, kth - 1);
        assert!(
            within.len() <= k,
            "more pairs at distance <= {} than k={k}",
            kth - 1
        );
        let top_set: std::collections::HashSet<(u32, u32)> = top.iter().map(|&(p, _)| p).collect();
        for (pair, _) in within {
            assert!(top_set.contains(&pair), "missing better pair {pair:?}");
        }
    }
}

#[test]
fn search_index_agrees_with_rs_join() {
    // Querying every probe string against the dictionary must equal an
    // R×S join of probes × dictionary.
    let dict_strings = DatasetSpec::new(DatasetKind::Author, 800).generate();
    let probe_strings = DatasetSpec::new(DatasetKind::Author, 100)
        .with_seed(99)
        .generate();
    let dict = StringCollection::new(dict_strings.clone());
    let probes = StringCollection::new(probe_strings.clone());
    let tau = 2;

    let mut expected: Vec<(u32, u32)> = PassJoin::new().rs_join(&probes, &dict, tau).pairs;
    expected.sort_unstable();

    // Ids are assigned in insertion order, so they equal dictionary
    // positions.
    let index = OnlineIndex::from_strings(dict_strings.iter(), tau);
    let mut got: Vec<(u32, u32)> = Vec::new();
    for (qi, q) in probe_strings.iter().enumerate() {
        for (dict_pos, _) in index.matches(q, tau) {
            got.push((qi as u32, dict_pos));
        }
    }
    got.sort_unstable();
    assert_eq!(got, expected);
}

#[test]
fn search_index_exact_distances_on_sample() {
    let dict_strings = DatasetSpec::new(DatasetKind::QueryLog, 300).generate();
    let index = OnlineIndex::from_strings(dict_strings.iter(), 4);
    // Query with mutated copies of dictionary entries.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(5);
    for s in dict_strings.iter().take(40) {
        let q = datagen::mutate(s, 2, &mut rng);
        for (pos, d) in index.matches(&q, 4) {
            assert_eq!(
                d,
                editdist::edit_distance(&dict_strings[pos as usize], &q),
                "inexact distance reported"
            );
            assert!(d <= 4);
        }
    }
}
