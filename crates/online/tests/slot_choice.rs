//! Slot choice below τ_max: a query at `τ < τ_max` screens only the `τ+1`
//! slots whose position-aware windows hold the fewest postings, under
//! left/right extension budgets without the multi-match caps.
//!
//! The corpus is built to stress exactly that rule. Thousands of strings
//! share their first and last segment, so those two slots hold huge
//! lists and are never chosen at small τ. The queries are planted near
//! duplicates: one insert, delete or substitute in each of several
//! segments, which pushes the preserved segment to the edge of its
//! position window (shift `±⌊(τ±Δ)/2⌋`) or spends a whole extension
//! budget on one side. Pinned here:
//!
//! 1. **Brute-force equality** — for every `τ ≤ τ_max`, plain, top-k
//!    (k ∈ {0, 1, 3}), count-only, streaming and candidate-capped
//!    requests answer exactly what `editdist::edit_distance` over the
//!    live ids answers, on the owned and interned backends and on a
//!    `LoadMode::Direct` load.
//! 2. **The funnel shrinks** — on `τ_max = 4`, a `τ = 1` query screens
//!    fewer than 5 % of the shared list in candidates; screening every
//!    slot would scan all of it.

use std::sync::atomic::{AtomicU64, Ordering};

use passjoin::partition::segment;
use passjoin_online::{
    CollectSink, ExecBudget, KeyBackend, LoadMode, Match, OnlineIndex, Queryable, SearchRequest,
};
use passjoin_persist::SnapshotFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Length of the strings that share their outer segments.
const L: usize = 30;
/// How many strings share the first and the last segment.
const SHARED: usize = 2_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Edit {
    Insert,
    Delete,
    Substitute,
}

const EDITS: [Edit; 3] = [Edit::Insert, Edit::Delete, Edit::Substitute];

/// `SHARED` strings of length `L` whose first and last segments (of the
/// `τ_max` partition) are the same and whose middle is random, plus a
/// dense tail of short random strings over a tiny alphabet (the short
/// lane and other lengths, with real collisions).
fn skewed_corpus(tau_max: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let first = segment(L, tau_max, 1);
    let last = segment(L, tau_max, tau_max + 1);
    let mut out = Vec::new();
    for _ in 0..SHARED {
        let s: Vec<u8> = (0..L)
            .map(|i| {
                if i < first.end() {
                    b'A' + (i % 7) as u8
                } else if i >= last.start {
                    b'Q' + (i % 5) as u8
                } else {
                    rng.gen_range(b'a'..=b'z')
                }
            })
            .collect();
        out.push(s);
    }
    for _ in 0..150 {
        let len = rng.gen_range(0..L + 6);
        out.push((0..len).map(|_| rng.gen_range(b'a'..=b'd')).collect());
    }
    out
}

/// Applies one edit per listed slot, each in the middle of that slot's
/// segment of `r` (right to left, so earlier positions stay valid).
fn plant(r: &[u8], tau_max: usize, edits: &[(usize, Edit)]) -> Vec<u8> {
    let mut q = r.to_vec();
    let mut edits = edits.to_vec();
    edits.sort_by_key(|&(slot, _)| std::cmp::Reverse(slot));
    for (slot, edit) in edits {
        let seg = segment(r.len(), tau_max, slot);
        let at = seg.start + seg.len / 2;
        match edit {
            Edit::Insert => q.insert(at, b'#'),
            Edit::Delete => {
                q.remove(at);
            }
            Edit::Substitute => q[at] = b'#',
        }
    }
    q
}

/// Every way to put at most `max_edits` edits into distinct slots.
fn edit_patterns(tau_max: usize, max_edits: usize) -> Vec<Vec<(usize, Edit)>> {
    let mut out = vec![Vec::new()];
    for slot in 1..=tau_max + 1 {
        let mut grown = Vec::new();
        for pattern in &out {
            if pattern.len() < max_edits {
                for edit in EDITS {
                    let mut p: Vec<(usize, Edit)> = pattern.clone();
                    p.push((slot, edit));
                    grown.push(p);
                }
            }
        }
        out.extend(grown);
    }
    out
}

/// Planted near duplicates of the shared strings, each on its own base:
/// every pattern that edits only middle slots with at most two edits,
/// and every twentieth of the others; plus a few dense strings.
fn planted_queries(strings: &[Vec<u8>], tau_max: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (i, pattern) in edit_patterns(tau_max, tau_max).iter().enumerate() {
        let middle = pattern.len() <= 2
            && pattern
                .iter()
                .all(|&(slot, _)| slot != 1 && slot != tau_max + 1);
        if middle || i % 20 == 0 {
            let base = &strings[(i * 37) % SHARED];
            out.push(plant(base, tau_max, pattern));
        }
    }
    out.extend(strings[SHARED..SHARED + 12].iter().cloned());
    out
}

/// Per-byte counts; half their L1 gap is a lower bound on edit distance.
fn histogram(s: &[u8]) -> [i32; 256] {
    let mut h = [0; 256];
    for &b in s {
        h[b as usize] += 1;
    }
    h
}

/// Exact distances from `q` to every live id within `tau_max`, by id.
/// A pair is skipped before the full DP only when its byte counts alone
/// need more than `tau_max` edits (each edit moves the count gap by at
/// most 2), so the answer is the brute-force one.
fn brute_force(strings: &[Vec<u8>], q: &[u8], tau_max: usize) -> Vec<Match> {
    let hq = histogram(q);
    strings
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            let gap: i32 = histogram(s)
                .iter()
                .zip(&hq)
                .map(|(a, b)| (a - b).abs())
                .sum();
            gap as usize <= 2 * tau_max
        })
        .map(|(id, s)| (id as u32, editdist::edit_distance(q, s)))
        .filter(|&(_, d)| d <= tau_max)
        .collect()
}

/// `strings` indexed on one key backend. `Direct` is a
/// `LoadMode::Direct` load of an interned build's snapshot.
fn source(strings: &[Vec<u8>], tau_max: usize, backend: KeyBackend) -> OnlineIndex {
    let build = |backend| {
        OnlineIndex::builder(tau_max)
            .key_backend(backend)
            .build_from(strings.iter())
    };
    if backend != KeyBackend::Direct {
        return build(backend);
    }
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "passjoin-slot-choice-{}-{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    build(KeyBackend::Interned)
        .save(&path)
        .expect("save succeeds");
    let file = SnapshotFile::open(&path).expect("snapshot opens");
    let mode = LoadMode::Direct {
        deep_validate: true,
    };
    let direct = OnlineIndex::from_snapshot_file(&file, mode, None).expect("direct load");
    drop(file);
    let _ = std::fs::remove_file(&path);
    assert_eq!(direct.key_backend(), KeyBackend::Direct);
    direct
}

/// Every request shape at every `τ ≤ τ_max` against brute force.
fn assert_every_shape_is_exact(tau_max: usize, seed: u64, backend: KeyBackend) {
    let strings = skewed_corpus(tau_max, seed);
    let queries = planted_queries(&strings, tau_max);
    let truth: Vec<Vec<Match>> = queries
        .iter()
        .map(|q| brute_force(&strings, q, tau_max))
        .collect();
    let index = source(&strings, tau_max, backend);
    for (q, all) in queries.iter().zip(&truth) {
        for tau in 0..=tau_max {
            let label = format!(
                "{backend:?} τ_max={tau_max} τ={tau} q={:?}",
                String::from_utf8_lossy(q)
            );
            let expected: Vec<Match> = all.iter().copied().filter(|m| m.1 <= tau).collect();
            let req = SearchRequest::borrowed(q, tau);

            let plain = index.search(&req);
            assert_eq!(*plain.matches, expected, "{label}: plain");
            assert!(plain.completion.is_complete(), "{label}: complete");

            let mut by_distance: Vec<Match> = expected.clone();
            by_distance.sort_unstable_by_key(|&(id, d)| (d, id));
            for k in [0usize, 1, 3] {
                let topk = index.search(&req.clone().with_limit(k));
                let want = &by_distance[..k.min(by_distance.len())];
                assert_eq!(*topk.matches, want, "{label}: top-{k}");
            }

            let count = index.search(&req.clone().count_only());
            assert_eq!(count.count, expected.len(), "{label}: count-only");

            let mut emitted = Vec::new();
            let streamed = {
                let mut sink = CollectSink::new(&mut emitted);
                index.search_streaming(&req, &mut sink)
            };
            emitted.sort_unstable();
            assert_eq!(emitted, expected, "{label}: streaming");
            assert_eq!(streamed.count, expected.len(), "{label}: streamed count");

            for cap in [0u64, 3, u64::MAX] {
                let capped = index.search(
                    &req.clone()
                        .with_budget(ExecBudget::new().with_max_candidates(cap)),
                );
                assert!(
                    capped.stats.candidates <= cap,
                    "{label}: cap {cap} is a ceiling"
                );
                assert!(
                    capped.matches.iter().all(|m| expected.contains(m)),
                    "{label}: capped answers are sound"
                );
                if capped.completion.is_complete() {
                    assert_eq!(*capped.matches, expected, "{label}: cap {cap}");
                }
            }
        }
    }
}

#[test]
fn every_tau_equals_brute_force_at_tau_max_two() {
    for backend in [KeyBackend::Owned, KeyBackend::Interned, KeyBackend::Direct] {
        assert_every_shape_is_exact(2, 11, backend);
    }
}

#[test]
fn every_tau_equals_brute_force_at_tau_max_four_owned() {
    assert_every_shape_is_exact(4, 12, KeyBackend::Owned);
}

#[test]
fn every_tau_equals_brute_force_at_tau_max_four_interned() {
    assert_every_shape_is_exact(4, 12, KeyBackend::Interned);
}

#[test]
fn every_tau_equals_brute_force_at_tau_max_four_direct() {
    assert_every_shape_is_exact(4, 12, KeyBackend::Direct);
}

/// Screening every slot would scan the whole shared first-segment list
/// at `τ = 1`; the two cheapest slots are middle ones, a few postings
/// each.
#[test]
fn low_tau_screens_a_sliver_of_the_shared_lists() {
    let tau_max = 4;
    let strings = skewed_corpus(tau_max, 13);
    for backend in [KeyBackend::Owned, KeyBackend::Interned, KeyBackend::Direct] {
        let index = source(&strings, tau_max, backend);
        for (i, q) in strings[..SHARED].iter().step_by(97).enumerate() {
            let q = if i % 2 == 0 {
                q.clone()
            } else {
                plant(q, tau_max, &[(3, Edit::Substitute)])
            };
            let outcome = index.search(&SearchRequest::borrowed(&q, 1));
            assert_eq!(
                *outcome.matches,
                brute_force(&strings, &q, 1),
                "{backend:?}: answers"
            );
            assert!(
                outcome.stats.candidates * 20 < SHARED as u64,
                "{backend:?}: {} candidates against a {SHARED}-entry shared list",
                outcome.stats.candidates
            );
        }
    }
}
