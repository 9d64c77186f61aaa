//! The public edit-distance kernels, timed on a workload's own near-miss
//! pairs: pairs found within τ+2 of sample queries, timed at τ — the
//! mix of accepts and near rejects a verifier sees.

use std::hint::black_box;
use std::time::Instant;

use editdist::{banded_within, length_aware_within, myers_within, verify_extension, Occurrence};
use passjoin::partition::segment;

use crate::report::Report;

/// Pairs kept per sample query, and in total.
const PER_QUERY: usize = 32;
const TOTAL: usize = 2_000;
/// Minimum time spent timing each kernel.
const MIN_NS: u128 = 40_000_000;

pub struct NearMiss {
    r: Vec<u8>,
    s: Vec<u8>,
    tau: usize,
    /// A segment of `r` found in `s` (for the extension verifier).
    occ: Option<Occurrence>,
}

/// Scans `corpus` for strings within `tau + 2` of each `(query, tau)`,
/// skipping exact copies. Deterministic in its inputs.
pub fn near_miss_pairs(queries: &[(Vec<u8>, usize)], corpus: &[Vec<u8>]) -> Vec<NearMiss> {
    let mut out = Vec::new();
    for (q, tau) in queries {
        let wide = tau + 2;
        let mut kept = 0;
        for r in corpus {
            if r.len().abs_diff(q.len()) > wide || r == q {
                continue;
            }
            if myers_within(r, q, wide).is_some() {
                out.push(NearMiss {
                    occ: occurrence(r, q, *tau),
                    r: r.clone(),
                    s: q.clone(),
                    tau: *tau,
                });
                kept += 1;
                if kept == PER_QUERY || out.len() == TOTAL {
                    break;
                }
            }
        }
        if out.len() == TOTAL {
            break;
        }
    }
    out
}

/// The first even-partition segment of `r` (at `tau`) that occurs in `s`
/// within `tau` positions of where it sits in `r`.
fn occurrence(r: &[u8], s: &[u8], tau: usize) -> Option<Occurrence> {
    if r.len() <= tau {
        return None;
    }
    for slot in 1..=tau + 1 {
        let seg = segment(r.len(), tau, slot);
        let piece = &r[seg.start..seg.end()];
        let lo = seg.start.saturating_sub(tau);
        let hi = (seg.start + tau).min(s.len().saturating_sub(seg.len));
        if let Some(p) = (lo..=hi).find(|&p| p + seg.len <= s.len() && &s[p..p + seg.len] == piece)
        {
            return Some(Occurrence {
                slot,
                seg_start: seg.start,
                seg_len: seg.len,
                probe_start: p,
            });
        }
    }
    None
}

/// Mean ns per call of `f` over `pairs`, repeating passes for at least
/// [`MIN_NS`].
fn time_kernel(pairs: &[&NearMiss], f: impl Fn(&NearMiss) -> Option<usize>) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    let mut acc = 0usize;
    while passes < 2 || start.elapsed().as_nanos() < MIN_NS {
        for p in pairs {
            acc = acc.wrapping_add(black_box(f(black_box(p))).unwrap_or(usize::MAX));
        }
        passes += 1;
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / (passes as f64 * pairs.len() as f64)
}

/// Times the four kernels on `pairs` and sets their per-layer metrics.
pub fn report(pairs: &[NearMiss], report: &mut Report) {
    let all: Vec<&NearMiss> = pairs.iter().collect();
    let with_occ: Vec<&NearMiss> = pairs.iter().filter(|p| p.occ.is_some()).collect();
    report.set(
        "editdist.length_aware_within.ns_per_pair",
        time_kernel(&all, |p| length_aware_within(&p.r, &p.s, p.tau)),
    );
    report.set(
        "editdist.myers_within.ns_per_pair",
        time_kernel(&all, |p| myers_within(&p.r, &p.s, p.tau)),
    );
    report.set(
        "editdist.banded_within.ns_per_pair",
        time_kernel(&all, |p| banded_within(&p.r, &p.s, p.tau)),
    );
    report.set(
        "editdist.verify_extension.ns_per_pair",
        time_kernel(&with_occ, |p| {
            let occ = p
                .occ
                .as_ref()
                .expect("filtered to pairs with an occurrence");
            verify_extension(&p.r, &p.s, occ, p.tau)
        }),
    );
    report.note(format!(
        "kernels timed on {} near-miss pairs ({} with a shared segment)",
        all.len(),
        with_occ.len()
    ));
}
