//! `join-authortitle`: the paper's own workload on long strings —
//! `PassJoin::new().self_join` (paper configuration, one thread) over
//! 2·10⁵ Author+Title strings at τ = 8, indexing included.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use datagen::io::{load_lines, save_lines};
use datagen::DatasetKind;
use editdist::{edit_distance, myers_within};
use passjoin::PassJoin;
use passjoin_bench::harness::selection_only;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sj_common::{JoinOutput, SimilarityJoin, StringCollection};

use crate::report::{
    first_unit_peak_mb, mark_first_unit, median, ms, quantile, ratio, repeat_setup, Report,
};
use crate::{corpus, kernels, Ctx};

const CORPUS: usize = 200_000;
const TAU: usize = 8;
/// Strings whose partners are found by a brute-force scan of the corpus.
const COMPLETENESS_SAMPLE: usize = 32;
/// Strings whose near misses time the kernels.
const KERNEL_SAMPLE: usize = 256;

/// Joins until `seconds` pass (at least one), timing each.
fn joins(ctx: &Ctx, coll: &StringCollection, seconds: f64) -> Vec<(Duration, JoinOutput)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let span = ctx.tracer.now();
        let result = PassJoin::new().self_join(coll, TAU);
        ctx.tracer.record("core.self_join", span);
        out.push((t0.elapsed(), result));
        mark_first_unit();
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let n = ctx.scaled(CORPUS, 500);
    let (strings, _) = corpus::draw(DatasetKind::AuthorTitle, n * 3 / 2, n, ctx.seed);
    let path = ctx.run_dir.join("corpus.txt");
    save_lines(&path, &strings).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // Set-up: the corpus file into the join's input collection, as
    // `simjoin <corpus> --tau 8` loads it.
    let (setups, coll) = repeat_setup(|| {
        let t0 = Instant::now();
        let loaded = load_lines(&path).map_err(|e| format!("cannot load corpus: {e}"))?;
        Ok((t0.elapsed().as_secs_f64(), loaded))
    })?;

    let (untraced, traced) = ctx.measure(|secs, _| Ok(joins(ctx, &coll, secs)))?;

    // Checks, outside the timed joins. Every join must return the first
    // join's pairs; the first join's pairs are re-verified one by one.
    let first = &untraced[0].1;
    let expected = first.normalized_pairs();
    let repeats: Vec<&JoinOutput> = untraced
        .iter()
        .chain(traced.iter().flatten())
        .skip(1)
        .map(|(_, out)| out)
        .collect();
    let differing = repeats
        .iter()
        .filter(|out| out.normalized_pairs() != expected)
        .count();
    report.check(repeats.len() as u64 + 1, differing as u64);
    let duplicates = first.pairs.len() - expected.len();
    let too_far = expected
        .iter()
        .filter(|&&(x, y)| edit_distance(&strings[x as usize], &strings[y as usize]) > TAU)
        .count();
    report.check(first.pairs.len() as u64, (duplicates + too_far) as u64);

    // Completeness: every partner of a sampled string, by brute force.
    let mut partners: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(x, y) in &expected {
        partners.entry(x).or_default().insert(y);
        partners.entry(y).or_default().insert(x);
    }
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xc0_4e7e);
    let sample: Vec<usize> = (0..COMPLETENESS_SAMPLE)
        .map(|_| rng.gen_range(0..strings.len()))
        .collect();
    let mut missed = 0;
    for &x in &sample {
        let s = &strings[x];
        let truth: BTreeSet<u32> = strings
            .iter()
            .enumerate()
            .filter(|&(y, t)| {
                y != x && t.len().abs_diff(s.len()) <= TAU && myers_within(s, t, TAU).is_some()
            })
            .map(|(y, _)| y as u32)
            .collect();
        if partners.get(&(x as u32)).cloned().unwrap_or_default() != truth {
            missed += 1;
        }
    }
    report.check(sample.len() as u64, missed);

    let latencies: Vec<f64> = untraced.iter().map(|(d, _)| ms(*d)).collect();
    let wall: f64 = untraced.iter().map(|(d, _)| d.as_secs_f64()).sum();
    report.set("setup_s", median(&setups));
    report.set("queries_per_s", ratio(untraced.len() as f64, wall));
    report.set("query_p50_ms", quantile(&latencies, 0.5));
    report.set("query_p99_ms", quantile(&latencies, 0.99));
    report.note(format!("join milliseconds: {latencies:?}"));
    report.note(format!(
        "{} joins of {} strings at tau={TAU}: {} verifications, {} pairs, {:.0} strings/s",
        untraced.len(),
        coll.len(),
        first.stats.verifications,
        expected.len(),
        ratio(coll.len() as f64 * untraced.len() as f64, wall)
    ));

    if let Some(traced) = &traced {
        let stats = &first.stats;
        report.set("core.selected_substrings", stats.selected_substrings as f64);
        report.set("core.probes", stats.probes as f64);
        report.set("core.candidate_pairs", stats.candidate_pairs as f64);
        report.set("core.verifications", stats.verifications as f64);
        report.set("core.results", stats.results as f64);
        report.set("core.index_bytes", stats.index_bytes as f64);
        let join_s = median(
            &traced
                .iter()
                .map(|(d, _)| d.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let select = selection_only(&coll, TAU, PassJoin::new().selection());
        report.set("core.select_s", select.1.as_secs_f64());
        report.set("core.probe_verify_s", join_s - select.1.as_secs_f64());

        let sample: Vec<(Vec<u8>, usize)> = (0..KERNEL_SAMPLE)
            .map(|_| (strings[rng.gen_range(0..strings.len())].clone(), TAU))
            .collect();
        kernels::report(&kernels::near_miss_pairs(&sample, &strings), &mut report);

        let traced_lat: Vec<f64> = traced.iter().map(|(d, _)| ms(*d)).collect();
        report.set(
            "trace.overhead_frac",
            quantile(&traced_lat, 0.5) / quantile(&latencies, 0.5) - 1.0,
        );
    }
    report.set("peak_rss_mb", first_unit_peak_mb()?);
    Ok(report)
}
