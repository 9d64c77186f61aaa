//! `dedup-authortitle`: the set-similarity lane — `DedupPipeline`
//! (3-grams, Jaccard ≥ 0.8) streaming 2·10⁴ Author+Title records with
//! 8 % planted one-edit duplicates, as `simjoin dedup` runs it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::io::save_lines;
use datagen::{DatasetKind, DatasetSpec};
use passjoin_online::Registry;
use passjoin_setsim::{DedupPipeline, SetMetric, SetSimObs, TokenMode, UnionFind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sj_common::StringId;

use crate::report::{
    first_unit_peak_mb, mark_first_unit, median, ms, quantile, ratio, repeat_setup, Report,
};
use crate::Ctx;

const RECORDS: usize = 20_000;
const Q: usize = 3;
/// Jaccard threshold 0.8 = 4/5, checked exactly as 9·o ≥ 4·(|x| + |y|).
const THRESHOLD: f64 = 0.8;
const DUPLICATE_RATE: f64 = 0.08;
/// Records whose partners are found by a brute-force scan.
const COMPLETENESS_SAMPLE: usize = 64;

fn pipeline() -> DedupPipeline {
    DedupPipeline::new(TokenMode::Grams { q: Q }, SetMetric::Jaccard, THRESHOLD)
}

/// One record per line, the final newline ending the last record.
fn split_records(bytes: &[u8]) -> Vec<&[u8]> {
    let mut records: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if bytes.ends_with(b"\n") {
        records.pop();
    }
    records
}

/// One full streaming pass.
struct Round {
    push_latencies: Vec<Duration>,
    wall: Duration,
    clusters: Vec<Vec<StringId>>,
    candidates: u64,
    verifications: u64,
    matches: u64,
    postings: u64,
}

fn round(ctx: &Ctx, records: &[&[u8]], registry: Option<&Arc<Registry>>) -> Round {
    let mut p = pipeline();
    if let Some(registry) = registry {
        p = p.with_observability(Arc::new(SetSimObs::with_registry(Arc::clone(registry))));
    }
    let mut push_latencies = Vec::with_capacity(records.len());
    let start = Instant::now();
    for rec in records {
        let t0 = Instant::now();
        let span = ctx.tracer.now();
        p.push(rec);
        push_latencies.push(t0.elapsed());
        ctx.tracer.record("setsim.push", span);
    }
    let wall = start.elapsed();
    let stats = *p.stats();
    Round {
        push_latencies,
        wall,
        candidates: stats.candidates,
        verifications: stats.verifications,
        matches: stats.segment_matches,
        postings: p.index().posting_entries(),
        clusters: p.clusters(),
    }
}

/// Full passes until `seconds` pass (at least one).
fn rounds(
    ctx: &Ctx,
    records: &[&[u8]],
    seconds: f64,
    registry: Option<&Arc<Registry>>,
) -> Vec<Round> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.push(round(ctx, records, registry));
        mark_first_unit();
    }
    out
}

/// Sorted distinct byte 3-grams, packed into integers.
fn gram_set(record: &[u8]) -> Vec<u32> {
    let mut grams: Vec<u32> = record
        .windows(Q)
        .map(|w| u32::from(w[0]) << 16 | u32::from(w[1]) << 8 | u32::from(w[2]))
        .collect();
    grams.sort_unstable();
    grams.dedup();
    grams
}

fn similar(x: &[u32], y: &[u32]) -> bool {
    let (mut i, mut j, mut o) = (0, 0, 0usize);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                o += 1;
                i += 1;
                j += 1;
            }
        }
    }
    o > 0 && 9 * o >= 4 * (x.len() + y.len())
}

/// Checks the clusters against the planted duplicates and brute force:
/// every planted pair that meets the threshold lies in one cluster, every
/// cluster is connected by pairs that meet it, and every partner of a
/// sampled record (found by scanning all records) shares its cluster.
fn check(
    ctx: &Ctx,
    records: &[&[u8]],
    truth: &[(u32, u32)],
    clusters: &[Vec<StringId>],
    report: &mut Report,
) {
    let sets: Vec<Vec<u32>> = records.iter().map(|r| gram_set(r)).collect();
    let mut cluster_of: BTreeMap<u32, usize> = BTreeMap::new();
    for (c, members) in clusters.iter().enumerate() {
        for &m in members {
            cluster_of.insert(m, c);
        }
    }
    let same = |a: u32, b: u32| {
        a == b || matches!((cluster_of.get(&a), cluster_of.get(&b)), (Some(x), Some(y)) if x == y)
    };

    let planted: Vec<(u32, u32)> = truth
        .iter()
        .copied()
        .filter(|&(d, b)| similar(&sets[d as usize], &sets[b as usize]))
        .collect();
    let split = planted.iter().filter(|&&(d, b)| !same(d, b)).count();
    report.check(planted.len() as u64, split as u64);

    let mut closure = UnionFind::new(records.len());
    for &(d, b) in &planted {
        closure.union(d, b);
    }
    let planted_clusters = closure.clusters();
    let mut disconnected = 0;
    for members in clusters {
        let mut uf = UnionFind::new(members.len());
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                if similar(&sets[members[i] as usize], &sets[members[j] as usize]) {
                    uf.union(i as u32, j as u32);
                }
            }
        }
        if uf.clusters().first().map_or(0, Vec::len) != members.len() {
            disconnected += 1;
        }
    }
    report.check(clusters.len() as u64, disconnected);

    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xded09);
    let mut missed = 0;
    for _ in 0..COMPLETENESS_SAMPLE {
        let x = rng.gen_range(0..records.len());
        missed += (0..records.len())
            .filter(|&y| y != x && similar(&sets[x], &sets[y]) && !same(x as u32, y as u32))
            .count() as u64;
    }
    report.check(COMPLETENESS_SAMPLE as u64, missed);
    report.note(format!(
        "{} clusters; {} planted pairs meet the threshold; planted closure has {} clusters",
        clusters.len(),
        planted.len(),
        planted_clusters.len()
    ));
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (generated, truth) = DatasetSpec::new(DatasetKind::AuthorTitle, ctx.scaled(RECORDS, 300))
        .with_seed(ctx.seed)
        .with_duplicate_rate(DUPLICATE_RATE)
        .with_max_planted_edits(1)
        .generate_with_truth();
    let path = ctx.run_dir.join("records.txt");
    save_lines(&path, &generated).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // Set-up: the records file read and split as `simjoin dedup` does,
    // and the pipeline constructed.
    let (setups, bytes) = repeat_setup(|| {
        let t0 = Instant::now();
        let bytes = std::fs::read(&path).map_err(|e| format!("cannot read records: {e}"))?;
        std::hint::black_box((split_records(&bytes).len(), pipeline()));
        Ok((t0.elapsed().as_secs_f64(), bytes))
    })?;
    let records = split_records(&bytes);

    // The traced half also attaches the lane's metrics, as `simjoin
    // dedup --metrics` does.
    let registry = Arc::new(Registry::new());
    let (untraced, traced) =
        ctx.measure(|secs, traced| Ok(rounds(ctx, &records, secs, traced.then_some(&registry))))?;

    let first = &untraced[0];
    let repeats: Vec<&Round> = untraced
        .iter()
        .chain(traced.iter().flatten())
        .skip(1)
        .collect();
    let differing = repeats
        .iter()
        .filter(|r| r.clusters != first.clusters)
        .count();
    report.check(repeats.len() as u64 + 1, differing as u64);
    check(ctx, &records, &truth, &first.clusters, &mut report);

    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.push_latencies.iter().map(|d| ms(*d)))
        .collect();
    let wall: f64 = untraced.iter().map(|r| r.wall.as_secs_f64()).sum();
    report.set("setup_s", median(&setups));
    report.set("queries_per_s", ratio(latencies.len() as f64, wall));
    report.set("query_p50_ms", quantile(&latencies, 0.5));
    report.set("query_p99_ms", quantile(&latencies, 0.99));
    report.note(format!(
        "{} passes over {} records: {} candidates -> {} verifications -> {} matches",
        untraced.len(),
        records.len(),
        first.candidates,
        first.verifications,
        first.matches
    ));

    if let Some(traced) = &traced {
        let n = records.len() as f64;
        report.set("setsim.candidates_per_record", first.candidates as f64 / n);
        report.set(
            "setsim.verifications_per_record",
            first.verifications as f64 / n,
        );
        report.set(
            "setsim.match_per_verification",
            ratio(first.matches as f64, first.verifications as f64),
        );
        report.set("setsim.index_postings", first.postings as f64);
        let spans = ctx.tracer.summary();
        report.set(
            "setsim.push_ns",
            spans
                .get("setsim.push")
                .copied()
                .unwrap_or_default()
                .mean_ns(),
        );
        let h = registry.histogram("passjoin_setsim_request_ns");
        report.set("setsim.request_ns", ratio(h.sum() as f64, h.count() as f64));
        let traced_lat: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.push_latencies.iter().map(|d| ms(*d)))
            .collect();
        let traced_wall: f64 = traced.iter().map(|r| r.wall.as_secs_f64()).sum();
        report.set(
            "trace.overhead_frac",
            ratio(traced_wall, traced_lat.len() as f64) / ratio(wall, latencies.len() as f64) - 1.0,
        );
    }
    report.set("peak_rss_mb", first_unit_peak_mb()?);
    Ok(report)
}
