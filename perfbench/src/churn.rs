//! `churn-querylog`: writes beside reads in the repl/serving shape. A
//! 10⁵-string Query Log base (τ_max = 4) saved as a snapshot with a
//! 20-link delta chain is opened on the instant mmap path (as
//! `simjoin repl --load --mmap` opens it, observability attached); then
//! 2·10⁴ `datagen::churn_ops` writes run in bursts, four cached reads
//! per write Zipf-drawn from a pool ten times the cache, with a
//! synchronous `checkpoint()` after each burst. That script is one
//! round; rounds repeat from the prepared snapshot and chain until the
//! measurement window closes.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::zipf::Zipf;
use datagen::{churn_ops, mutate, ChurnOp, DatasetKind};
use editdist::myers_within;
use passjoin_online::{
    CachePolicy, ExecStats, Match, OnlineIndex, Queryable, Registry, SearchRequest,
};
use passjoin_store::{find_chain, CheckpointedIndex, OpenOptions, VerifyState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{
    first_unit_peak_mb, mark_first_unit, median, ms, quantile, ratio, repeat_setup, Report,
    ONLINE_PHASES,
};
use crate::{corpus, kernels, Ctx};

const BASE: usize = 100_000;
const TAU_MAX: usize = 4;
const CHAIN_LINKS: usize = 20;
const OPS_PER_LINK: usize = 50;
const WRITES: usize = 20_000;
const READS_PER_WRITE: usize = 4;
/// Writes per burst; a checkpoint follows each burst.
const BURST: usize = 50;
/// `simjoin repl --cache` default; the read pool is ten times larger.
const CACHE: usize = 1024;
const POOL: usize = 10 * CACHE;
/// In the first round, every this many reads one is checked against a
/// brute-force scan of the live set; later rounds must repeat the first
/// round's answers exactly.
const CHECK_EVERY: usize = 401;
/// Pool entries compared between the reopened and the rebuilt index.
const REOPEN_SAMPLE: usize = 400;

type Read = (Vec<u8>, usize);

/// The benchmark's own model of the live set, by id.
#[derive(Clone, Default)]
struct Model {
    strings: Vec<Vec<u8>>,
    live: Vec<bool>,
}

impl Model {
    fn apply(&mut self, op: &ChurnOp) {
        match op {
            ChurnOp::Insert(s) => {
                self.strings.push(s.clone());
                self.live.push(true);
            }
            ChurnOp::Remove(id) => self.live[*id as usize] = false,
        }
    }

    /// Every live `(id, distance)` within `tau` of `q`, by id.
    fn brute_force(&self, q: &[u8], tau: usize) -> Vec<Match> {
        self.strings
            .iter()
            .enumerate()
            .filter(|&(id, s)| self.live[id] && s.len().abs_diff(q.len()) <= tau)
            .filter_map(|(id, s)| myers_within(q, s, tau).map(|d| (id as u32, d)))
            .collect()
    }

    fn live_bytes(&self) -> u64 {
        self.strings
            .iter()
            .zip(&self.live)
            .filter(|(_, &live)| live)
            .map(|(s, _)| s.len() as u64)
            .sum()
    }
}

fn apply(store: &CheckpointedIndex, op: &ChurnOp) -> bool {
    match op {
        ChurnOp::Insert(s) => {
            store.insert(s);
            true
        }
        ChurnOp::Remove(id) => store.remove(*id),
    }
}

fn request(read: &Read) -> SearchRequest<'_> {
    SearchRequest::borrowed(&read.0, read.1).with_cache(CachePolicy::Use)
}

/// Opens as `simjoin repl --load <snap> --mmap` does.
fn open(path: &Path, registry: Option<&Arc<Registry>>) -> Result<CheckpointedIndex, String> {
    let mut options = OpenOptions::new().mmap(true).instant(true);
    if let Some(registry) = registry {
        options = options.registry(Arc::clone(registry));
    }
    let store =
        CheckpointedIndex::open(path, options).map_err(|e| format!("cannot open snapshot: {e}"))?;
    store.set_cache_capacity(CACHE);
    Ok(store)
}

fn mean_of(registry: &Registry, histogram: &str) -> f64 {
    let h = registry.histogram(histogram);
    ratio(h.sum() as f64, h.count() as f64)
}

/// The base snapshot plus every delta file of its chain, on disk.
fn disk_bytes(base: &Path) -> u64 {
    std::iter::once(base.to_path_buf())
        .chain(find_chain(base))
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// One run of the whole write/read/checkpoint script.
struct Round {
    reads: Vec<Duration>,
    writes: Vec<Duration>,
    checkpoints: Vec<Duration>,
    /// Time measured (checks excluded).
    measured: Duration,
    stats: ExecStats,
    /// Hash of every read's answer, in order.
    digest: u64,
    registry: Arc<Registry>,
    stored_ratio: f64,
    model: Model,
    checked: u64,
    wrong: u64,
}

/// Everything one round needs, fixed for the run.
struct Script<'a> {
    ctx: &'a Ctx,
    snap: &'a Path,
    ops: &'a [ChurnOp],
    pool: &'a [Read],
    start_model: &'a Model,
}

impl Script<'_> {
    /// Drops the delta files earlier rounds appended to the prepared
    /// chain, so every round starts from the same state.
    fn reset(&self) -> Result<(), String> {
        for path in find_chain(self.snap).into_iter().skip(CHAIN_LINKS) {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
        }
        Ok(())
    }

    fn round(&self, check: bool) -> Result<Round, String> {
        let ctx = self.ctx;
        self.reset()?;
        let registry = Arc::new(Registry::new());
        let store = open(self.snap, Some(&registry))?;
        let zipf = Zipf::new(self.pool.len(), 1.0);
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x2ead);
        let mut model = self.start_model.clone();
        let mut hasher = DefaultHasher::new();
        let mut round = Round {
            reads: Vec::new(),
            writes: Vec::new(),
            checkpoints: Vec::new(),
            measured: Duration::ZERO,
            stats: ExecStats::default(),
            digest: 0,
            registry: Arc::clone(&registry),
            stored_ratio: 0.0,
            model: Model::default(),
            checked: 0,
            wrong: 0,
        };
        let mut reads_done = 0;
        for burst in self.ops.chunks(BURST) {
            let start = Instant::now();
            let mut paused = Duration::ZERO;
            for op in burst {
                let span = ctx.tracer.now();
                let t0 = Instant::now();
                let applied = apply(&store, op);
                round.writes.push(t0.elapsed());
                ctx.tracer.record("store.write", span);
                round.checked += 1;
                round.wrong += u64::from(!applied);
                model.apply(op);
            }
            for _ in 0..burst.len() * READS_PER_WRITE {
                let read = &self.pool[zipf.sample(&mut rng)];
                let span = ctx.tracer.now();
                let t0 = Instant::now();
                let outcome = store.search(&request(read));
                round.reads.push(t0.elapsed());
                ctx.tracer.record("store.read", span);
                let c0 = Instant::now();
                round.stats.merge(&outcome.stats);
                outcome.matches.hash(&mut hasher);
                reads_done += 1;
                if check && reads_done % CHECK_EVERY == 0 {
                    round.checked += 1;
                    round.wrong +=
                        u64::from(*outcome.matches != model.brute_force(&read.0, read.1));
                }
                paused += c0.elapsed();
            }
            let span = ctx.tracer.now();
            let t0 = Instant::now();
            let written = store.checkpoint();
            round.checkpoints.push(t0.elapsed());
            ctx.tracer.record("store.checkpoint", span);
            round.checked += 1;
            round.wrong += u64::from(!matches!(written, Ok(Some(_))));
            round.measured += start.elapsed() - paused;
        }
        round.digest = hasher.finish();
        round.stored_ratio = ratio(disk_bytes(self.snap) as f64, model.live_bytes() as f64);
        round.model = model;
        let verified = store.wait_for_verification();
        round.checked += 1;
        round.wrong += u64::from(verified != VerifyState::Ok);
        Ok(round)
    }

    /// Rounds until `seconds` of measured time pass (at least one).
    fn rounds(&self, seconds: f64, check_first: bool) -> Result<Vec<Round>, String> {
        let mut out: Vec<Round> = Vec::new();
        while out.is_empty() || out.iter().map(|r| r.measured.as_secs_f64()).sum::<f64>() < seconds
        {
            out.push(self.round(check_first && out.is_empty())?);
            mark_first_unit();
        }
        Ok(out)
    }
}

/// The read pool: three quarters base strings mutated by 0..=2 edits,
/// one quarter Query Log strings not in the base; τ uniform in 1..=τ_max.
fn read_pool(seed: u64, base: &[Vec<u8>], fresh: &[Vec<u8>], n: usize) -> Vec<Read> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
    (0..n)
        .map(|i| {
            let tau = rng.gen_range(1..=TAU_MAX);
            let query = if i % 4 == 3 {
                fresh[i / 4 % fresh.len()].clone()
            } else {
                let edits = rng.gen_range(0..=2);
                mutate(&base[rng.gen_range(0..base.len())], edits, &mut rng)
            };
            (query, tau)
        })
        .collect()
}

fn durations_ms(rounds: &[Round], pick: fn(&Round) -> &Vec<Duration>) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| pick(r).iter().map(|d| ms(*d)))
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let n = ctx.scaled(BASE, 500);
    let (base, fresh) = corpus::draw(DatasetKind::QueryLog, n * 3 / 2, n, ctx.seed);
    let snap = ctx.run_dir.join("base.snap");
    OnlineIndex::builder(TAU_MAX)
        .cache_capacity(CACHE)
        .build_from(base.iter())
        .save(&snap)
        .map_err(|e| format!("cannot save snapshot: {e}"))?;
    let chain_ops = CHAIN_LINKS * OPS_PER_LINK;
    let writes = ctx.scaled(WRITES, 10 * BURST);
    let ops = churn_ops(&base, chain_ops + writes, ctx.seed ^ 0xc4a12);
    let mut model = Model {
        strings: base.clone(),
        live: vec![true; base.len()],
    };
    {
        let store = CheckpointedIndex::open(&snap, OpenOptions::new())
            .map_err(|e| format!("cannot open snapshot: {e}"))?;
        for link in ops[..chain_ops].chunks(OPS_PER_LINK) {
            for op in link {
                apply(&store, op);
                model.apply(op);
            }
            store
                .checkpoint()
                .map_err(|e| format!("cannot write delta checkpoint: {e}"))?;
        }
    }
    let pool = read_pool(ctx.seed, &base, &fresh, ctx.scaled(POOL, 200));

    // Set-up: open base + chain, up to the first answer. Each first
    // answer is checked, and each background integrity check must pass.
    let mut opens = Vec::new();
    let (setups, ()) = repeat_setup(|| {
        let registry = Arc::new(Registry::new());
        let t0 = Instant::now();
        let store = open(&snap, Some(&registry))?;
        let first = store.search(&request(&pool[0]));
        let setup = t0.elapsed().as_secs_f64();
        let v0 = Instant::now();
        let verified = store.wait_for_verification();
        let verify_s = v0.elapsed().as_secs_f64();
        let good = verified == VerifyState::Ok
            && *first.matches == model.brute_force(&pool[0].0, pool[0].1);
        opens.push((good, verify_s, registry));
        Ok((setup, ()))
    })?;
    let bad_opens = opens.iter().filter(|(good, ..)| !good).count();
    report.check(opens.len() as u64, bad_opens as u64);

    let script = Script {
        ctx,
        snap: &snap,
        ops: &ops[chain_ops..],
        pool: &pool,
        start_model: &model,
    };
    let (untraced, traced) = ctx.measure(|secs, traced| script.rounds(secs, !traced))?;
    let all: Vec<&Round> = untraced.iter().chain(traced.iter().flatten()).collect();
    let first = all[0];
    for round in &all {
        report.check(round.checked, round.wrong);
    }
    let differing = all[1..].iter().filter(|r| r.digest != first.digest).count();
    report.check(all.len() as u64 - 1, differing as u64);

    // After the last round: a reopen (base + the whole chain) must answer
    // as an index rebuilt from the final live set does.
    let final_model = &all[all.len() - 1].model;
    let reopened = open(&snap, None)?;
    let mut rebuilt = OnlineIndex::builder(TAU_MAX).build_from(final_model.strings.iter());
    for (id, live) in final_model.live.iter().enumerate() {
        if !live {
            rebuilt.remove(id as u32);
        }
    }
    let sample = &pool[..REOPEN_SAMPLE.min(pool.len())];
    let differ = sample
        .iter()
        .filter(|read| {
            let req = SearchRequest::borrowed(&read.0, read.1);
            reopened.search(&req).matches != rebuilt.search(&req).matches
        })
        .count();
    let reopen_ok = reopened.wait_for_verification() == VerifyState::Ok
        && Queryable::len(&reopened) == rebuilt.len();
    report.check(
        sample.len() as u64 + 1,
        differ as u64 + u64::from(!reopen_ok),
    );

    let reads = durations_ms(&untraced, |r| &r.reads);
    let measured: f64 = untraced.iter().map(|r| r.measured.as_secs_f64()).sum();
    report.set("setup_s", median(&setups));
    report.set("queries_per_s", ratio(reads.len() as f64, measured));
    report.set("query_p50_ms", quantile(&reads, 0.5));
    report.set("query_p99_ms", quantile(&reads, 0.99));
    report.note(format!(
        "{} rounds of {} writes, {} reads and {} checkpoints in {:.2} s measured",
        untraced.len(),
        first.writes.len(),
        first.reads.len(),
        first.checkpoints.len(),
        measured
    ));

    if let Some(traced) = &traced {
        // Exact counts: the whole first round.
        let n = first.reads.len() as f64;
        let s = &first.stats;
        report.set("online.candidates_per_query", s.candidates as f64 / n);
        report.set("online.verifications_per_query", s.verifications as f64 / n);
        report.set("online.short_checked_per_query", s.short_checked as f64 / n);
        let matches = (s.segment_matches + s.short_matches) as f64;
        report.set("online.matches_per_query", matches / n);
        report.set(
            "online.match_per_verification",
            ratio(matches, (s.verifications + s.short_checked) as f64),
        );
        let c = |name: &str| first.registry.counter(name).get() as f64;
        let hits = c("passjoin_cache_hits_total") + c("passjoin_cache_derived_hits_total");
        report.set(
            "online.cache_hit_rate",
            ratio(hits, hits + c("passjoin_cache_misses_total")),
        );
        report.set(
            "online.cache_invalidations",
            c("passjoin_cache_invalidations_total"),
        );
        report.set(
            "store.checkpoint_bytes_per_op",
            ratio(
                c("passjoin_store_checkpoint_bytes_total"),
                c("passjoin_store_checkpoint_ops_total"),
            ),
        );
        report.set("store.stored_bytes_per_user_byte", first.stored_ratio);
        report.set("store.replayed_ops", c("passjoin_store_replayed_ops_total"));

        // Timings: the traced rounds' registries and spans.
        let sum_of = |h: &str| {
            traced.iter().fold((0u64, 0u64), |(s, n), r| {
                let h = r.registry.histogram(h);
                (s + h.sum(), n + h.count())
            })
        };
        for (metric, h) in ONLINE_PHASES {
            let (sum, count) = sum_of(h);
            report.set(metric, ratio(sum as f64, count as f64));
        }
        let verifications: u64 = traced
            .iter()
            .map(|r| r.stats.verifications + r.stats.short_checked)
            .sum();
        report.set(
            "editdist.ns_per_verification",
            ratio(
                sum_of("passjoin_phase_verify_ns").0 as f64,
                verifications as f64,
            ),
        );
        let (ck_sum, ck_count) = sum_of("passjoin_store_checkpoint_write_ns");
        report.set(
            "store.checkpoint_write_ns",
            ratio(ck_sum as f64, ck_count as f64),
        );
        let spans = ctx.tracer.summary();
        report.set(
            "store.write_ns",
            spans
                .get("store.write")
                .copied()
                .unwrap_or_default()
                .mean_ns(),
        );
        let opened: Vec<f64> = opens
            .iter()
            .map(|(_, _, r)| mean_of(r, "passjoin_store_open_ns"))
            .collect();
        report.set("store.open_ns", median(&opened));
        for (metric, h) in [
            ("persist.load_read_ns", "passjoin_snapshot_load_read_ns"),
            ("persist.load_decode_ns", "passjoin_snapshot_load_decode_ns"),
            (
                "persist.load_validate_ns",
                "passjoin_snapshot_load_validate_ns",
            ),
        ] {
            let per_open: Vec<f64> = opens.iter().map(|(_, _, r)| mean_of(r, h)).collect();
            report.set(metric, median(&per_open));
        }
        report.set(
            "store.background_verify_s",
            median(&opens.iter().map(|(_, v, _)| *v).collect::<Vec<_>>()),
        );
        let writes = durations_ms(&untraced, |r| &r.writes);
        report.set("store.write_p50_ms", quantile(&writes, 0.5));
        report.set("store.write_p99_ms", quantile(&writes, 0.99));
        let checkpoints = durations_ms(&untraced, |r| &r.checkpoints);
        report.set("store.checkpoint_p50_ms", quantile(&checkpoints, 0.5));

        let kernel_sample: Vec<Read> = pool.iter().take(64).cloned().collect();
        kernels::report(
            &kernels::near_miss_pairs(&kernel_sample, &base),
            &mut report,
        );

        let traced_reads = durations_ms(traced, |r| &r.reads);
        report.set(
            "trace.overhead_frac",
            quantile(&traced_reads, 0.5) / quantile(&reads, 0.5) - 1.0,
        );
    }
    report.set("peak_rss_mb", first_unit_peak_mb()?);
    Ok(report)
}
