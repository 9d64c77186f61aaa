//! `serve-author`: 10⁵ Author strings served on loopback by
//! `passjoin_serve::Server`, configured as `simjoin serve` configures it
//! (one shared `Registry`, `EngineObs` attached), queried in a closed
//! loop by two connections of the shipped, untuned `Client`, one query
//! per request line with per-line τ ∈ {1, 2}.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use datagen::{mutate, DatasetKind, DatasetSpec};
use passjoin_online::{
    EngineObs, ExecSource, KeyBackend, Match, MatchSink, OnlineIndex, QueryOutcome, Queryable,
    Registry, SearchRequest, SearchResponse,
};
use passjoin_serve::{Client, Event, QueryOptions, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{
    first_unit_peak_mb, mark_first_unit, median, ms, quantile, ratio, Report, ONLINE_PHASES,
};
use crate::{kernels, Ctx};

const CORPUS: usize = 100_000;
const TAU_MAX: usize = 2;
const CONNECTIONS: usize = 2;
/// Distinct request lines per connection, cycled by the closed loop.
const LINES_PER_CONNECTION: usize = 400;
const SETUP_REPS: usize = 5;
/// `simjoin serve --cache` default.
const CACHE: usize = 1024;
/// In-process passes per side for the observability-overhead ratio.
const OBS_ROUNDS: usize = 5;

type Line = (Vec<u8>, usize);

/// One answered request line.
struct Sample {
    line: usize,
    latency: Duration,
    reply: Result<Vec<Event>, String>,
}

/// Half the lines are corpus strings mutated by 0..=τ edits, half fresh
/// strings from the Author generator under another seed.
fn request_lines(seed: u64, corpus: &[Vec<u8>], per_connection: usize) -> Vec<Vec<Line>> {
    let total = per_connection * CONNECTIONS;
    let fresh = DatasetSpec::new(DatasetKind::Author, total)
        .with_seed(seed ^ 0x0f0f_5eed_0f0f_5eed)
        .generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_a07e);
    let lines: Vec<Line> = (0..total)
        .map(|i| {
            let tau = rng.gen_range(1..=TAU_MAX);
            let query = if i % 2 == 0 {
                let base = &corpus[rng.gen_range(0..corpus.len())];
                let edits = rng.gen_range(0..=tau);
                mutate(base, edits, &mut rng)
            } else {
                fresh[i].clone()
            };
            (query, tau)
        })
        .collect();
    lines.chunks(per_connection).map(<[Line]>::to_vec).collect()
}

fn key_of(query: &[u8], tau: usize) -> u64 {
    let mut h = DefaultHasher::new();
    query.hash(&mut h);
    tau.hash(&mut h);
    h.finish()
}

/// The index handed to `Server::run` in traced runs: delegates every
/// call and records a `serve.engine` span around each request line.
struct TimedSource<'a> {
    index: &'a OnlineIndex,
    ctx: &'a Ctx,
}

impl Queryable for TimedSource<'_> {
    fn exec_source(&self) -> Option<ExecSource<'_>> {
        None
    }

    fn search(&self, req: &SearchRequest) -> QueryOutcome {
        self.search_batch(std::slice::from_ref(req))
            .outcomes
            .pop()
            .expect("one outcome per request")
    }

    fn search_batch(&self, reqs: &[SearchRequest]) -> SearchResponse {
        let start = self.ctx.tracer.now();
        let response = self.index.search_batch(reqs);
        let key = reqs.first().map_or(0, |r| key_of(r.query(), r.tau()));
        self.ctx.tracer.record_keyed("serve.engine", start, 0, key);
        response
    }

    fn search_streaming(&self, req: &SearchRequest, sink: &mut dyn MatchSink) -> QueryOutcome {
        self.index.search_streaming(req, sink)
    }

    fn search_batch_streaming(
        &self,
        reqs: &[SearchRequest],
        sinks: &mut [&mut (dyn MatchSink + Send)],
    ) -> SearchResponse {
        self.index.search_batch_streaming(reqs, sinks)
    }

    fn matches(&self, query: &[u8], tau: usize) -> Vec<Match> {
        self.index.matches(query, tau)
    }

    fn tau_max(&self) -> usize {
        Queryable::tau_max(self.index)
    }

    fn key_backend(&self) -> KeyBackend {
        Queryable::key_backend(self.index)
    }

    fn len(&self) -> usize {
        Queryable::len(self.index)
    }

    fn is_empty(&self) -> bool {
        Queryable::is_empty(self.index)
    }

    fn epoch(&self) -> u64 {
        Queryable::epoch(self.index)
    }
}

fn options(tau: usize) -> QueryOptions {
    QueryOptions {
        tau: Some(tau),
        ..QueryOptions::default()
    }
}

/// The closed loop: each connection sends its next line only after the
/// previous reply, cycling its lines until `seconds` pass.
fn closed_loop(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    lines: &[Vec<Line>],
    seconds: f64,
) -> Result<(Vec<Sample>, Duration), String> {
    let barrier = Barrier::new(lines.len() + 1);
    let budget = Duration::from_secs_f64(seconds);
    let (per_conn, wall) = std::thread::scope(|s| {
        let workers: Vec<_> = lines
            .iter()
            .enumerate()
            .map(|(conn, list)| {
                let barrier = &barrier;
                s.spawn(move || -> Result<Vec<Sample>, String> {
                    let client = Client::connect(addr);
                    barrier.wait();
                    let mut client = client.map_err(|e| format!("connect: {e}"))?;
                    barrier.wait();
                    let start = Instant::now();
                    let mut samples = Vec::new();
                    let mut i = 0;
                    while start.elapsed() < budget {
                        let (query, tau) = &list[i % list.len()];
                        let req = ctx.tracer.next_id();
                        let span = ctx.tracer.now();
                        let t0 = Instant::now();
                        let reply = client
                            .query(&[query], &options(*tau))
                            .map_err(|e| e.to_string());
                        let latency = t0.elapsed();
                        ctx.tracer
                            .record_keyed("serve.request", span, req, key_of(query, *tau));
                        if reply.is_err() {
                            // A broken connection is replaced; the failed
                            // line still counts against the run.
                            if let Ok(fresh) = Client::connect(addr) {
                                client = fresh;
                            }
                        }
                        samples.push(Sample {
                            line: conn * list.len() + i % list.len(),
                            latency,
                            reply,
                        });
                        i += 1;
                    }
                    Ok(samples)
                })
            })
            .collect();
        barrier.wait();
        barrier.wait();
        let start = Instant::now();
        let per_conn: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (per_conn, start.elapsed())
    });
    let mut samples = Vec::new();
    for conn in per_conn {
        samples.extend(conn?);
    }
    Ok((samples, wall))
}

struct Loops {
    setup: Duration,
    untraced: (Vec<Sample>, Duration),
    traced: Option<(Vec<Sample>, Duration)>,
    /// Registry deltas over the traced loop.
    scraped: Scrape,
}

#[derive(Default, Clone, Copy)]
struct Scrape {
    queries: u64,
    errors: u64,
    bytes: u64,
    phase_ns: [(u64, u64); 4],
}

fn scrape(registry: &Registry) -> Scrape {
    let c = |name: &str| registry.counter(name).get();
    let mut phase_ns = [(0, 0); 4];
    for (slot, (_, name)) in phase_ns.iter_mut().zip(ONLINE_PHASES) {
        let h = registry.histogram(name);
        *slot = (h.sum(), h.count());
    }
    Scrape {
        queries: c("passjoin_server_queries_total"),
        errors: c("passjoin_server_request_errors_total"),
        bytes: c("passjoin_server_bytes_read_total") + c("passjoin_server_bytes_written_total"),
        phase_ns,
    }
}

fn delta(after: Scrape, before: Scrape) -> Scrape {
    let mut phase_ns = [(0, 0); 4];
    for ((slot, a), b) in phase_ns.iter_mut().zip(after.phase_ns).zip(before.phase_ns) {
        *slot = (a.0 - b.0, a.1 - b.1);
    }
    Scrape {
        queries: after.queries - before.queries,
        errors: after.errors - before.errors,
        bytes: after.bytes - before.bytes,
        phase_ns,
    }
}

/// Binds a server over `index`, waits for the first reply (the end of
/// set-up, timed from `t0`), then runs the closed loops if `lines` is
/// given, and shuts the server down.
fn session(
    ctx: &Ctx,
    index: &OnlineIndex,
    registry: &Arc<Registry>,
    t0: Instant,
    lines: Option<&[Vec<Line>]>,
) -> Result<Loops, String> {
    // As `simjoin serve` builds it: defaults plus the serving τ.
    let config = ServerConfig {
        default_tau: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, Arc::clone(registry))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let stop = server.shutdown_handle();
    let timed = TimedSource { index, ctx };
    std::thread::scope(|s| {
        let runner = s.spawn(|| {
            if ctx.trace {
                server.run(&timed)
            } else {
                server.run(index)
            }
        });
        let result = (|| {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let first = client
                .query(&[b"jim gray".as_slice()], &options(1))
                .map_err(|e| format!("first query: {e}"))?;
            let setup = t0.elapsed();
            if !matches!(first.last(), Some(Event::Done { .. })) {
                return Err(format!("first reply did not complete: {first:?}"));
            }
            drop(client);
            let mut loops = Loops {
                setup,
                untraced: (Vec::new(), Duration::ZERO),
                traced: None,
                scraped: Scrape::default(),
            };
            if let Some(lines) = lines {
                let (untraced, traced) = ctx.measure(|secs, traced| {
                    let before = scrape(registry);
                    let samples = closed_loop(ctx, addr, lines, secs)?;
                    mark_first_unit();
                    Ok((samples, traced.then(|| delta(scrape(registry), before))))
                })?;
                loops.untraced = untraced.0;
                if let Some((samples, scraped)) = traced {
                    loops.traced = Some(samples);
                    loops.scraped = scraped.expect("the traced half scrapes");
                }
            }
            Ok(loops)
        })();
        stop.shutdown();
        let served = runner.join().expect("server thread panicked");
        let loops = result?;
        served.map_err(|e| format!("server: {e}"))?;
        Ok(loops)
    })
}

/// What the server must have sent for one line: the in-process
/// `search_batch` answer, event for event.
fn expected_reply(index: &OnlineIndex, (query, tau): &Line) -> (Vec<Event>, QueryOutcome) {
    let outcome = index
        .search_batch(&[SearchRequest::borrowed(query, *tau)])
        .outcomes
        .pop()
        .expect("one outcome per request");
    let mut events: Vec<Event> = outcome
        .matches
        .iter()
        .map(|&(id, d)| Event::Match {
            q: 0,
            id: u64::from(id),
            d: d as u64,
        })
        .collect();
    events.push(Event::Eoq {
        q: 0,
        n: outcome.count as u64,
        complete: outcome.completion.is_complete(),
        reason: None,
    });
    events.push(Event::Done {
        queries: 1,
        matches: outcome.count as u64,
        truncated: u64::from(!outcome.completion.is_complete()),
        candidates: outcome.stats.candidates,
        verifications: outcome.stats.verifications + outcome.stats.short_checked,
    });
    (events, outcome)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let corpus = DatasetSpec::new(DatasetKind::Author, ctx.scaled(CORPUS, 200))
        .with_seed(ctx.seed)
        .generate();
    let per_connection = ctx.scaled(LINES_PER_CONNECTION, 20);
    let lines = request_lines(ctx.seed, &corpus, per_connection);
    let flat: Vec<Line> = lines.concat();

    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let registry = Arc::new(Registry::new());
        let t0 = Instant::now();
        let mut index = OnlineIndex::builder(TAU_MAX)
            .cache_capacity(CACHE)
            .build_from(corpus.iter());
        let obs = Arc::new(EngineObs::with_registry(Arc::clone(&registry)));
        index.set_observability(Some(Arc::clone(&obs)));
        let last = rep + 1 == SETUP_REPS;
        let loops = session(ctx, &index, &registry, t0, last.then_some(&lines[..]))?;
        setups.push(loops.setup.as_secs_f64());
        if last {
            kept = Some((index, obs, loops));
        }
    }
    let (mut index, obs, loops) = kept.expect("at least one set-up repetition");

    // Checks, outside the timed loops.
    let expected: Vec<(Vec<Event>, QueryOutcome)> = flat
        .iter()
        .map(|line| expected_reply(&index, line))
        .collect();
    let mut all_samples: Vec<&Sample> = loops.untraced.0.iter().collect();
    if let Some((traced, _)) = &loops.traced {
        all_samples.extend(traced.iter());
    }
    let wrong = all_samples
        .iter()
        .filter(|s| s.reply.as_ref().map_or(true, |r| *r != expected[s.line].0))
        .count();
    report.check(all_samples.len() as u64, wrong as u64);

    let (samples, wall) = &loops.untraced;
    let latencies: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    report.set("setup_s", median(&setups));
    report.set(
        "queries_per_s",
        ratio(samples.len() as f64, wall.as_secs_f64()),
    );
    report.set("query_p50_ms", quantile(&latencies, 0.5));
    report.set("query_p99_ms", quantile(&latencies, 0.99));
    report.note(format!(
        "{} request lines over {} connections in {:.2} s; set-up runs {:?} s",
        samples.len(),
        CONNECTIONS,
        wall.as_secs_f64(),
        setups
    ));

    if let Some((traced, _)) = &loops.traced {
        ctx.tracer.link_by_key("serve.engine", "serve.request");
        let spans = ctx.tracer.summary();
        let request = spans.get("serve.request").copied().unwrap_or_default();
        let engine = spans.get("serve.engine").copied().unwrap_or_default();
        report.set("serve.request_ns", request.mean_ns());
        report.set("serve.engine_ns", engine.mean_ns());
        report.set("serve.self_ns", request.mean_self_ns());
        let sc = loops.scraped;
        report.set(
            "serve.bytes_per_query",
            ratio(sc.bytes as f64, sc.queries as f64),
        );
        report.set("serve.request_errors", sc.errors as f64);
        for ((metric, _), (sum, count)) in ONLINE_PHASES.into_iter().zip(sc.phase_ns) {
            report.set(metric, ratio(sum as f64, count as f64));
        }
        // The funnel of every distinct line, from the in-process answers
        // (exact: the same lines for one seed).
        let n = expected.len() as f64;
        let total = |f: fn(&QueryOutcome) -> u64| expected.iter().map(|(_, o)| f(o)).sum::<u64>();
        let candidates = total(|o| o.stats.candidates) as f64;
        let verifications = total(|o| o.stats.verifications) as f64;
        let short_checked = total(|o| o.stats.short_checked) as f64;
        let matches = total(|o| o.count as u64) as f64;
        report.set("online.candidates_per_query", candidates / n);
        report.set("online.verifications_per_query", verifications / n);
        report.set("online.short_checked_per_query", short_checked / n);
        report.set("online.matches_per_query", matches / n);
        report.set(
            "online.match_per_verification",
            ratio(matches, verifications + short_checked),
        );
        let verify_ns = ratio(sc.phase_ns[2].0 as f64, sc.phase_ns[2].1 as f64);
        report.set(
            "editdist.ns_per_verification",
            ratio(verify_ns, (verifications + short_checked) / n),
        );

        // Engine time per line with observability attached vs detached.
        let reqs: Vec<SearchRequest> = flat
            .iter()
            .map(|(q, tau)| SearchRequest::borrowed(q, *tau))
            .collect();
        let pass = |index: &OnlineIndex| {
            let t0 = Instant::now();
            for req in &reqs {
                std::hint::black_box(index.search_batch(std::slice::from_ref(req)));
            }
            t0.elapsed().as_secs_f64()
        };
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..OBS_ROUNDS {
            index.set_observability(None);
            off.push(pass(&index));
            index.set_observability(Some(Arc::clone(&obs)));
            on.push(pass(&index));
        }
        report.set("obs.overhead_frac", median(&on) / median(&off) - 1.0);
        report.note(format!(
            "in-process engine time per line: {:.1} us with observability, {:.1} us without",
            median(&on) / n * 1e6,
            median(&off) / n * 1e6
        ));

        let sample: Vec<Line> = flat.iter().take(64).cloned().collect();
        kernels::report(&kernels::near_miss_pairs(&sample, &corpus), &mut report);

        let traced_lat: Vec<f64> = traced.iter().map(|s| ms(s.latency)).collect();
        report.set(
            "trace.overhead_frac",
            quantile(&traced_lat, 0.5) / quantile(&latencies, 0.5) - 1.0,
        );
    }
    report.set("peak_rss_mb", first_unit_peak_mb()?);
    Ok(report)
}
