//! Metric tables, the result line, and small statistics helpers.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Duration;

/// End-to-end metrics: what a caller of the workload sees. Every run
/// with `--trace 0` reports all of them, on every workload.
///
/// A "query" is one caller request of the workload's kind: a served
/// request line (serve-author), a store read (churn-querylog), a whole
/// self-join (join-authortitle), one query-before-insert push
/// (dedup-authortitle).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every run with `--trace 1`. A layer a
/// workload bypasses reports 0. Metrics with unit `count` are exact
/// counts: they repeat exactly for one seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.request_ns", "ns"),
    ("serve.engine_ns", "ns"),
    ("serve.self_ns", "ns"),
    ("serve.bytes_per_query", "B"),
    ("serve.request_errors", "count"),
    ("online.plan_ns", "ns"),
    ("online.probe_ns", "ns"),
    ("online.verify_ns", "ns"),
    ("online.cache_ns", "ns"),
    ("online.candidates_per_query", "count"),
    ("online.verifications_per_query", "count"),
    ("online.matches_per_query", "count"),
    ("online.short_checked_per_query", "count"),
    ("online.match_per_verification", "ratio"),
    ("online.cache_hit_rate", "ratio"),
    ("online.cache_invalidations", "count"),
    ("editdist.ns_per_verification", "ns"),
    ("editdist.length_aware_within.ns_per_pair", "ns"),
    ("editdist.myers_within.ns_per_pair", "ns"),
    ("editdist.banded_within.ns_per_pair", "ns"),
    ("editdist.verify_extension.ns_per_pair", "ns"),
    ("core.selected_substrings", "count"),
    ("core.probes", "count"),
    ("core.candidate_pairs", "count"),
    ("core.verifications", "count"),
    ("core.results", "count"),
    ("core.select_s", "s"),
    ("core.probe_verify_s", "s"),
    ("core.index_bytes", "count"),
    ("store.open_ns", "ns"),
    ("persist.load_read_ns", "ns"),
    ("persist.load_decode_ns", "ns"),
    ("persist.load_validate_ns", "ns"),
    ("store.replayed_ops", "count"),
    ("store.background_verify_s", "s"),
    ("store.write_ns", "ns"),
    ("store.write_p50_ms", "ms"),
    ("store.write_p99_ms", "ms"),
    ("store.checkpoint_write_ns", "ns"),
    ("store.checkpoint_p50_ms", "ms"),
    ("store.checkpoint_bytes_per_op", "B"),
    ("store.stored_bytes_per_user_byte", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("setsim.candidates_per_record", "count"),
    ("setsim.verifications_per_record", "count"),
    ("setsim.match_per_verification", "ratio"),
    ("setsim.push_ns", "ns"),
    ("setsim.request_ns", "ns"),
    ("setsim.index_postings", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// The engine's phase histograms (`EngineObs`) and the per-layer metric
/// each one's mean per request feeds.
pub const ONLINE_PHASES: [(&str, &str); 4] = [
    ("online.plan_ns", "passjoin_phase_plan_ns"),
    ("online.probe_ns", "passjoin_phase_probe_ns"),
    ("online.verify_ns", "passjoin_phase_verify_ns"),
    ("online.cache_ns", "passjoin_phase_cache_ns"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One run's outcome: operation counts, metric values, and notes for the
/// human-readable part of the output.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Sets a metric; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Counts `n` checked operations, `bad` of them wrong or failed.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// A line for the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints every metric of the run's table by name and unit, then the
    /// result object as the last line. Fails (after printing) on any
    /// wrong answer, and on an end-to-end metric that was not measured.
    pub fn finish(&self, workload: &str, trace: bool) -> Result<(), String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut problems = Vec::new();
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => {
                    problems.push(format!("end-to-end metric {name} was not measured"));
                    continue;
                }
            };
            if !trace && value <= 0.0 {
                problems.push(format!("end-to-end metric {name} is {value}"));
            }
            metrics.push((name, value, unit));
        }
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &metrics {
            println!("{workload:<18} {name:<42} {value:>16.6} {unit}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload:<18} {:<42} {failed_frac:>16.6} ratio ({} of {} operations)",
            "failed_frac", self.failed, self.attempted
        );
        if self.attempted == 0 {
            problems.push("no operation was checked".into());
        }
        let correct = self.failed == 0 && problems.is_empty();
        let body = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        );
        if self.failed > 0 {
            problems.push(format!(
                "{} of {} operations failed or answered wrongly",
                self.failed, self.attempted
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

static FIRST_UNIT_PEAK: OnceLock<Result<f64, String>> = OnceLock::new();

/// Records the peak RSS once, when the first unit of measured work ends
/// (later calls are no-ops): the figure then covers set-up and one unit,
/// not however many units the window held, nor the checks after it.
pub fn mark_first_unit() {
    FIRST_UNIT_PEAK.get_or_init(peak_rss_mb);
}

/// The peak RSS recorded by [`mark_first_unit`].
pub fn first_unit_peak_mb() -> Result<f64, String> {
    FIRST_UNIT_PEAK
        .get()
        .cloned()
        .unwrap_or_else(|| Err("no unit of work was measured".into()))
}

/// The process's peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Runs a set-up at least 5 times and until about a second has gone (at
/// most 30 times): returns each run's seconds (as `f` measures them)
/// and the last run's value.
pub fn repeat_setup<T>(
    mut f: impl FnMut() -> Result<(f64, T), String>,
) -> Result<(Vec<f64>, T), String> {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let (secs, value) = f()?;
        times.push(secs);
        if times.len() >= 30 || (times.len() >= 5 && start.elapsed().as_secs_f64() >= 1.0) {
            return Ok((times, value));
        }
    }
}
