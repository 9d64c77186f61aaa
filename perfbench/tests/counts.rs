//! Self-checks of the benchmark: exact counts repeat for one seed and
//! move under another, and every run prints exactly the metrics
//! `BENCHMARK.json` names. The workloads run small (`--scale`), so the
//! whole file takes well under a minute in release mode.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "serve-author",
    "join-authortitle",
    "churn-querylog",
    "dedup-authortitle",
];

/// Per workload, a count of its own layer that must differ between seeds.
const SEED_SENSITIVE: [(&str, &str); 4] = [
    ("serve-author", "online.candidates_per_query"),
    ("join-authortitle", "core.candidate_pairs"),
    ("churn-querylog", "online.candidates_per_query"),
    ("dedup-authortitle", "setsim.candidates_per_record"),
];

struct Run {
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Runs the benchmark binary and parses its last line.
fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "0.02"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last)
}

/// A minimal reader for the result line the benchmark prints.
fn parse(line: &str) -> Run {
    let correct = line.contains("\"correct\": true");
    let body = line
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1;
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")
            .expect("name and value");
        let (value, unit) = rest.split_once(", \"unit\": \"").expect("value and unit");
        let unit = unit.split('"').next().expect("a unit");
        metrics.insert(
            name.to_string(),
            (value.parse().expect("a number"), unit.to_string()),
        );
    }
    Run { correct, metrics }
}

fn counts(run: &Run) -> BTreeMap<&str, f64> {
    run.metrics
        .iter()
        .filter(|(_, (_, unit))| unit == "count")
        .map(|(name, (value, _))| (name.as_str(), *value))
        .collect()
}

#[test]
fn exact_counts_repeat_for_one_seed_and_move_under_another() {
    for (workload, sensitive) in SEED_SENSITIVE {
        let a = run(workload, 7, true);
        let b = run(workload, 7, true);
        let c = run(workload, 8, true);
        assert!(a.correct && b.correct && c.correct, "{workload}");
        assert_eq!(
            counts(&a),
            counts(&b),
            "{workload}: counts differ for one seed"
        );
        assert!(counts(&a)[sensitive] > 0.0, "{workload}: {sensitive} is 0");
        assert_ne!(
            counts(&a)[sensitive],
            counts(&c)[sensitive],
            "{workload}: {sensitive} did not move under another seed"
        );
    }
}

/// The names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let section = text
        .split_once(&format!("\"{key}\""))
        .expect("the section")
        .1;
    let section = &section[..section.find(']').expect("the section's end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("a name").to_string())
        .collect()
}

#[test]
fn every_run_prints_exactly_the_listed_metrics() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let run = run(workload, 3, trace);
            let mut printed: Vec<&String> = run.metrics.keys().collect();
            let mut wanted: Vec<&String> = expected.iter().collect();
            printed.sort();
            wanted.sort();
            assert_eq!(printed, wanted, "{workload} trace={trace}");
            if !trace {
                assert!(
                    run.metrics.values().all(|(v, _)| *v > 0.0),
                    "{workload}: an end-to-end metric is 0"
                );
            }
        }
    }
}
