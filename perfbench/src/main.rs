//! Seeded benchmark of the PASS-JOIN workspace, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-author --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, sets the program up several
//! times (the median is `setup_s`), measures its workload for
//! `--seconds`, checks every answer outside the timed region, and prints
//! one JSON object as the last line of standard output. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` is a separate run that
//! records spans around the public calls into each layer, scrapes the
//! registries the program exports, and reports the per-layer metrics.
//! Span files land in `.perfbench-runs/` under the working directory.
//!
//! The workloads, metrics and their rationale are listed in
//! `perfbench/README.md`; `BENCHMARK.json` at the repository root names
//! them for the harness that compares commits.

mod churn;
mod corpus;
mod dedup;
mod join;
mod kernels;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::Tracer;

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Measurement window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input-size multiplier (1.0 = the documented sizes); the
    /// exact-count self-check runs the workloads small.
    pub scale: f64,
    /// Private scratch directory of this run (snapshots, corpora).
    pub run_dir: PathBuf,
    /// Where span files are written.
    pub out_dir: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Runs a workload's measured loop as `f(seconds, traced)`: untraced
    /// over the whole window, or, in a traced run, untraced over the first
    /// half and with spans on over the second (their difference is the
    /// tracing overhead).
    pub fn measure<T>(
        &self,
        mut f: impl FnMut(f64, bool) -> Result<T, String>,
    ) -> Result<(T, Option<T>), String> {
        if !self.trace {
            return Ok((f(self.seconds, false)?, None));
        }
        let untraced = f(self.seconds / 2.0, false)?;
        self.tracer.set_active(true);
        let traced = f(self.seconds / 2.0, true);
        self.tracer.set_active(false);
        Ok((untraced, Some(traced?)))
    }

    /// `n` scaled by `--scale`, at least `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(min)
    }
}

const WORKLOADS: [&str; 4] = [
    "serve-author",
    "join-authortitle",
    "churn-querylog",
    "dedup-authortitle",
];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// `--workload all`: each workload in a child process of its own (so each
/// reports its own peak RSS), one after another, with the other
/// arguments passed through. Fails if any workload fails.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut passed_args: Vec<String> = std::env::args().skip(1).collect();
    let at = passed_args
        .iter()
        .position(|a| a == "--workload")
        .expect("parse_args saw --workload");
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        passed_args[at + 1] = workload.to_string();
        let status = std::process::Command::new(&exe).args(&passed_args).status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let out_dir = PathBuf::from(".perfbench-runs");
    let run_dir = out_dir.join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        run_dir,
        out_dir,
        tracer: Tracer::new(args.trace),
    };
    let result = match args.workload.as_str() {
        "serve-author" => serve::run(&ctx),
        "join-authortitle" => join::run(&ctx),
        "churn-querylog" => churn::run(&ctx),
        "dedup-authortitle" => dedup::run(&ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    let mut report: Report = match result {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.trace {
        let path = ctx
            .out_dir
            .join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        report.note(format!(
            "{} spans written to {}",
            ctx.tracer.len(),
            path.display()
        ));
        for (name, s) in ctx.tracer.summary() {
            report.note(format!(
                "span {name}: {} calls, {:.0} ns mean, {:.0} ns mean self time",
                s.count,
                s.mean_ns(),
                s.mean_self_ns()
            ));
        }
    }
    match report.finish(&args.workload, ctx.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            ExitCode::FAILURE
        }
    }
}
