//! Seeded benchmark of the ANSMET simulator: four workloads, simulated
//! and host metrics, end to end (untraced) and per layer (traced).
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--threads N] [--span-file FILE]
//! benchmark --compare PARENT_DIR CHANGE_DIR [--workload NAME]...
//!           [--seed N] [--seconds S]
//! ```
//!
//! One workload runs per process, so caches and peak memory never carry
//! over between workloads. The last line of standard output is the JSON
//! result; a failed correctness check is named on standard error and
//! makes the exit code 1.

mod compare;
mod metrics;
mod runner;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::{Options, Outcome};
use workloads::{
    churn::ChurnMix, replay::PaperReplay, serve::OpenServe, shard::ShardScatter, NAMES,
};

/// The seed used when `--seed` is not given. The README records the
/// held-out seed kept out of tuning.
const DEFAULT_SEED: u64 = 1;
/// Host seconds of passes when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;
/// Worker threads of the replay pool.
const DEFAULT_THREADS: usize = 2;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--threads N] [--span-file FILE]
  benchmark --compare PARENT_DIR CHANGE_DIR [--workload NAME]... [--seed N] [--seconds S]
workloads: paper-replay, open-serve, churn-mix, shard-scatter";

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    span_file: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        threads: DEFAULT_THREADS,
        span_file: None,
        compare: None,
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let w: String = value(&flag, args.next())?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workloads.push(w);
            }
            "--seed" => a.seed = value(&flag, args.next())?,
            "--seconds" => {
                a.seconds = value(&flag, args.next())?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value::<u8>(&flag, args.next())? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--threads" => {
                a.threads = value(&flag, args.next())?;
                if a.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--span-file" => a.span_file = Some(value(&flag, args.next())?),
            "--compare" => {
                let parent = value(&flag, args.next())?;
                let change = value(&flag, args.next())?;
                a.compare = Some((parent, change));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn run(workload: &str, o: &Options, trace: bool) -> Outcome {
    fn go<W: workloads::Workload>(w: W, o: &Options, trace: bool) -> Outcome {
        if trace {
            let mut outcome = runner::traced(&w, o);
            outcome.report.values = runner::with_every_layer(outcome.report.values);
            outcome
        } else {
            runner::untraced(&w, o)
        }
    }
    match workload {
        "paper-replay" => go(PaperReplay::full(), o, trace),
        "open-serve" => go(OpenServe::full(), o, trace),
        "churn-mix" => go(ChurnMix::full(), o, trace),
        "shard-scatter" => go(ShardScatter::full(), o, trace),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        let names: Vec<&str> = if args.workloads.is_empty() {
            NAMES.to_vec()
        } else {
            args.workloads.iter().map(String::as_str).collect()
        };
        return match compare::compare(parent, change, &names, args.seed, args.seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let [workload] = args.workloads.as_slice() else {
        eprintln!("give exactly one --workload\n{USAGE}");
        return ExitCode::from(2);
    };

    ansmet_sim::set_default_threads(args.threads);
    let options = Options {
        seed: args.seed,
        seconds: args.seconds,
    };
    let outcome = run(workload, &options, args.trace);
    if let Some(path) = &args.span_file {
        if let Err(e) = std::fs::write(path, trace::spans_jsonl(&outcome.spans, workload)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{workload}: seed {} threads {} trace {} passes {} set-ups {}",
        args.seed,
        args.threads,
        u8::from(args.trace),
        outcome.passes,
        if args.trace { 2 } else { runner::SETUP_REPS },
    );
    print!("{}", outcome.report.table());
    println!("{}", outcome.report.json());
    for check in &outcome.failed_checks {
        eprintln!("check failed: {check}");
    }
    if outcome.failed_checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
