//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick|--full] [--threads N] [--json FILE] [names...]
//! experiments --quick fig6 fig9      # selected experiments
//! experiments --full                 # everything, full scale
//! experiments --quick --threads 4 --json BENCH_timing.json
//! experiments serve --json BENCH_serving.json   # serving artifact
//! ```

use std::fmt::Write as _;

use ansmet_bench::{provenance_fields, run_experiment, Scale, EXPERIMENTS, SERVING_ARTIFACT};

fn usage() -> String {
    format!(
        "usage: experiments [--quick|--full] [--threads N] [--json FILE] [names...]\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    )
}

/// Per-experiment wall-clock record for the `--json` timing report.
struct TimingRecord {
    name: String,
    seconds: f64,
    queries: u64,
    /// DRAM cycles actually ticked by the cycle-accurate model.
    cycles_simulated: u64,
    /// DRAM cycles jumped over by the event-wheel / skip-ahead drivers.
    cycles_skipped: u64,
    /// Comparisons whose early-termination outcome the planner evaluated.
    comparisons_planned: u64,
    /// `Hnsw::build` calls.
    hnsw_builds: u64,
    /// Distances HNSW construction computed (builds, inserts, unlinks).
    construction_distances: u64,
    /// Comparisons the early-termination engine walked.
    et_evaluations: u64,
    /// Lower bounds those walks and prepared queries computed.
    et_bounds: u64,
}

/// Hand-rolled JSON (the repo deliberately carries no serde dependency).
fn timing_json(scale: Scale, threads: usize, records: &[TimingRecord]) -> String {
    let mut s = String::new();
    let total: f64 = records.iter().map(|r| r.seconds).sum();
    s.push_str("{\n");
    s.push_str(&provenance_fields());
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale.as_str());
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"total_seconds\": {total:.3},");
    s.push_str("  \"experiments\": [\n");
    for (i, r) in records.iter().enumerate() {
        // Experiments that replay no queries (table2, table4, ...) have no
        // meaningful rate: emit null rather than a misleading 0.0.
        let qps = if r.queries > 0 && r.seconds > 0.0 {
            format!("{:.1}", r.queries as f64 / r.seconds)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"seconds\": {:.3}, \"queries_simulated\": {}, \
             \"queries_per_sec\": {}, \"cycles_simulated\": {}, \"cycles_skipped\": {}, \
             \"comparisons_planned\": {}, \"hnsw_builds\": {}, \"construction_distances\": {}, \
             \"et_evaluations\": {}, \"et_bounds\": {}}}",
            r.name,
            r.seconds,
            r.queries,
            qps,
            r.cycles_simulated,
            r.cycles_skipped,
            r.comparisons_planned,
            r.hnsw_builds,
            r.construction_distances,
            r.et_evaluations,
            r.et_bounds
        );
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut names: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut threads: usize = 1;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--threads" => {
                let v = it.next().and_then(|v| v.parse::<usize>().ok());
                match v {
                    Some(n) if n >= 1 => threads = n,
                    _ => {
                        eprintln!("error: --threads needs a positive integer\n{}", usage());
                        std::process::exit(2);
                    }
                }
            }
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("error: --json needs a file path\n{}", usage());
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown option '{flag}'\n{}", usage());
                std::process::exit(2);
            }
            name => names.push(name.to_string()),
        }
    }
    ansmet_sim::set_default_threads(threads);
    // Validate every requested name up front so a typo fails fast instead
    // of surfacing after minutes of earlier experiments.
    let unknown: Vec<&String> = names
        .iter()
        .filter(|n| !EXPERIMENTS.contains(&n.as_str()))
        .collect();
    if !unknown.is_empty() {
        for n in &unknown {
            eprintln!("error: unknown experiment '{n}'");
        }
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    if names.is_empty() {
        names = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // When `serve` is the only requested experiment, `--json` names its
    // artifact directly (`experiments serve --json BENCH_serving.json`);
    // otherwise the artifact goes to its default path and `--json` keeps
    // meaning the timing report.
    let serve_only = names.len() == 1 && names[0] == "serve";
    let mut records: Vec<TimingRecord> = Vec::with_capacity(names.len());
    for name in &names {
        let t0 = std::time::Instant::now();
        let q0 = ansmet_sim::queries_simulated();
        let c0 = ansmet_sim::cycles_simulated();
        let k0 = ansmet_sim::cycles_skipped();
        let p0 = ansmet_sim::comparisons_planned();
        let b0 = ansmet_index::hnsw_builds();
        let d0 = ansmet_index::construction_distances();
        let (e0, f0) = (ansmet_core::et_evaluations(), ansmet_core::et_bounds());
        match run_experiment(name, scale) {
            Some((report, artifacts)) => {
                println!("{report}");
                let seconds = t0.elapsed().as_secs_f64();
                eprintln!("[{name} finished in {seconds:.1}s]");
                records.push(TimingRecord {
                    name: name.clone(),
                    seconds,
                    queries: ansmet_sim::queries_simulated() - q0,
                    cycles_simulated: ansmet_sim::cycles_simulated() - c0,
                    cycles_skipped: ansmet_sim::cycles_skipped() - k0,
                    comparisons_planned: ansmet_sim::comparisons_planned() - p0,
                    hnsw_builds: ansmet_index::hnsw_builds() - b0,
                    construction_distances: ansmet_index::construction_distances() - d0,
                    et_evaluations: ansmet_core::et_evaluations() - e0,
                    et_bounds: ansmet_core::et_bounds() - f0,
                });
                for a in artifacts {
                    // `experiments serve --json FILE` redirects the serving
                    // artifact; every other artifact goes to its default path.
                    let path = match (&json_path, serve_only, a.path) {
                        (Some(p), true, SERVING_ARTIFACT) => p.clone(),
                        _ => a.path.to_string(),
                    };
                    if let Err(e) = std::fs::write(&path, a.body) {
                        eprintln!("error: cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("[{name} artifact written to {path}]");
                }
            }
            None => {
                // Unreachable after validation, but keep the exit honest.
                eprintln!("error: unknown experiment '{name}'\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = json_path {
        if serve_only {
            return; // --json already consumed by the serve artifact
        }
        let body = timing_json(scale, threads, &records);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[timing report written to {path}]");
    }
}
