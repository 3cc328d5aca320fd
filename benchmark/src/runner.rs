//! Runs one workload: repeated set-ups, then whole passes until the
//! measuring time is spent, then the correctness gate and the report.
//!
//! The untraced run gives the end-to-end metrics. The traced run sets up
//! once untraced and once traced (its layer calls made one by one),
//! then alternates untraced and traced passes; it gives the per-layer
//! metrics and the tracing overhead.

use std::time::Instant;

use crate::metrics::{declared, median, Kind, Report, Values, METRICS};
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{Pass, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Host seconds to spend on passes; at least one pass always runs.
    pub seconds: f64,
}

/// A finished run: the report plus the spans of a traced run.
pub struct Outcome {
    pub report: Report,
    pub passes: usize,
    pub failed_checks: Vec<&'static str>,
    pub spans: Vec<Span>,
}

/// One pass with its host time and the DRAM cycles it stepped.
struct Timed {
    pass: Pass,
    secs: f64,
    dram: (u64, u64),
}

fn timed_pass<W: Workload>(w: &W, inputs: &W::Inputs, tracer: &mut Tracer) -> Timed {
    let ticked = ansmet_sim::cycles_simulated();
    let skipped = ansmet_sim::cycles_skipped();
    let start = Instant::now();
    let pass = tracer.span("bench.self_s", |t| w.pass(inputs, t));
    Timed {
        pass,
        secs: start.elapsed().as_secs_f64(),
        dram: (
            ansmet_sim::cycles_simulated() - ticked,
            ansmet_sim::cycles_skipped() - skipped,
        ),
    }
}

/// Run passes (one, or a traced/untraced pair) until `seconds` would be
/// exceeded by another round of the same length.
fn measure(seconds: f64, mut round: impl FnMut() -> f64) -> usize {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(round());
        let next = median(&rounds);
        if start.elapsed().as_secs_f64() + next > seconds {
            return rounds.len();
        }
    }
}

/// Checks every run makes on its passes.
fn gate(first: &Timed, all: &[&Timed], extra: &[(&'static str, bool)]) -> Vec<&'static str> {
    let repeat = all
        .iter()
        .all(|t| t.pass == first.pass && t.dram == first.dram);
    first
        .pass
        .checks
        .iter()
        .chain(extra)
        .chain(&[("passes repeat bit for bit", repeat)])
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect()
}

fn totals(passes: &[&Timed]) -> (u64, u64) {
    passes.iter().fold((0, 0), |(a, f), t| {
        (a + t.pass.attempted, f + t.pass.failed)
    })
}

/// The end-to-end metrics in `sim`, or with `end_to_end` false the
/// per-layer ones.
fn select(sim: &Values, end_to_end: bool) -> Values {
    sim.iter()
        .filter(|(name, _)| {
            let m = declared(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
            matches!(m.kind, Kind::EndToEnd { .. }) == end_to_end
        })
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn untraced<W: Workload>(w: &W, o: &Options) -> Outcome {
    let mut off = Tracer::off();
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous inputs first so they do not count toward
        // peak memory twice.
        drop(inputs.take());
        let start = Instant::now();
        let built = w.setup(o.seed, &mut off);
        setup_secs.push(start.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    let mut passes = Vec::new();
    measure(o.seconds, || {
        let t = timed_pass(w, &inputs, &mut off);
        let secs = t.secs;
        passes.push(t);
        secs
    });
    let all: Vec<&Timed> = passes.iter().collect();
    let first = all[0];
    let failed_checks = gate(first, &all, &w.check_inputs(&inputs));
    let (attempted, failed) = totals(&all);

    let mut values = select(&first.pass.sim, true);
    values.insert("setup_s", median(&setup_secs));
    values.insert(
        "host_qps",
        median(
            &all.iter()
                .map(|t| t.pass.simulated_ops as f64 / t.secs)
                .collect::<Vec<_>>(),
        ),
    );
    values.insert("peak_rss_mb", peak_rss_mb());
    values.insert("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    for m in METRICS {
        if matches!(m.kind, Kind::EndToEnd { .. }) {
            assert!(
                values.contains_key(m.name),
                "workload did not report {}",
                m.name
            );
        }
    }
    Outcome {
        report: Report {
            correct: failed_checks.is_empty(),
            attempted,
            failed,
            values,
        },
        passes: passes.len(),
        failed_checks,
        spans: Vec::new(),
    }
}

/// The traced run: per-layer metrics.
pub fn traced<W: Workload>(w: &W, o: &Options) -> Outcome {
    let mut off = Tracer::off();
    let reference = w.setup(o.seed, &mut off);
    let mut tracer = Tracer::on();
    let inputs = w.setup(o.seed, &mut tracer);
    let same_inputs = W::same_inputs(&reference, &inputs);
    drop(reference);
    let setup_spans = tracer.spans().len();

    let mut plain = Vec::new();
    let mut recorded = Vec::new();
    measure(o.seconds, || {
        let a = timed_pass(w, &inputs, &mut off);
        let b = timed_pass(w, &inputs, &mut tracer);
        let secs = a.secs + b.secs;
        plain.push(a);
        recorded.push(b);
        secs
    });
    let all: Vec<&Timed> = plain.iter().chain(&recorded).collect();
    let first = all[0];
    let mut input_checks = w.check_inputs(&inputs);
    input_checks.push(("traced set-up equals untraced set-up", same_inputs));
    let failed_checks = gate(first, &all, &input_checks);
    let (attempted, failed) = totals(&all);

    let mut values = select(&first.pass.sim, false);
    // Set-up spans count once; pass spans are averaged over the traced
    // passes.
    let spans = tracer.spans();
    let rounds = recorded.len() as f64;
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let per = if s.id < setup_spans { 1.0 } else { rounds };
        *values.entry(s.name).or_default() += ns as f64 * 1e-9 / per;
    }
    let (ticked, skipped) = first.dram;
    let plain_secs = median(&plain.iter().map(|t| t.secs).collect::<Vec<_>>());
    let traced_secs = median(&recorded.iter().map(|t| t.secs).collect::<Vec<_>>());
    values.insert("dram.cycles_ticked", ticked as f64);
    values.insert("dram.cycles_skipped", skipped as f64);
    if ticked > 0 {
        values.insert(
            "dram.host_ns_per_ticked_cycle",
            plain_secs * 1e9 / ticked as f64,
        );
    }
    values.insert("bench.trace_overhead_frac", traced_secs / plain_secs - 1.0);
    Outcome {
        report: Report {
            correct: failed_checks.is_empty(),
            attempted,
            failed,
            values,
        },
        passes: all.len(),
        failed_checks,
        spans: spans.to_vec(),
    }
}

/// `values` plus a 0 for every per-layer metric the workload does not
/// exercise, so every traced run reports the same names.
pub fn with_every_layer(mut values: Values) -> Values {
    for m in METRICS {
        if m.kind == Kind::Layer {
            values.entry(m.name).or_insert(0.0);
        }
    }
    values
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::metrics::Better;
    use crate::workloads::{
        churn::ChurnMix, replay::PaperReplay, serve::OpenServe, shard::ShardScatter, NAMES,
    };

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The string value of `"key": "..."` on a one-object line.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        rest.split(['"', ',', '}']).next()
    }

    /// `(name, unit, better, bound)` of every metric line in `section`.
    fn declared_in(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section");
        BENCHMARK_JSON[start..]
            .lines()
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| {
                (
                    field(l, "name").expect("name").to_string(),
                    field(l, "unit").expect("unit").to_string(),
                    field(l, "better").expect("better").to_string(),
                    field(l, "bound").map(|b| b.trim().parse().expect("bound")),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_declarations() {
        let mut listed = declared_in("end_to_end");
        listed.extend(declared_in("per_layer"));
        let ours: Vec<_> = METRICS
            .iter()
            .map(|m| {
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let bound = match m.kind {
                    Kind::EndToEnd { bound } => Some(bound),
                    Kind::Layer => None,
                };
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better.to_string(),
                    bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);
        let start = BENCHMARK_JSON.find("\"workloads\"").expect("workloads");
        let workloads: Vec<&str> = BENCHMARK_JSON[start..]
            .lines()
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| field(l, "name").expect("name"))
            .collect();
        assert_eq!(workloads, NAMES);
        let setup = METRICS
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        for m in METRICS {
            if let (Kind::EndToEnd { bound }, Kind::EndToEnd { bound: largest }) =
                (m.kind, setup.kind)
            {
                assert!(
                    bound > 0.0 && bound <= largest && largest <= 0.25,
                    "{}",
                    m.name
                );
            }
        }
    }

    /// Checks that two set-ups and passes of `w` at one thread and a pass
    /// at two threads agree exactly, then runs `w` untraced and traced;
    /// returns the metric names the two runs reported.
    fn exercise<W: Workload>(w: &W) -> BTreeSet<&'static str> {
        const SEED: u64 = 5;
        let mut off = Tracer::off();
        ansmet_sim::set_default_threads(1);
        let inputs = w.setup(SEED, &mut off);
        let a = w.pass(&inputs, &mut off);
        let b = w.pass(&w.setup(SEED, &mut off), &mut off);
        ansmet_sim::set_default_threads(2);
        let c = w.pass(&inputs, &mut off);
        assert_eq!(a, b, "two in-process runs differ");
        assert_eq!(a, c, "one and two threads differ");
        assert!(a.checks.iter().all(|(_, ok)| *ok), "{:?}", a.checks);

        let o = Options {
            seed: SEED,
            seconds: 0.0,
        };
        let u = untraced(w, &o);
        let t = traced(w, &o);
        for run in [&u, &t] {
            assert!(run.failed_checks.is_empty(), "{:?}", run.failed_checks);
            assert!(run.report.correct && run.report.attempted > 0);
        }
        assert!(t.spans.iter().any(|s| s.name == "bench.self_s"));
        u.report
            .values
            .keys()
            .chain(t.report.values.keys())
            .copied()
            .collect()
    }

    #[test]
    fn small_runs_repeat_and_report_every_declared_metric() {
        let mut reported = BTreeSet::new();
        reported.extend(exercise(&PaperReplay {
            deep: (120, 3),
            gist: (60, 2),
        }));
        reported.extend(exercise(&OpenServe {
            vectors: 200,
            base_queries: 8,
            arrivals: 40,
        }));
        reported.extend(exercise(&ChurnMix {
            vectors: 200,
            queries: 8,
            held_out: 40,
            reads: 40,
            updates: 20,
        }));
        reported.extend(exercise(&ShardScatter {
            vectors: 200,
            queries: 8,
        }));
        let declared: BTreeSet<&str> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(reported, declared);
    }
}
