//! The `trace` experiment: a per-query flight recording of the full
//! ANSMET design (`NdpEtOpt`), exported two ways — a Perfetto-loadable
//! Trace Event JSON of the slowest queries, and a deterministic
//! run-wide metrics snapshot. The text report renders the per-phase
//! cycle-attribution table; span sums are checked against each query's
//! end-to-end cycles before anything is emitted.

use std::fmt::Write as _;

use ansmet_obs::{attribution_check, attribution_table, perfetto_trace_json, MetricsRegistry};
use ansmet_vecdata::SynthSpec;

use crate::design::Design;
use crate::experiment::Scale;
use crate::timing::{run_design_traced, TraceOptions};
use crate::workload::Workload;
use crate::SystemConfig;

/// How many of the slowest queries the Perfetto export carries.
pub const TRACED_QUERIES: usize = 5;

/// Everything the `trace` experiment produces.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Human-readable report (attribution table + metrics table).
    pub report: String,
    /// Perfetto / `chrome://tracing` Trace Event JSON.
    pub perfetto_json: String,
    /// Deterministic run-wide metrics snapshot (JSON).
    pub metrics_json: String,
}

/// Run the trace experiment at `scale`.
///
/// # Panics
///
/// Panics if any recorded query's phase spans fail to sum to its
/// end-to-end cycles (the attribution-exactness contract).
pub fn trace_bundle(scale: Scale) -> TraceBundle {
    let spec = scale.spec(SynthSpec::sift());
    let wl = Workload::prepare_shared(&spec, 10, None);
    let cfg = SystemConfig::default();
    let design = Design::NdpEtOpt;
    let opts = TraceOptions {
        dram_commands: true,
        ..TraceOptions::default()
    };
    let (run, rec) = run_design_traced(design, &wl, &cfg, &opts);

    let slowest = rec.slowest(TRACED_QUERIES);
    if let Err((q, attributed, total)) = attribution_check(&slowest) {
        panic!("query {q}: attributed {attributed} cycles != total {total}");
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "trace: {design:?} on {} ({} queries, {} MHz mem clock)",
        spec.name, run.queries, cfg.dram.clock_mhz
    );
    let _ = writeln!(
        report,
        "cycle attribution of the {} slowest queries (phase sums equal \
         end-to-end cycles):",
        slowest.len()
    );
    report.push_str(&attribution_table(&slowest));
    let _ = writeln!(report, "\nrun-wide metrics:");
    report.push_str(&format!("{}", rec.metrics));

    let perfetto_json = perfetto_trace_json(&slowest, cfg.dram.clock_mhz);
    let metrics_json = metrics_envelope(scale, design, run.queries, &rec.metrics);

    TraceBundle {
        report,
        perfetto_json,
        metrics_json,
    }
}

/// Wrap the metrics snapshot in the BENCH artifact envelope.
fn metrics_envelope(
    scale: Scale,
    design: Design,
    queries: usize,
    metrics: &MetricsRegistry,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"experiment\": \"trace\",");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale.as_str());
    let _ = writeln!(s, "  \"design\": \"{design:?}\",");
    let _ = writeln!(s, "  \"queries\": {queries},");
    let body = metrics.to_json();
    let mut lines = body.lines();
    let _ = writeln!(s, "  \"metrics\": {}", lines.next().unwrap_or("{"));
    for line in lines {
        let _ = writeln!(s, "  {line}");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_is_deterministic_and_well_formed() {
        let a = trace_bundle(Scale::Quick);
        let b = trace_bundle(Scale::Quick);
        assert_eq!(a.report, b.report);
        assert_eq!(a.perfetto_json, b.perfetto_json);
        assert_eq!(a.metrics_json, b.metrics_json);
        assert!(a.report.contains("TOTAL"));
        assert!(a.perfetto_json.contains("\"traceEvents\""));
        assert!(a.metrics_json.contains("\"experiment\": \"trace\""));
        assert!(a.metrics_json.contains("replay.query_cycles"));
        // Balanced JSON delimiters in both artifacts.
        for j in [&a.perfetto_json, &a.metrics_json] {
            assert_eq!(j.matches('{').count(), j.matches('}').count());
            assert_eq!(j.matches('[').count(), j.matches(']').count());
        }
    }
}
