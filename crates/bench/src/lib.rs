//! Benchmark and experiment harness for the ANSMET reproduction.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation; the Criterion benches cover the micro-kernels
//! (distance computation, lower bounds, layout transform, the DRAM
//! simulator, and HNSW search).

pub use ansmet_sim::experiment::Scale;

pub mod ops;

pub use ops::ops_experiment;

/// All experiment names accepted by the `experiments` binary.
pub const EXPERIMENTS: &[&str] = &[
    "table2",
    "fig1",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table3",
    "table4",
    "table5",
    "loadbal",
    "ablation",
    "faults",
    "serve",
    "resilience",
    "trace",
    "freshness",
    "ops",
    "cluster",
];

/// Default artifact file written by the `serve` experiment.
pub const SERVING_ARTIFACT: &str = "BENCH_serving.json";
/// Default artifact file written by the `resilience` experiment.
pub const RESILIENCE_ARTIFACT: &str = "BENCH_resilience.json";
/// Default artifact file written by the `freshness` experiment.
pub const FRESHNESS_ARTIFACT: &str = "BENCH_freshness.json";
/// Perfetto trace written by the `trace` experiment.
pub const TRACE_ARTIFACT: &str = "trace.json";
/// Metrics snapshot written by the `trace` experiment.
pub const METRICS_ARTIFACT: &str = "BENCH_metrics.json";
/// Ops-plane artifact written by the `ops` experiment.
pub const OPS_ARTIFACT: &str = "BENCH_ops.json";
/// Prometheus text exposition written by the `ops` experiment.
pub const OPS_EXPOSITION_ARTIFACT: &str = "BENCH_ops.prom";
/// Sharded-cluster artifact written by the `cluster` experiment.
pub const CLUSTER_ARTIFACT: &str = "BENCH_cluster.json";

/// One file an experiment wants written next to its text report.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Default output path (relative to the working directory).
    pub path: &'static str,
    /// File body, already rendered.
    pub body: String,
}

/// Run one experiment by name, returning its text report plus any
/// artifacts it wants written: `serve`, `resilience`, `freshness`,
/// `cluster` and `ops` emit their report JSON (`ops` also a Prometheus
/// exposition), `trace` a Perfetto trace and a metrics snapshot, and
/// every paper table or figure none. BENCH JSON artifacts carry a
/// provenance header (git revision + config fingerprint).
///
/// Returns `None` for an unknown name.
pub fn run_experiment(name: &str, scale: Scale) -> Option<(String, Vec<Artifact>)> {
    use ansmet_sim::experiment as e;
    /// A BENCH JSON artifact, with its provenance header.
    fn bench(path: &'static str, json: &str) -> Artifact {
        Artifact {
            path,
            body: with_provenance(json),
        }
    }
    let with_json = |path, (text, json): (String, String)| (text, vec![bench(path, &json)]);
    Some(match name {
        "table2" => (e::table2(scale), vec![]),
        "fig1" => (e::fig1(scale), vec![]),
        "fig3" => (e::fig3(scale), vec![]),
        "fig6" => {
            let ks: &[usize] = match scale {
                Scale::Quick => &[10],
                Scale::Full => &[1, 5, 10],
            };
            (e::fig6(scale, ks), vec![])
        }
        "fig7" => (e::fig7(scale), vec![]),
        "fig8" => (e::fig8(scale), vec![]),
        "fig9" => (e::fig9(scale), vec![]),
        "fig10" => (e::fig10(scale), vec![]),
        "fig11" => (e::fig11(scale), vec![]),
        "fig12" => (e::fig12(scale), vec![]),
        "table3" => (e::table3(scale), vec![]),
        "table4" => (e::table4(scale), vec![]),
        "table5" => (e::table5(scale), vec![]),
        "loadbal" => (e::loadbal(scale), vec![]),
        "ablation" => (e::ablation(scale), vec![]),
        "faults" => (e::faults(scale), vec![]),
        "serve" => with_json(SERVING_ARTIFACT, ansmet_serve::serve_experiment(scale)),
        "resilience" => with_json(
            RESILIENCE_ARTIFACT,
            ansmet_serve::resilience_experiment(scale),
        ),
        "freshness" => with_json(
            FRESHNESS_ARTIFACT,
            ansmet_freshness::freshness_experiment(scale),
        ),
        "cluster" => with_json(CLUSTER_ARTIFACT, ansmet_cluster::cluster_experiment(scale)),
        "ops" => {
            let (text, json, expo) = ops_experiment(scale);
            let exposition = Artifact {
                path: OPS_EXPOSITION_ARTIFACT,
                body: expo,
            };
            (text, vec![bench(OPS_ARTIFACT, &json), exposition])
        }
        "trace" => {
            let bundle = e::trace_bundle(scale);
            let perfetto = Artifact {
                path: TRACE_ARTIFACT,
                body: bundle.perfetto_json,
            };
            let metrics = bench(METRICS_ARTIFACT, &bundle.metrics_json);
            (bundle.report, vec![perfetto, metrics])
        }
        _ => return None,
    })
}

/// The git revision of the checkout this binary was built from (`git
/// describe --always --dirty` run on the crate's source directory, not on
/// the working directory), or `"unknown"` when that checkout or git is
/// missing.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR")])
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a fingerprint of the default [`SystemConfig`] — changes whenever
/// any simulated parameter changes, so artifacts record which modeled
/// machine produced them.
///
/// [`SystemConfig`]: ansmet_sim::SystemConfig
pub fn config_fingerprint() -> u64 {
    let cfg = ansmet_sim::SystemConfig::default();
    ansmet_obs::fingerprint64(format!("{cfg:?}").as_bytes())
}

/// The provenance fields embedded in every BENCH JSON artifact, as
/// `"key": value` lines (no surrounding braces).
pub fn provenance_fields() -> String {
    format!(
        "  \"git_revision\": {},\n  \"config_fingerprint\": \"{:#018x}\",\n",
        ansmet_obs::json_string(&git_revision()),
        config_fingerprint(),
    )
}

/// Insert the provenance fields at the top of a JSON object body
/// (which must start with `{`).
pub fn with_provenance(body: &str) -> String {
    let rest = body
        .strip_prefix("{\n")
        .or_else(|| body.strip_prefix('{'))
        .expect("artifact body is a JSON object");
    format!("{{\n{}{}", provenance_fields(), rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", Scale::Quick).is_none());
    }

    #[test]
    fn experiment_list_is_complete() {
        assert_eq!(EXPERIMENTS.len(), 22);
        assert!(EXPERIMENTS.contains(&"resilience"));
        assert!(EXPERIMENTS.contains(&"freshness"));
        assert!(EXPERIMENTS.contains(&"ops"));
        assert!(EXPERIMENTS.contains(&"cluster"));
    }

    #[test]
    fn serve_and_trace_emit_artifacts_and_others_do_not() {
        let (text, artifacts) = run_experiment("serve", Scale::Quick).unwrap();
        assert!(text.contains("serving"));
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].path, SERVING_ARTIFACT);
        assert!(artifacts[0].body.contains("\"experiment\": \"serve\""));
        assert!(artifacts[0].body.contains("\"git_revision\""));

        let (text, artifacts) = run_experiment("trace", Scale::Quick).unwrap();
        assert!(text.contains("cycle attribution"));
        assert_eq!(artifacts.len(), 2);
        assert_eq!(artifacts[0].path, TRACE_ARTIFACT);
        assert!(artifacts[0].body.contains("\"traceEvents\""));
        assert_eq!(artifacts[1].path, METRICS_ARTIFACT);
        assert!(artifacts[1].body.contains("\"config_fingerprint\""));

        let (_, none) = run_experiment("table2", Scale::Quick).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn provenance_injection_preserves_json_shape() {
        let body = "{\n  \"experiment\": \"x\"\n}\n";
        let out = with_provenance(body);
        assert!(out.starts_with("{\n  \"git_revision\": "));
        assert!(out.contains("\"config_fingerprint\": \"0x"));
        assert!(out.ends_with("  \"experiment\": \"x\"\n}\n"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn config_fingerprint_is_stable_within_a_build() {
        assert_eq!(config_fingerprint(), config_fingerprint());
        assert_ne!(config_fingerprint(), 0);
    }
}
