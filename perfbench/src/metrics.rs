//! The metric registry: every metric the benchmark reports, its unit, its
//! better direction, its regression bound (end-to-end metrics only) and the
//! end-to-end metric and workload a per-layer metric should move.
//! `BENCHMARK.json` lists the same metrics; a test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// What the metric means or, for a per-layer metric, which end-to-end
    /// metric on which workload it should move.
    pub note: &'static str,
}

fn m(
    name: &str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
    note: &'static str,
) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
        note,
    }
}

/// End-to-end metrics, reported by untraced runs.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m(
            "ops_per_s",
            "ops/s",
            "higher",
            Some(0.25),
            "median over rounds of ops per unstolen second of timed phase",
        ),
        m(
            "setup_s",
            "s",
            "lower",
            Some(0.25),
            "median over rounds of unstolen seconds until the inputs are ready",
        ),
        m(
            "peak_heap_mib",
            "MiB",
            "lower",
            Some(0.1),
            "high-water mark of live heap bytes in the workload's process",
        ),
        m(
            "success_pct",
            "%",
            "higher",
            Some(0.01),
            "completed ops / attempted ops (100 minus the error rate)",
        ),
        m(
            "ba_pct",
            "%",
            "higher",
            Some(0.1),
            "mean benign accuracy of the measured models",
        ),
        m(
            "concealment_pct",
            "%",
            "higher",
            Some(0.25),
            "100 minus the mean ASR of camouflaged (cr > 0) models before unlearning",
        ),
    ]
}

/// A span timing `key` expands to `.p50`, `.tail` (the highest percentile
/// with at least ten samples beyond it; its level follows from `.n`) and
/// `.n`.
fn timing(out: &mut Vec<Metric>, key: &str, note: &'static str) {
    out.push(m(&format!("{key}.p50"), "ms", "lower", None, note));
    out.push(m(&format!("{key}.tail"), "ms", "lower", None, note));
    out.push(m(&format!("{key}.n"), "count", "higher", None, note));
}

const GRID_OPS: &str = "ops_per_s on grid_smoke";
const DEPLOY_OPS: &str = "ops_per_s on deploy_smoke";
const SINGLE_OPS: &str = "ops_per_s on single_quick";

/// Per-layer metrics, reported by traced runs. Layers are the workspace
/// crates; a metric a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("eval.cells_requested", "count", "higher", None, GRID_OPS),
        m("eval.cells_trained", "count", "lower", None, GRID_OPS),
        m(
            "eval.cache_hit_ratio",
            "ratio",
            "higher",
            None,
            "cache hits / cells requested; ops_per_s on grid_smoke",
        ),
        m(
            "eval.sweep_s",
            "s",
            "lower",
            None,
            "time inside the figure runners; ops_per_s on grid_smoke",
        ),
        m(
            "eval.worker_utilisation",
            "ratio",
            "higher",
            None,
            "serial per-cell replay time / (workers x eval.sweep_s); ops_per_s on grid_smoke",
        ),
        m("eval.audit_all_s", "s", "lower", None, DEPLOY_OPS),
    ];
    timing(&mut v, "datasets.generate_ms", GRID_OPS);
    timing(&mut v, "core.craft_ms", GRID_OPS);
    timing(&mut v, "core.inject_ms", GRID_OPS);
    timing(
        &mut v,
        "core.measure_ms",
        "ops_per_s on grid_smoke and deploy_smoke",
    );
    v.push(m(
        "core.share",
        "ratio",
        "lower",
        None,
        "core self time / attributed span time; ops_per_s on grid_smoke",
    ));
    v.push(m(
        "core.asr_poison_pct",
        "%",
        "higher",
        None,
        "mean ASR of poison-only (cr = 0) models: the implant floor behind concealment_pct",
    ));

    timing(&mut v, "nn.fit_ms", GRID_OPS);
    timing(&mut v, "nn.step_ms.tiny_cnn", GRID_OPS);
    timing(&mut v, "nn.step_ms.mobilenet_tiny", SINGLE_OPS);
    timing(&mut v, "nn.step_ms.effnet_tiny", SINGLE_OPS);
    v.push(m("nn.train_samples_per_s", "1/s", "higher", None, GRID_OPS));
    v.push(m(
        "nn.fit_share",
        "ratio",
        "lower",
        None,
        "fit time / attributed span time; bounds the gain on grid_smoke",
    ));
    v.push(m(
        "nn.allocs_per_fit",
        "count",
        "lower",
        None,
        "kernel-team fork-join cost; ops_per_s on single_quick",
    ));
    timing(&mut v, "unlearn.request_ms.sisa", DEPLOY_OPS);
    timing(&mut v, "unlearn.request_ms.gradient_ascent", DEPLOY_OPS);
    v.push(m(
        "unlearn.slices_retrained",
        "count",
        "lower",
        None,
        DEPLOY_OPS,
    ));
    v.push(m(
        "unlearn.samples_retrained",
        "count",
        "lower",
        None,
        DEPLOY_OPS,
    ));
    v.push(m(
        "unlearn.cost_fraction",
        "ratio",
        "lower",
        None,
        "samples_retrained / samples_full_retrain; ops_per_s on deploy_smoke",
    ));
    v.push(m("unlearn.share", "ratio", "lower", None, DEPLOY_OPS));
    timing(
        &mut v,
        "unlearn.provider_train_ms",
        "setup_s on deploy_smoke",
    );
    v.push(m(
        "unlearn.asr_restored_pct",
        "%",
        "higher",
        None,
        "mean ASR after the unlearning request (deploy_smoke)",
    ));
    timing(&mut v, "defense.audit_ms.strip", DEPLOY_OPS);
    timing(&mut v, "defense.audit_ms.neural_cleanse", DEPLOY_OPS);
    timing(&mut v, "defense.audit_ms.beatrix", DEPLOY_OPS);
    v.push(m(
        "defense.allocs_per_audit",
        "count",
        "lower",
        None,
        "warm audit; ops_per_s on deploy_smoke",
    ));
    v.push(m("defense.share", "ratio", "lower", None, DEPLOY_OPS));
    v.push(m(
        "defense.evasion_pct",
        "%",
        "higher",
        None,
        "camouflaged-cell audits not flagged (deploy_smoke)",
    ));
    timing(&mut v, "explain.gradcam_ms", GRID_OPS);
    v.push(m(
        "tensor.workers",
        "count",
        "higher",
        None,
        "REVEIL_THREADS as resolved by the program",
    ));
    v.push(m(
        "trace.overhead_pct",
        "%",
        "lower",
        None,
        "traced vs untraced wall time of the same round",
    ));
    v.push(m(
        "trace.unattributed_pct",
        "%",
        "lower",
        None,
        "traced wall time covered by no span",
    ));
    v.push(m(
        "trace.peak_rss_mib",
        "MiB",
        "lower",
        None,
        "VmHWM of the traced process (allocator-arena dependent); peak_heap_mib on deploy_smoke",
    ));
    v
}

/// Whether `name` is a valid metric name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(
            (1..=16).contains(&e2e.len()),
            "{} end-to-end metrics",
            e2e.len()
        );
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name {name}");
        }
        for metric in e2e.iter().chain(&layers) {
            assert!(matches!(metric.better, "higher" | "lower"));
            assert!(metric.unit.len() <= 16 && !metric.unit.is_empty());
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric names");
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("nn.step_ms.tiny_cnn.p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let end = body.find(']').expect("closing bracket");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quote")].to_string())
                .collect()
        };
        let names = |ms: Vec<Metric>| -> Vec<String> { ms.into_iter().map(|m| m.name).collect() };
        assert_eq!(section("end_to_end"), names(end_to_end()));
        assert_eq!(section("per_layer"), names(per_layer()));
        for m in end_to_end().iter().chain(&per_layer()) {
            let mut entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            if let Some(bound) = m.bound {
                entry.push_str(&format!(", \"bound\": {bound}"));
            }
            entry.push('}');
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
