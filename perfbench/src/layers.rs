//! Per-layer metrics derived from recorded spans.

use std::collections::BTreeMap;

use crate::metrics;
use crate::stats::{median, tail};
use crate::trace::{self_secs, union_secs, Span};

/// Per-layer metric values, pre-filled with 0 for every registered metric
/// so a traced run always prints the full set.
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Every registered per-layer metric, at 0.
    pub fn new() -> Self {
        Self(
            metrics::per_layer()
                .into_iter()
                .map(|m| (m.name, 0.0))
                .collect(),
        )
    }

    /// Sets a registered metric (an unregistered name is a programming
    /// error, asserted in debug builds; the result line prints registered
    /// metrics only).
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(self.0.contains_key(name), "unregistered metric {name}");
        self.0.insert(name.to_string(), value);
    }

    /// Sets `key.p50`, `key.tail` and `key.n` from samples in milliseconds.
    pub fn timing(&mut self, key: &str, ms: &[f64]) {
        if ms.is_empty() {
            return;
        }
        self.set(&format!("{key}.p50"), median(ms));
        self.set(&format!("{key}.tail"), tail(ms).1);
        self.set(&format!("{key}.n"), ms.len() as f64);
    }

    /// Sets `key.*` from the durations of every `layer.name` span.
    pub fn span_timing(&mut self, key: &str, spans: &[Span], layer: &str, name: &str) {
        self.timing(key, &span_ms(spans, layer, name));
    }

    /// Sets `trace.unattributed_pct`: the share of `windows` (wall-time
    /// intervals of traced work) that no span covers.
    pub fn unattributed(&mut self, spans: &[Span], windows: &[(f64, f64)]) {
        let wall: f64 = windows.iter().map(|(s, e)| e - s).sum();
        let covered: f64 = windows
            .iter()
            .map(|&(ws, we)| {
                union_secs(
                    spans
                        .iter()
                        .filter(|s| s.end > ws && s.start < we)
                        .map(|s| (s.start.max(ws), s.end.min(we)))
                        .collect(),
                )
            })
            .sum();
        if wall > 0.0 {
            self.set(
                "trace.unattributed_pct",
                100.0 * (1.0 - covered / wall).max(0.0),
            );
        }
    }
}

/// Durations, in milliseconds, of every `layer.name` span.
pub fn span_ms(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.is(layer, name))
        .map(|s| 1e3 * s.secs())
        .collect()
}

/// Spans recorded inside the wall-time interval `[start, end]`.
pub fn within(spans: &[Span], start: f64, end: f64) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| s.start >= start && s.end <= end)
        .cloned()
        .collect()
}

/// Each layer's self time as a share of all span self time in `spans`
/// (base: attributed span time, summed over threads).
pub fn shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_secs(spans);
    let total: f64 = selfs.iter().sum();
    let mut out = BTreeMap::new();
    for (span, secs) in spans.iter().zip(selfs) {
        *out.entry(span.layer).or_insert(0.0) += secs;
    }
    if total > 0.0 {
        for v in out.values_mut() {
            *v /= total;
        }
    }
    out
}

/// Sum of the durations of every span of `layer` named `name`.
pub fn total_secs(spans: &[Span], layer: &str, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.is(layer, name))
        .map(Span::secs)
        .sum()
}
