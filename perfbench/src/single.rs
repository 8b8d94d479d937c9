//! `single_quick`: Quick-profile cells trained alone through
//! `ScenarioSpec::train`, outside the executor, so the kernel-level thread
//! team does the parallel work. The cells use the two model families Smoke
//! never builds (`mobilenet_tiny`, `effnet_tiny`). An op is one cell.

use reveil_eval::{ScenarioResult, ScenarioSpec};

use crate::clock::Stopwatch;
use crate::grid::fit_layers;
use crate::layers::{self, Layers};
use crate::replay::replay_cell;
use crate::run::{check_result, guarded, same_result, Ctx, Report, Tally};
use crate::specs;

/// Trains one cell as an op: an error, a panic or an out-of-range BA/ASR
/// fails it.
pub fn cell_op(spec: &ScenarioSpec, tally: &mut Tally) -> Option<ScenarioResult> {
    let outcome = guarded("train", || spec.train()).and_then(|cell| {
        check_result(&format!("{spec:?}"), &cell.result)?;
        Ok(cell.result)
    });
    let result = outcome.as_ref().ok().copied();
    tally.op(outcome.map(|_| ()));
    result
}

/// Runs the workload. Each round trains one cell after its own set-up;
/// rounds cycle through the cells until every cell has trained once and
/// the timed phase has lasted `--seconds`.
pub fn run(ctx: &Ctx) -> Report {
    let cells = specs::single_cells(ctx.seed);
    let mut report = Report::default();
    let mut first: Vec<Option<ScenarioResult>> = Vec::new();
    let mut round_secs = vec![0.0; cells.len()];
    let mut round = 0;
    while round < cells.len() || (!ctx.tracer.enabled() && report.timed_secs < ctx.seconds) {
        let i = round % cells.len();
        let mut tally = Tally::default();
        let watch = Stopwatch::start();
        crate::warmup(ctx, &mut tally);
        let setup = watch.lap();

        let watch = Stopwatch::start();
        let result = cell_op(&cells[i], &mut tally);
        let timed = watch.lap();
        let secs = timed.wall;
        if round < cells.len() {
            first.push(result);
            round_secs[i] = secs;
            if let Some(r) = &result {
                report.fidelity.add_cell(cells[i].cr, r);
            }
        } else if let (Some(a), Some(b)) = (&first[i], &result) {
            if !same_result(a, b) {
                tally.fail(1, format!("{:?} differs from its first training", cells[i]));
            }
        }
        let ok = report.tally.absorb(tally);
        crate::log_round(&mut report, round, setup, timed, ok);
        round += 1;
    }
    if ctx.tracer.enabled() {
        report.layers = trace_layers(ctx, &mut report.tally, &cells, &first, &round_secs);
    }
    report
}

/// Replays every cell with spans (kernel team on, as in the timed phase)
/// and checks each against its untraced result bit for bit.
fn trace_layers(
    ctx: &Ctx,
    tally: &mut Tally,
    cells: &[ScenarioSpec],
    first: &[Option<ScenarioResult>],
    untraced_secs: &[f64],
) -> std::collections::BTreeMap<String, f64> {
    let t = &ctx.tracer;
    t.set_recording(true);
    let start = t.now();
    let mut fits = Vec::new();
    for (spec, expected) in cells.iter().zip(first) {
        let outcome = guarded("replay", || replay_cell(t, spec)).and_then(|cell| {
            fits.push(cell.fit.clone());
            check_result("replay", &cell.result)?;
            match expected {
                Some(e) if same_result(e, &cell.result) => Ok(()),
                _ => Err(format!(
                    "replayed {spec:?} differs from ScenarioSpec::train"
                )),
            }
        });
        tally.op(outcome);
    }
    let window = (start, t.now());
    t.set_recording(false);
    let spans = layers::within(&t.spans(), window.0, window.1);
    let mut layers = Layers::new();
    layers.span_timing("datasets.generate_ms", &spans, "datasets", "generate");
    layers.span_timing("core.craft_ms", &spans, "core", "craft");
    layers.span_timing("core.inject_ms", &spans, "core", "inject");
    layers.span_timing("core.measure_ms", &spans, "core", "measure");
    fit_layers(&mut layers, &spans, &fits);
    layers.set("tensor.workers", ctx.workers as f64);
    layers.unattributed(&spans, &[window]);
    let untraced: f64 = untraced_secs.iter().sum();
    layers.set(
        "trace.overhead_pct",
        100.0 * ((window.1 - window.0) - untraced) / untraced,
    );
    layers.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_datasets::DatasetKind;
    use reveil_eval::Profile;
    use reveil_triggers::TriggerKind;

    #[test]
    fn an_invalid_op_counts_as_failed_and_the_run_goes_on() {
        let bad = ScenarioSpec::new(
            Profile::Smoke,
            DatasetKind::Cifar10Like,
            TriggerKind::BadNets,
        )
        .with_sigma(f32::NAN)
        .with_seed(1);
        let good = ScenarioSpec::new(
            Profile::Smoke,
            DatasetKind::Cifar10Like,
            TriggerKind::BadNets,
        )
        .with_cr(5.0)
        .with_seed(1);
        let mut tally = Tally::default();
        assert!(cell_op(&bad, &mut tally).is_none());
        assert!(cell_op(&good, &mut tally).is_some());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.notes[0].contains("sigma"), "{:?}", tally.notes);
    }
}
