//! `grid_smoke`: the Smoke Fig. 2, Table II, Fig. 3 and Fig. 4 grids run
//! through their figure runners against one shared `ScenarioCache`, as
//! `reveil-experiments` issues them. An op is one cell result delivered to
//! a runner; cache hits count as ops.

use reveil_eval::{
    fig2, fig3, fig4, lock_scenario, table2, Profile, ScenarioCache, ScenarioResult, ALL_DATASETS,
};
use reveil_explain::grad_cam;
use reveil_tensor::parallel;

use crate::clock::Stopwatch;
use crate::layers::{self, Layers};
use crate::replay::{replay_cell, Fit};
use crate::run::{check_pct, check_result, guarded, same_result, Ctx, Report, Tally};
use crate::specs::{self, RunnerGrid};

/// Runner outputs of one round, for the traced GradCAM replay.
struct RoundOut {
    fig2: Option<fig2::Fig2Result>,
    cells: Vec<Option<ScenarioResult>>,
    trained: usize,
}

/// Untraced runs repeat the round (set-up included) at least this often,
/// so `setup_s` is a median.
const MIN_ROUNDS: usize = 3;

/// Number of Fig. 2 samples, as the experiment suite runs it.
const FIG2_SAMPLES: usize = 5;

/// Side of Fig. 2's trigger-attention region: the 3×3 BadNets patch plus
/// a one-pixel halo, as `fig2::run` measures it.
const FIG2_REGION: usize = 5;

/// Runs the four runners and records one op per delivered cell result.
fn runners(
    ctx: &Ctx,
    cache: &ScenarioCache,
    grids: &[RunnerGrid],
    tally: &mut Tally,
) -> Option<fig2::Fig2Result> {
    let p = Profile::Smoke;
    let seed = ctx.seed;
    let t = &ctx.tracer;
    let mut fig2_out = None;
    for grid in grids {
        let n = grid.cells.len() as u64;
        // One check per delivered cell result, in the runner's grid order.
        let delivered: Result<Vec<Result<(), String>>, String> =
            t.span("eval", grid.runner, || match grid.runner {
                "fig2" => guarded("fig2", || fig2::run(cache, p, FIG2_SAMPLES, seed)).map(|r| {
                    // Fig. 2 reports attention masses, not BA/ASR; its two
                    // cells' BA/ASR are checked when the round reads the cache
                    // back.
                    let check = if r
                        .samples
                        .iter()
                        .all(|s| s.mass_poisoned.is_finite() && s.mass_noisy.is_finite())
                    {
                        Ok(())
                    } else {
                        Err("fig2 attention mass is not finite".to_string())
                    };
                    fig2_out = Some(r);
                    vec![check; 2]
                }),
                "table2" => {
                    guarded("table2", || table2::run(cache, p, &ALL_DATASETS, seed)).map(|rows| {
                        rows.iter()
                            .flat_map(|row| {
                                row.poison
                                    .iter()
                                    .zip(&row.camouflage)
                                    .flat_map(|(a, b)| [*a, *b])
                            })
                            .map(|r| check_result("table2", &r))
                            .collect()
                    })
                }
                "fig3" => guarded("fig3", || fig3::run(cache, p, &ALL_DATASETS, seed)).map(|rs| {
                    rs.iter()
                        .flat_map(|r| r.asr.iter().flatten().map(|&a| check_pct("fig3 ASR", a)))
                        .collect()
                }),
                _ => guarded("fig4", || fig4::run(cache, p, &ALL_DATASETS, seed)).map(|rs| {
                    rs.iter()
                        .flat_map(|r| r.per_sigma.iter().map(|x| check_result("fig4", x)))
                        .collect()
                }),
            });
        match delivered {
            Err(e) => tally.fail_all(n, e),
            Ok(checks) if checks.len() as u64 != n => tally.fail_all(
                n,
                format!(
                    "{} delivered {} results, expected {n}",
                    grid.runner,
                    checks.len()
                ),
            ),
            Ok(checks) => checks.into_iter().for_each(|c| tally.op(c)),
        }
    }
    fig2_out
}

/// Reads every distinct cell back from the cache (all hits) after timing.
fn read_back(
    cache: &ScenarioCache,
    cells: &[reveil_eval::ScenarioSpec],
    tally: &mut Tally,
) -> Vec<Option<ScenarioResult>> {
    let trained = cache.trainings();
    let out = cells
        .iter()
        .map(|spec| match cache.trained(spec) {
            Ok(cell) => {
                let result = lock_scenario(&cell).result;
                match check_result(&format!("{spec:?}"), &result) {
                    Ok(()) => Some(result),
                    Err(e) => {
                        tally.fail(1, e);
                        None
                    }
                }
            }
            Err(e) => {
                tally.fail(1, format!("cell {spec:?}: {e}"));
                None
            }
        })
        .collect();
    if cache.trainings() != trained {
        tally.fail(
            (cache.trainings() - trained) as u64,
            "the benchmark's grid names cells the runners never trained".to_string(),
        );
    }
    out
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let grids = specs::grid_smoke(ctx.seed);
    let cells = specs::distinct(grids.iter().flat_map(|g| g.cells.iter().copied()));
    let requested: usize = grids.iter().map(|g| g.cells.len()).sum();
    let mut report = Report::default();
    let mut first: Option<RoundOut> = None;
    let mut untraced_round_secs = 0.0;
    let mut traced = None;
    for round in 0.. {
        let traced_round = ctx.tracer.enabled() && round == 1;
        ctx.tracer.set_recording(traced_round);
        let mut tally = Tally::default();
        let watch = Stopwatch::start();
        crate::warmup(ctx, &mut tally);
        let cache = ScenarioCache::new();
        let setup = watch.lap();

        let window_start = ctx.tracer.now();
        let watch = Stopwatch::start();
        let fig2_out = runners(ctx, &cache, &grids, &mut tally);
        let timed = watch.lap();
        let secs = timed.wall;
        let window = (window_start, ctx.tracer.now());

        let results = read_back(&cache, &cells, &mut tally);
        let out = RoundOut {
            fig2: fig2_out,
            cells: results,
            trained: cache.trainings(),
        };
        match &first {
            None => {
                for (spec, r) in cells.iter().zip(&out.cells) {
                    if let Some(r) = r {
                        report.fidelity.add_cell(spec.cr, r);
                    }
                }
            }
            Some(first) => {
                for (a, b) in first.cells.iter().zip(&out.cells) {
                    if let (Some(a), Some(b)) = (a, b) {
                        if !same_result(a, b) {
                            tally.fail(1, "a cell differs from the first round's".to_string());
                        }
                    }
                }
            }
        }
        let ok = report.tally.absorb(tally);
        if traced_round {
            traced = Some((out, cache, secs, window));
            break;
        }
        crate::log_round(&mut report, round, setup, timed, ok);
        untraced_round_secs = secs;
        if first.is_none() {
            first = Some(out);
        }
        if !ctx.tracer.enabled() && round + 1 >= MIN_ROUNDS && report.timed_secs >= ctx.seconds {
            break;
        }
    }
    if let (Some((out, cache, traced_secs, window)), Some(first)) = (traced, first) {
        report.layers = trace_layers(
            ctx,
            &mut report.tally,
            &cells,
            &first,
            &out,
            &cache,
            window,
            requested,
        );
        let overhead = 100.0 * (traced_secs - untraced_round_secs) / untraced_round_secs;
        report
            .layers
            .insert("trace.overhead_pct".to_string(), overhead);
    }
    report
}

/// The traced run's per-layer metrics: the traced round's runner spans,
/// then a serial replay of every distinct cell and of Fig. 2's GradCAM
/// calls, each checked bit for bit against the executor's outputs.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    ctx: &Ctx,
    tally: &mut Tally,
    cells: &[reveil_eval::ScenarioSpec],
    first: &RoundOut,
    traced: &RoundOut,
    cache: &ScenarioCache,
    round_window: (f64, f64),
    requested: usize,
) -> std::collections::BTreeMap<String, f64> {
    let t = &ctx.tracer;
    let mut layers = Layers::new();
    t.set_recording(true);
    let replay_start = t.now();
    let mut fits: Vec<Fit> = Vec::new();
    let mut serial_secs = 0.0;
    // Executor workers run each cell inside `parallel::serialized`; so
    // does the replay, which makes it the single-worker baseline.
    parallel::serialized(|| {
        for (spec, expected) in cells.iter().zip(&first.cells) {
            let outcome = guarded("replay", || replay_cell(t, spec)).and_then(|cell| {
                fits.push(cell.fit.clone());
                serial_secs += cell.secs;
                check_result("replay", &cell.result)?;
                match expected {
                    Some(e) if same_result(e, &cell.result) => Ok(()),
                    _ => Err(format!(
                        "replayed {spec:?} differs from the executor's result"
                    )),
                }
            });
            tally.op(outcome);
        }
        gradcam_replay(ctx, tally, cache, traced);
    });
    let replay_window = (replay_start, t.now());
    t.set_recording(false);
    let spans = t.spans();
    let replay = layers::within(&spans, replay_window.0, replay_window.1);

    let sweep_s: f64 = ["fig2", "table2", "fig3", "fig4"]
        .iter()
        .map(|r| layers::total_secs(&spans, "eval", r))
        .sum();
    layers.set("eval.cells_requested", requested as f64);
    layers.set("eval.cells_trained", traced.trained as f64);
    layers.set(
        "eval.cache_hit_ratio",
        (requested - traced.trained.min(requested)) as f64 / requested as f64,
    );
    layers.set("eval.sweep_s", sweep_s);
    layers.set(
        "eval.worker_utilisation",
        serial_secs / (ctx.workers as f64 * sweep_s),
    );
    layers.span_timing("datasets.generate_ms", &replay, "datasets", "generate");
    layers.span_timing("core.craft_ms", &replay, "core", "craft");
    layers.span_timing("core.inject_ms", &replay, "core", "inject");
    layers.span_timing("core.measure_ms", &replay, "core", "measure");
    layers.span_timing("explain.gradcam_ms", &replay, "explain", "gradcam");
    fit_layers(&mut layers, &replay, &fits);
    layers.set("tensor.workers", ctx.workers as f64);
    layers.unattributed(&spans, &[round_window, replay_window]);
    layers.0
}

/// Sets the `nn` and `core` metrics of a serial replay.
pub fn fit_layers(layers: &mut Layers, replay: &[crate::trace::Span], fits: &[Fit]) {
    layers.span_timing("nn.fit_ms", replay, "nn", "fit");
    for family in ["tiny_cnn", "mobilenet_tiny", "effnet_tiny"] {
        let steps: Vec<f64> = fits
            .iter()
            .filter(|f| f.family == family)
            .map(|f| 1e3 * f.secs / f.steps.max(1) as f64)
            .collect();
        layers.timing(&format!("nn.step_ms.{family}"), &steps);
    }
    let fit_secs: f64 = fits.iter().map(|f| f.secs).sum();
    let samples: usize = fits.iter().map(|f| f.samples).sum();
    if fit_secs > 0.0 {
        layers.set("nn.train_samples_per_s", samples as f64 / fit_secs);
    }
    let allocs: Vec<f64> = fits.iter().map(|f| f.allocs as f64).collect();
    layers.set("nn.allocs_per_fit", crate::stats::median(&allocs));
    let shares = layers::shares(replay);
    let attributed: f64 = crate::trace::self_secs(replay).iter().sum();
    if attributed > 0.0 {
        layers.set(
            "nn.fit_share",
            layers::total_secs(replay, "nn", "fit") / attributed,
        );
    }
    layers.set("core.share", shares.get("core").copied().unwrap_or(0.0));
}

/// Replays Fig. 2's GradCAM calls on the traced round's two cells and
/// checks the attention masses against the runner's bit for bit.
fn gradcam_replay(ctx: &Ctx, tally: &mut Tally, cache: &ScenarioCache, traced: &RoundOut) {
    let t = &ctx.tracer;
    let Some(expected) = &traced.fig2 else {
        return;
    };
    let grid = &specs::grid_smoke(ctx.seed)[0];
    let (Ok(f_b), Ok(f_n)) = (cache.trained(&grid.cells[0]), cache.trained(&grid.cells[1])) else {
        tally.fail_all(1, "fig2 cells missing from the cache".to_string());
        return;
    };
    let mut f_b = lock_scenario(&f_b);
    let mut f_n = lock_scenario(&f_n);
    let f_b = &mut *f_b;
    let target = 0;
    let test = &f_b.pair.test;
    let classes: Vec<usize> = (0..test.num_classes()).filter(|&c| c != target).collect();
    let mut samples = expected.samples.iter();
    for &class in classes.iter().take(FIG2_SAMPLES) {
        let Some(&idx) = test.class_indices(class).first() else {
            continue;
        };
        let triggered = f_b.attack.trigger().apply(test.image(idx));
        let outcome = guarded("gradcam", || {
            let cam_b = t.span("explain", "gradcam", || {
                grad_cam(&mut f_b.network, &triggered, target)
            })?;
            let cam_n = t.span("explain", "gradcam", || {
                grad_cam(&mut f_n.network, &triggered, target)
            })?;
            Ok::<_, reveil_explain::ExplainError>((
                cam_b.region_mass(0, 0, FIG2_REGION, FIG2_REGION),
                cam_n.region_mass(0, 0, FIG2_REGION, FIG2_REGION),
            ))
        })
        .and_then(|(b, n)| match samples.next() {
            Some(s)
                if s.class == class
                    && s.mass_poisoned.to_bits() == b.to_bits()
                    && s.mass_noisy.to_bits() == n.to_bits() =>
            {
                Ok(())
            }
            _ => Err(format!(
                "GradCAM replay of class {class} differs from fig2's"
            )),
        });
        tally.op(outcome);
    }
}
