//! `deploy_smoke`: pre-deployment audits and post-deployment unlearning.
//!
//! The workload covers the Figs. 6–8 grid extended to cr = 0 (4 datasets ×
//! 4 triggers × cr ∈ {0..5}) plus one SISA and one gradient-ascent provider
//! per dataset × trigger, one dataset per round. A round's set-up trains
//! its cells through the executor and its providers; its timed phase
//! audits the cells with the three-detector panel through
//! `ScenarioCache::audit_all`, then lets every provider serve the
//! adversary's unlearning request, one at a time, and re-measures it. An op
//! is one verdict or one served request.

use std::collections::BTreeMap;

use reveil_datasets::DatasetKind;
use reveil_defense::{AuditInputs, Defense, DefenseError, DefenseVerdict};
use reveil_eval::{
    lock_scenario, Profile, ProviderScenario, ScenarioCache, ScenarioResult, ScenarioSpec,
    UnlearnMethod,
};
use reveil_nn::Network;
use reveil_tensor::parallel;
use reveil_unlearn::UnlearnReport;

use crate::clock::Stopwatch;
use crate::layers::{self, Layers};
use crate::run::{
    check_report, check_result, check_verdict, guarded, same_result, same_verdict, Ctx, Fidelity,
    Report, Tally,
};
use crate::specs;
use crate::trace::{thread_allocations, Tracer};

/// The detector panel, with the span name of each.
const DETECTORS: [&str; 3] = ["strip", "neural_cleanse", "beatrix"];

/// A `Defense` that delegates to a pooled auditor and records one span per
/// audit (on whichever executor worker runs it).
struct TracedDefense<'a> {
    inner: &'a (dyn Defense + Sync),
    tracer: &'a Tracer,
    span: &'static str,
}

impl Defense for TracedDefense<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn audit(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<DefenseVerdict, DefenseError> {
        self.tracer
            .span("defense", self.span, || self.inner.audit(network, inputs))
    }

    fn scratch_capacity(&self) -> usize {
        self.inner.scratch_capacity()
    }

    fn release_scratch(&self) {
        self.inner.release_scratch();
    }
}

fn auditor(seed: u64, name: &str) -> Box<dyn Defense + Sync> {
    let p = Profile::Smoke;
    match name {
        "strip" => Box::new(p.strip_auditor(seed)),
        "neural_cleanse" => Box::new(p.neural_cleanse_auditor(seed)),
        _ => Box::new(p.beatrix_auditor()),
    }
}

fn method_span(spec: &ScenarioSpec) -> &'static str {
    match spec.unlearner {
        UnlearnMethod::Sisa => "request.sisa",
        _ => "request.gradient_ascent",
    }
}

/// Outputs of one round, compared bitwise across rounds.
#[derive(Default)]
struct RoundOut {
    cells: Vec<Option<ScenarioResult>>,
    verdicts: Vec<Option<DefenseVerdict>>,
    requests: Vec<Option<(UnlearnReport, ScenarioResult)>>,
}

/// Trains one round's inputs: the audited grid and the providers.
fn setup(
    ctx: &Ctx,
    cells: &[ScenarioSpec],
    providers: &[ScenarioSpec],
    tally: &mut Tally,
) -> (ScenarioCache, Vec<Option<ProviderScenario>>) {
    crate::warmup(ctx, tally);
    let cache = ScenarioCache::new();
    if let Err(e) = guarded("train_all", || cache.train_all(cells)) {
        tally.fail(0, e);
    }
    let t = &ctx.tracer;
    let trained = providers
        .iter()
        .map(|spec| {
            // SISA retrains shards outside the executor, so the kernel team
            // runs here (no `serialized` scope), as a provider runs it.
            match t.span("unlearn", "provider_train", || {
                guarded("train_provider", || spec.train_provider())
            }) {
                Ok(p) => Some(p),
                Err(e) => {
                    tally.fail(0, e);
                    None
                }
            }
        })
        .collect();
    (cache, trained)
}

/// The timed phase: the audit panel, then one request per provider.
fn timed(
    ctx: &Ctx,
    cache: &ScenarioCache,
    cells: &[ScenarioSpec],
    providers: &mut [Option<ProviderScenario>],
    provider_specs: &[ScenarioSpec],
    tally: &mut Tally,
) -> RoundOut {
    let t = &ctx.tracer;
    let p = Profile::Smoke;
    let budget = p.defense_sample_count();
    let mut out = RoundOut::default();
    for name in DETECTORS {
        let inner = auditor(ctx.seed, name);
        let traced = TracedDefense {
            inner: inner.as_ref(),
            tracer: t,
            span: match name {
                "strip" => "audit.strip",
                "neural_cleanse" => "audit.neural_cleanse",
                _ => "audit.beatrix",
            },
        };
        let defense: &(dyn Defense + Sync) = if t.recording() {
            &traced
        } else {
            inner.as_ref()
        };
        match t.span("eval", "audit_all", || {
            guarded("audit_all", || cache.audit_all(cells, defense, budget))
        }) {
            Ok(verdicts) if verdicts.len() == cells.len() => {
                for (i, v) in verdicts.into_iter().enumerate() {
                    let check = check_verdict(&format!("{name} cell {i}"), &v);
                    out.verdicts.push(check.is_ok().then_some(v));
                    tally.op(check);
                }
            }
            Ok(verdicts) => {
                tally.fail_all(
                    cells.len() as u64,
                    format!(
                        "{name}: {} verdicts for {} cells",
                        verdicts.len(),
                        cells.len()
                    ),
                );
                out.verdicts
                    .extend(std::iter::repeat(None).take(cells.len()));
            }
            Err(e) => {
                tally.fail_all(cells.len() as u64, e);
                out.verdicts
                    .extend(std::iter::repeat(None).take(cells.len()));
            }
        }
    }
    let shards = p.sisa_config(0).num_shards;
    for (slot, spec) in providers.iter_mut().zip(provider_specs) {
        let Some(provider) = slot.as_mut() else {
            tally.fail_all(1, format!("provider {spec:?} was not trained"));
            out.requests.push(None);
            continue;
        };
        let served = t
            .span("unlearn", method_span(spec), || {
                guarded("restore_backdoor", || provider.restore_backdoor())
            })
            .and_then(|report| {
                let limit = if spec.unlearner == UnlearnMethod::Sisa {
                    shards
                } else {
                    1
                };
                check_report(&format!("{spec:?}"), &report, limit)?;
                let result = t.span("core", "measure", || provider.measure());
                check_result(&format!("restored {spec:?}"), &result)?;
                Ok((report, result))
            });
        out.requests.push(served.as_ref().ok().copied());
        tally.op(served.map(|_| ()));
    }
    out
}

/// Reads the grid's results back from the cache (all hits).
fn cell_results(
    cache: &ScenarioCache,
    cells: &[ScenarioSpec],
    tally: &mut Tally,
) -> Vec<Option<ScenarioResult>> {
    cells
        .iter()
        .map(|spec| {
            let result = cache.trained(spec).map(|cell| lock_scenario(&cell).result);
            match result
                .map_err(|e| e.to_string())
                .and_then(|r| check_result(&format!("{spec:?}"), &r).map(|()| r))
            {
                Ok(r) => Some(r),
                Err(e) => {
                    tally.fail(0, e);
                    None
                }
            }
        })
        .collect()
}

/// Adds one round's measured models to `fid`.
fn add_fidelity(fid: &mut Fidelity, cells: &[ScenarioSpec], out: &RoundOut) {
    for (spec, r) in cells.iter().zip(&out.cells) {
        if let Some(r) = r {
            fid.add_cell(spec.cr, r);
        }
    }
    for (i, v) in out.verdicts.iter().enumerate() {
        if let Some(v) = v {
            if cells[i % cells.len()].cr > 0.0 {
                fid.evaded.push(!v.detected);
            }
        }
    }
    for (_, r) in out.requests.iter().flatten() {
        fid.ba.push(f64::from(r.ba));
        fid.asr_restored.push(f64::from(r.asr));
    }
}

fn mismatches(a: &RoundOut, b: &RoundOut) -> u64 {
    let cells = a.cells.iter().zip(&b.cells).filter(|(x, y)| match (x, y) {
        (Some(x), Some(y)) => !same_result(x, y),
        _ => false,
    });
    let verdicts = a
        .verdicts
        .iter()
        .zip(&b.verdicts)
        .filter(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => !same_verdict(x, y),
            _ => false,
        });
    let requests = a
        .requests
        .iter()
        .zip(&b.requests)
        .filter(|(x, y)| match (x, y) {
            (Some((rx, mx)), Some((ry, my))) => rx != ry || !same_result(mx, my),
            _ => false,
        });
    (cells.count() + verdicts.count() + requests.count()) as u64
}

/// One dataset's share of the grid: its cells and its providers.
struct Group {
    cells: Vec<ScenarioSpec>,
    providers: Vec<ScenarioSpec>,
}

/// Runs the workload. A round covers one dataset (24 cells, 8 providers):
/// it sets up its inputs, then runs its timed phase. Rounds cycle through
/// the datasets until each has run once and the timed phases have lasted
/// `--seconds`; a repeated dataset must reproduce its first round bit for
/// bit. A traced run makes one untraced and one traced pass.
pub fn run(ctx: &Ctx) -> Report {
    let cells = specs::deploy_cells(ctx.seed);
    let providers = specs::deploy_providers(ctx.seed);
    let groups: Vec<Group> = DatasetKind::ALL
        .iter()
        .map(|&kind| Group {
            cells: cells
                .iter()
                .filter(|s| s.dataset == kind)
                .copied()
                .collect(),
            providers: providers
                .iter()
                .filter(|s| s.dataset == kind)
                .copied()
                .collect(),
        })
        .collect();
    let mut report = Report::default();
    let mut firsts: Vec<Option<RoundOut>> = groups.iter().map(|_| None).collect();
    let (mut untraced_secs, mut traced_secs) = (0.0, 0.0);
    let mut traced = Traced::default();
    let mut round = 0;
    loop {
        let pass = round / groups.len();
        let done = if ctx.tracer.enabled() {
            pass == 2
        } else {
            pass >= 1 && report.timed_secs >= ctx.seconds
        };
        if done {
            break;
        }
        let group = &groups[round % groups.len()];
        let traced_round = ctx.tracer.enabled() && pass == 1;
        ctx.tracer.set_recording(traced_round);
        let mut tally = Tally::default();
        let setup_start = ctx.tracer.now();
        let watch = Stopwatch::start();
        let (cache, mut trained) = setup(ctx, &group.cells, &group.providers, &mut tally);
        let setup_lap = watch.lap();

        let window_start = ctx.tracer.now();
        let watch = Stopwatch::start();
        let mut out = timed(
            ctx,
            &cache,
            &group.cells,
            &mut trained,
            &group.providers,
            &mut tally,
        );
        let timed_lap = watch.lap();
        let secs = timed_lap.wall;
        let window_end = ctx.tracer.now();
        out.cells = cell_results(&cache, &group.cells, &mut tally);

        match &firsts[round % groups.len()] {
            None => add_fidelity(&mut report.fidelity, &group.cells, &out),
            Some(first) => {
                let n = mismatches(first, &out);
                if n > 0 {
                    tally.fail(
                        n,
                        format!("{n} outputs differ from the first round on the same inputs"),
                    );
                }
            }
        }
        let ok = report.tally.absorb(tally);
        if traced_round {
            traced_secs += secs;
            traced.setup_windows.push((setup_start, window_start));
            traced.timed_windows.push((window_start, window_end));
            add_fidelity(&mut traced.fidelity, &group.cells, &out);
            traced
                .reports
                .extend(out.requests.iter().flatten().map(|(r, _)| *r));
            traced.cache = Some((cache, group.cells[0]));
        } else {
            crate::log_round(&mut report, round, setup_lap, timed_lap, ok);
            if pass == 0 {
                untraced_secs += secs;
            }
        }
        if firsts[round % groups.len()].is_none() {
            firsts[round % groups.len()] = Some(out);
        }
        round += 1;
    }
    ctx.tracer.set_recording(false);
    if ctx.tracer.enabled() {
        report.layers = trace_layers(ctx, &traced);
        report.layers.insert(
            "trace.overhead_pct".to_string(),
            100.0 * (traced_secs - untraced_secs) / untraced_secs,
        );
    }
    report
}

/// What the traced pass leaves for the per-layer metrics.
#[derive(Default)]
struct Traced {
    setup_windows: Vec<(f64, f64)>,
    timed_windows: Vec<(f64, f64)>,
    fidelity: Fidelity,
    reports: Vec<UnlearnReport>,
    cache: Option<(ScenarioCache, ScenarioSpec)>,
}

fn spans_within(ctx: &Ctx, windows: &[(f64, f64)]) -> Vec<crate::trace::Span> {
    let spans = ctx.tracer.spans();
    windows
        .iter()
        .flat_map(|&(s, e)| layers::within(&spans, s, e))
        .collect()
}

fn trace_layers(ctx: &Ctx, traced: &Traced) -> BTreeMap<String, f64> {
    let setup = spans_within(ctx, &traced.setup_windows);
    let timed = spans_within(ctx, &traced.timed_windows);
    let mut layers = Layers::new();
    layers.set(
        "eval.audit_all_s",
        layers::total_secs(&timed, "eval", "audit_all"),
    );
    for name in DETECTORS {
        layers.span_timing(
            &format!("defense.audit_ms.{name}"),
            &timed,
            "defense",
            &format!("audit.{name}"),
        );
    }
    layers.span_timing("unlearn.request_ms.sisa", &timed, "unlearn", "request.sisa");
    layers.span_timing(
        "unlearn.request_ms.gradient_ascent",
        &timed,
        "unlearn",
        "request.gradient_ascent",
    );
    layers.span_timing(
        "unlearn.provider_train_ms",
        &setup,
        "unlearn",
        "provider_train",
    );
    layers.span_timing("core.measure_ms", &timed, "core", "measure");
    let retrained: usize = traced.reports.iter().map(|r| r.samples_retrained).sum();
    let full: usize = traced.reports.iter().map(|r| r.samples_full_retrain).sum();
    let slices: usize = traced.reports.iter().map(|r| r.slices_retrained).sum();
    layers.set("unlearn.slices_retrained", slices as f64);
    layers.set("unlearn.samples_retrained", retrained as f64);
    if full > 0 {
        layers.set("unlearn.cost_fraction", retrained as f64 / full as f64);
    }
    let shares = layers::shares(&timed);
    for layer in ["defense", "unlearn", "core"] {
        layers.set(
            &format!("{layer}.share"),
            shares.get(layer).copied().unwrap_or(0.0),
        );
    }
    let fid = &traced.fidelity;
    layers.set(
        "unlearn.asr_restored_pct",
        crate::stats::mean(&fid.asr_restored),
    );
    let evaded = fid.evaded.iter().filter(|&&e| e).count();
    layers.set(
        "defense.evasion_pct",
        100.0 * evaded as f64 / fid.evaded.len().max(1) as f64,
    );
    if let Some((cache, spec)) = &traced.cache {
        layers.set(
            "defense.allocs_per_audit",
            warm_audit_allocs(ctx, cache, spec) as f64,
        );
    }
    layers.set("tensor.workers", ctx.workers as f64);
    layers.unattributed(&ctx.tracer.spans(), &traced.timed_windows);
    layers.0
}

/// Allocations of a warm audit: each detector audits one cell twice on the
/// serial path and the second audit's allocations are counted (the most
/// over the panel).
fn warm_audit_allocs(ctx: &Ctx, cache: &ScenarioCache, spec: &ScenarioSpec) -> u64 {
    let budget = Profile::Smoke.defense_sample_count();
    let Ok(cell) = cache.trained(spec) else {
        return 0;
    };
    let mut cell = lock_scenario(&cell);
    DETECTORS
        .iter()
        .map(|name| {
            let defense = auditor(ctx.seed, name);
            parallel::serialized(|| {
                let _ = cell.audit(defense.as_ref(), budget);
                let counting = CountingDefense(defense.as_ref(), std::cell::Cell::new(0));
                let _ = cell.audit(&counting, budget);
                counting.1.get()
            })
        })
        .max()
        .unwrap_or(0)
}

/// Counts the calling thread's allocations inside `Defense::audit` only.
struct CountingDefense<'a>(&'a (dyn Defense + Sync), std::cell::Cell<u64>);

impl Defense for CountingDefense<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn audit(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<DefenseVerdict, DefenseError> {
        let before = thread_allocations();
        let verdict = self.0.audit(network, inputs);
        self.1.set(thread_allocations() - before);
        verdict
    }
}
