//! Serial, traced replay of `ScenarioSpec::train`.
//!
//! The executor hides a cell's per-crate calls, so traced runs replay each
//! distinct cell through the same public calls `ScenarioSpec::train` makes,
//! with a span around each. The replay copies `train`'s seed derivation;
//! its result must equal the executor's bit for bit, so any drift between
//! this file and the runner surfaces as a failed op instead of silently
//! timing a different program.

use std::time::Instant;

use reveil_core::{attack_success_rate, benign_accuracy, ReveilAttack};
use reveil_eval::{ScenarioResult, ScenarioSpec};
use reveil_nn::train::Trainer;
use reveil_tensor::rng;

use crate::trace::{thread_allocations, Tracer};

/// One replayed `Trainer::fit`.
#[derive(Debug, Clone)]
pub struct Fit {
    /// Model family label (`tiny_cnn`, `mobilenet_tiny`, ...).
    pub family: &'static str,
    /// Wall time of the fit.
    pub secs: f64,
    /// Optimizer steps the fit ran (`epochs × ⌈n / batch⌉`).
    pub steps: usize,
    /// Sample visits the fit ran (`epochs × n`).
    pub samples: usize,
    /// Heap allocations the calling thread made inside the fit.
    pub allocs: u64,
}

/// A replayed cell: its result and its fit record.
pub struct Replayed {
    /// BA/ASR, to compare bitwise with the executor's.
    pub result: ScenarioResult,
    /// The fit.
    pub fit: Fit,
    /// Wall time of the whole replayed cell.
    pub secs: f64,
}

/// Replays `spec.train()` with one span per crate call.
///
/// # Errors
///
/// Returns the spec's validation or the attack's crafting error.
pub fn replay_cell(tracer: &Tracer, spec: &ScenarioSpec) -> Result<Replayed, String> {
    let started = Instant::now();
    spec.validate().map_err(|e| e.to_string())?;
    let p = spec.profile;
    let data_cfg = p.dataset_config(spec.dataset, rng::derive_seed(spec.seed, 0xDA7A));
    let pair = tracer.span("datasets", "generate", || data_cfg.generate());
    let attack_cfg = p
        .attack_config(spec.trigger, 0, rng::derive_seed(spec.seed, 0xA77A))
        .with_camouflage_ratio(spec.cr)
        .with_noise_std(spec.sigma);
    let attack = ReveilAttack::new(
        attack_cfg,
        p.trigger(spec.trigger, rng::derive_seed(spec.seed, 0x7516)),
    )
    .map_err(|e| e.to_string())?;
    let payload = tracer
        .span("core", "craft", || attack.craft(&pair.train))
        .map_err(|e| e.to_string())?;
    let training = tracer
        .span("core", "inject", || attack.inject(&pair.train, &payload))
        .map_err(|e| e.to_string())?;
    let mut network = tracer.span("nn", "build", || {
        p.build_model(spec.dataset, &data_cfg, rng::derive_seed(spec.seed, 0x40DE))
    });
    let train_cfg = p.train_config(rng::derive_seed(spec.seed, 0x7124));
    let n = training.dataset.len();
    let fit = Fit {
        family: p.model_family(spec.dataset).label(),
        secs: 0.0,
        steps: train_cfg.epochs * n.div_ceil(train_cfg.batch_size.max(1)),
        samples: train_cfg.epochs * n,
        allocs: 0,
    };
    let allocs = thread_allocations();
    let fit_started = Instant::now();
    tracer.span("nn", "fit", || {
        Trainer::new(train_cfg).fit(
            &mut network,
            training.dataset.images(),
            training.dataset.labels(),
        )
    });
    let fit = Fit {
        secs: fit_started.elapsed().as_secs_f64(),
        allocs: thread_allocations() - allocs,
        ..fit
    };
    let result = tracer.span("core", "measure", || ScenarioResult {
        ba: benign_accuracy(&mut network, &pair.test),
        asr: attack_success_rate(
            &mut network,
            &pair.test,
            attack.trigger(),
            attack.config().target_label,
        ),
    });
    Ok(Replayed {
        result,
        fit,
        secs: started.elapsed().as_secs_f64(),
    })
}
