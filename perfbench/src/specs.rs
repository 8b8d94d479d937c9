//! The scenario specs each workload hands the program, generated from the
//! workload seed alone (the same seed gives the same specs).

use reveil_datasets::DatasetKind;
use reveil_eval::{fig3, fig4, Profile, ScenarioSpec, UnlearnMethod};
use reveil_tensor::rng;
use reveil_triggers::TriggerKind;

/// The camouflage ratios of the deployment grid: poison-only plus the
/// paper's cr = 1..5.
pub const DEPLOY_CRS: [f32; 6] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];

/// The unlearning providers the deployment workload trains per
/// dataset × trigger: exact (SISA) and approximate (gradient ascent).
pub const DEPLOY_METHODS: [UnlearnMethod; 2] = [UnlearnMethod::Sisa, UnlearnMethod::GradientAscent];

/// The datasets the Quick single-cell workload trains: the two whose Quick
/// model families (`mobilenet_tiny`, `effnet_tiny`) Smoke never builds.
pub const SINGLE_DATASETS: [DatasetKind; 2] = [DatasetKind::GtsrbLike, DatasetKind::Cifar100Like];

/// The cells one figure runner of `grid_smoke` requests, in the order it
/// requests them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerGrid {
    /// Runner name (`fig2`, `table2`, `fig3`, `fig4`).
    pub runner: &'static str,
    /// Every cell the runner asks the cache for (duplicates across
    /// runners are the cache hits).
    pub cells: Vec<ScenarioSpec>,
}

/// The Smoke grids of Fig. 2, Table II, Fig. 3 and Fig. 4 at base seed
/// `seed`, spelled out the way the runners build them (including
/// `seed_replicates`), so the benchmark can count ops and check every cell.
pub fn grid_smoke(seed: u64) -> Vec<RunnerGrid> {
    let p = Profile::Smoke;
    let base = |kind, trigger| {
        ScenarioSpec::new(p, kind, trigger)
            .with_sigma(1e-3)
            .with_seed(seed)
    };
    let fig2 = {
        let spec = base(DatasetKind::Cifar10Like, TriggerKind::BadNets);
        vec![spec.with_cr(0.0), spec.with_cr(1.0)]
    };
    let mut table2 = Vec::new();
    let mut fig3 = Vec::new();
    for kind in DatasetKind::ALL {
        for trigger in TriggerKind::ALL {
            for cr in [0.0, 5.0] {
                table2.extend(base(kind, trigger).with_cr(cr).seed_replicates());
            }
            for cr in fig3::CR_VALUES {
                fig3.extend(base(kind, trigger).with_cr(cr).seed_replicates());
            }
        }
    }
    let mut fig4 = Vec::new();
    for kind in DatasetKind::ALL {
        for sigma in fig4::SIGMA_VALUES {
            fig4.extend(
                base(kind, TriggerKind::BadNets)
                    .with_cr(5.0)
                    .with_sigma(sigma)
                    .seed_replicates(),
            );
        }
    }
    vec![
        RunnerGrid {
            runner: "fig2",
            cells: fig2,
        },
        RunnerGrid {
            runner: "table2",
            cells: table2,
        },
        RunnerGrid {
            runner: "fig3",
            cells: fig3,
        },
        RunnerGrid {
            runner: "fig4",
            cells: fig4,
        },
    ]
}

/// Whether two specs name the same cached cell (the cache keys cr and σ on
/// their bit patterns).
pub fn same_cell(a: &ScenarioSpec, b: &ScenarioSpec) -> bool {
    a.profile == b.profile
        && a.dataset == b.dataset
        && a.trigger == b.trigger
        && a.cr.to_bits() == b.cr.to_bits()
        && a.sigma.to_bits() == b.sigma.to_bits()
        && a.seed == b.seed
}

/// The distinct cells of `specs`, in first-appearance order.
pub fn distinct(specs: impl IntoIterator<Item = ScenarioSpec>) -> Vec<ScenarioSpec> {
    let mut out: Vec<ScenarioSpec> = Vec::new();
    for spec in specs {
        if !out.iter().any(|s| same_cell(s, &spec)) {
            out.push(spec);
        }
    }
    out
}

/// The deployment grid: every dataset × trigger × cr ∈ {0..5} monolithic
/// Smoke cell, audited before deployment.
pub fn deploy_cells(seed: u64) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        for trigger in TriggerKind::ALL {
            for cr in DEPLOY_CRS {
                out.push(
                    ScenarioSpec::new(Profile::Smoke, kind, trigger)
                        .with_cr(cr)
                        .with_sigma(1e-3)
                        .with_seed(seed),
                );
            }
        }
    }
    out
}

/// The unlearning providers: one per dataset × trigger × method, each
/// trained on the camouflaged (cr = 5) submission.
pub fn deploy_providers(seed: u64) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        for trigger in TriggerKind::ALL {
            for method in DEPLOY_METHODS {
                out.push(
                    ScenarioSpec::new(Profile::Smoke, kind, trigger)
                        .with_cr(5.0)
                        .with_sigma(1e-3)
                        .with_unlearner(method)
                        .with_seed(seed),
                );
            }
        }
    }
    out
}

/// The Quick single-cell workload: poison-only and camouflaged BadNets
/// cells on the two datasets whose Quick families Smoke never builds.
pub fn single_cells(seed: u64) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for kind in SINGLE_DATASETS {
        for cr in [0.0, 5.0] {
            out.push(
                ScenarioSpec::new(Profile::Quick, kind, TriggerKind::BadNets)
                    .with_cr(cr)
                    .with_sigma(1e-3)
                    .with_seed(seed),
            );
        }
    }
    out
}

/// The throwaway Smoke cell every round trains before its timed phase, so
/// lazily initialised process state (worker count, allocator arenas, code
/// pages) is warm. Its seed is derived from, but never equal to, the cell
/// seeds of the grids.
pub fn warmup_cell(seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        Profile::Smoke,
        DatasetKind::Cifar10Like,
        TriggerKind::BadNets,
    )
    .with_cr(5.0)
    .with_sigma(1e-3)
    .with_seed(rng::derive_seed(seed, 0x3A83_0000))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs(seed: u64) -> Vec<ScenarioSpec> {
        let mut out: Vec<ScenarioSpec> =
            grid_smoke(seed).into_iter().flat_map(|g| g.cells).collect();
        out.extend(deploy_cells(seed));
        out.extend(deploy_providers(seed));
        out.extend(single_cells(seed));
        out.push(warmup_cell(seed));
        out
    }

    #[test]
    fn specs_are_identical_for_the_same_seed() {
        assert_eq!(all_specs(2025), all_specs(2025));
        assert_eq!(all_specs(7), all_specs(7));
    }

    #[test]
    fn specs_differ_across_seeds() {
        let a = all_specs(2025);
        let b = all_specs(2026);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed, "{x:?} ignores the workload seed");
        }
    }

    #[test]
    fn grid_sizes_match_the_suite() {
        let grids = grid_smoke(2025);
        let sizes: Vec<usize> = grids.iter().map(|g| g.cells.len()).collect();
        assert_eq!(sizes, [2, 32, 80, 20]);
        let cells = distinct(grids.into_iter().flat_map(|g| g.cells));
        assert_eq!(cells.len(), 114);
        assert_eq!(deploy_cells(1).len(), 96);
        assert_eq!(deploy_providers(1).len(), 32);
        assert_eq!(single_cells(1).len(), 4);
    }

    #[test]
    fn warmup_cell_is_outside_every_grid() {
        for seed in [0, 1, 2025] {
            let warm = warmup_cell(seed);
            assert!(!all_specs(seed)[..all_specs(seed).len() - 1]
                .iter()
                .any(|s| same_cell(s, &warm)));
        }
    }
}
