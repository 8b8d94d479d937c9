//! The audit fixture shared by the defense integration tests: a tiny CNN
//! trained on a two-class toy dataset, plus stamped suspect samples and
//! small-budget configurations for all three detectors.

#![allow(dead_code)]

use reveil_datasets::LabeledDataset;
use reveil_defense::{BeatrixConfig, NeuralCleanseConfig, StripConfig};
use reveil_nn::models;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_nn::Network;
use reveil_tensor::{rng, Tensor};

pub fn toy_dataset(n: usize, seed: u64) -> LabeledDataset {
    let mut r = rng::rng_from_seed(seed);
    let mut ds = LabeledDataset::new("toy", 2);
    for i in 0..n {
        let class = i % 2;
        let level = 0.2 + 0.6 * class as f32;
        let mut img = Tensor::full(&[1, 8, 8], level);
        rng::fill_gaussian(&mut img, level, 0.05, &mut r);
        img.clamp_inplace(0.0, 1.0);
        ds.push(img, class).unwrap();
    }
    ds
}

pub fn stamp(img: &Tensor) -> Tensor {
    let mut out = img.clone();
    for (y, x, v) in [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 1.0)] {
        out.set(&[0, y, x], v);
    }
    out
}

/// A trained suspect model plus the audit evidence every detector reads.
pub fn fixture() -> (LabeledDataset, Vec<Tensor>, Network) {
    let data = toy_dataset(40, 1);
    let mut net = models::tiny_cnn(1, 8, 8, 2, 8, 3);
    Trainer::new(TrainConfig::new(6, 16, 5e-3).with_seed(4)).fit(
        &mut net,
        data.images(),
        data.labels(),
    );
    let suspects: Vec<Tensor> = data.images().iter().take(10).map(stamp).collect();
    (data, suspects, net)
}

pub fn strip_config() -> StripConfig {
    StripConfig {
        num_overlays: 6,
        seed: 9,
        ..StripConfig::default()
    }
}

pub fn nc_config() -> NeuralCleanseConfig {
    NeuralCleanseConfig {
        steps: 8,
        sample_count: 6,
        seed: 9,
        ..NeuralCleanseConfig::default()
    }
}

pub fn beatrix_config() -> BeatrixConfig {
    BeatrixConfig {
        orders: vec![1, 2],
        samples_per_class: 10,
    }
}
