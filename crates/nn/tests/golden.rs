//! Golden pins for training: FNV-1a fingerprints of the `state_vec` each
//! model family reaches after a short fixed-seed Adam fit.
//!
//! A refactor of the layers, the backward pass, the optimizers or the
//! kernels must leave these bits unchanged; a change that moves them on
//! purpose re-blesses the constants with a written reason in the same
//! commit.
//!
//! The constants are pinned to the toolchain and target CI builds with
//! (Rust 1.85+ on x86-64 Linux, `-C target-cpu=native` from
//! `.cargo/config.toml`). The arithmetic uses no fused or reassociated
//! floating point, so debug and release builds agree; a different target
//! libm (`exp`, `sqrt`) could still move them.

use reveil_nn::models::ModelFamily;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_tensor::{rng, Tensor};

/// 64-bit FNV-1a over the little-endian bytes of `f32` bit patterns.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Three noisy constant-level classes of `[3, 8, 8]` images.
fn toy_data() -> (Vec<Tensor>, Vec<usize>) {
    let mut r = rng::rng_from_seed(77);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        let class = i % 3;
        let level = 0.2 + 0.3 * class as f32;
        let mut img = Tensor::zeros(&[3, 8, 8]);
        rng::fill_gaussian(&mut img, level, 0.1, &mut r);
        images.push(img);
        labels.push(class);
    }
    (images, labels)
}

const GOLDEN_STATE: [(ModelFamily, u64); 6] = [
    (ModelFamily::MlpProbe, 0x6f52_decc_5989_bc0a),
    (ModelFamily::TinyCnn, 0xf2d4_ef61_586e_f2c9),
    (ModelFamily::ResNetTiny, 0x920a_c8e6_aa84_c315),
    (ModelFamily::MobileNetTiny, 0x2186_7e5c_dddf_a66e),
    (ModelFamily::EffNetTiny, 0x033e_a490_176f_e008),
    (ModelFamily::WideResNetTiny, 0x5a8a_5636_bfa4_c11f),
];

#[test]
fn trained_state_of_every_family_is_pinned() {
    let (images, labels) = toy_data();
    let config = TrainConfig::new(2, 8, 5e-3)
        .with_weight_decay(1e-4)
        .with_cosine_schedule(2)
        .with_seed(11);
    let mut drifted = Vec::new();
    for (family, golden) in GOLDEN_STATE {
        let mut net = family.build(3, 8, 8, 3, 4, 19);
        Trainer::new(config.clone()).fit(&mut net, &images, &labels);
        let got = fnv1a(&net.state_vec());
        if got != golden {
            drifted.push(format!("{}: {got:#018x}", family.label()));
        }
    }
    assert!(
        drifted.is_empty(),
        "trained state drifted from the golden pins: {drifted:?}"
    );
}
