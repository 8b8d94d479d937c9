//! Golden pins for Neural Cleanse: FNV-1a fingerprints of fixed-seed
//! audit results.
//!
//! Each pin hashes the bits of every per-class `(mask_l1, loss)` pair plus
//! the anomaly index, flagged class and verdict of one audit. A refactor of
//! the backward pass, the kernels or the detector must leave these bits
//! unchanged; a change that moves them on purpose re-blesses the constant
//! with a written reason in the same commit.
//!
//! The constants are pinned to the toolchain and target CI builds with
//! (Rust 1.85+ on x86-64 Linux, `-C target-cpu=native` from
//! `.cargo/config.toml`). The arithmetic uses no fused or reassociated
//! floating point, so debug and release builds agree; a different target
//! libm (`exp`) could still move them.

mod common;

use common::{fixture, nc_config};
use reveil_defense::{neural_cleanse, NeuralCleanseReport};
use reveil_nn::models;
use reveil_nn::train::{TrainConfig, Trainer};

/// 64-bit FNV-1a over a stream of words, each fed as little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn report_fingerprint(report: &NeuralCleanseReport) -> u64 {
    let per_class = report.per_class.iter().flat_map(|r| {
        [
            r.class as u64,
            u64::from(r.mask_l1.to_bits()),
            u64::from(r.loss.to_bits()),
        ]
    });
    let verdict = [
        u64::from(report.anomaly_index.to_bits()),
        report.flagged_class as u64,
        u64::from(report.detected),
    ];
    fnv1a(per_class.chain(verdict))
}

#[test]
fn neural_cleanse_on_the_audit_fixture_is_pinned() {
    let (data, _suspects, mut net) = fixture();
    let report = neural_cleanse(&mut net, &data.images()[..16], &nc_config()).expect("NC audit");
    let got = report_fingerprint(&report);
    assert_eq!(
        got, GOLDEN_NC_TINY_CNN,
        "Neural Cleanse result drifted to {got:#018x}: {report:?}"
    );
}

#[test]
fn neural_cleanse_on_an_mbconv_network_is_pinned() {
    // Depthwise conv, eval-mode batch norm, SiLU and squeeze-excite all sit
    // on the input-gradient path here, unlike in the tiny CNN.
    let (data, _suspects, _) = fixture();
    let mut net = models::effnet_tiny(1, 8, 8, 2, 4, 5);
    Trainer::new(TrainConfig::new(2, 16, 5e-3).with_seed(6)).fit(
        &mut net,
        data.images(),
        data.labels(),
    );
    let report = neural_cleanse(&mut net, &data.images()[..16], &nc_config()).expect("NC audit");
    let got = report_fingerprint(&report);
    assert_eq!(
        got, GOLDEN_NC_EFFNET_TINY,
        "Neural Cleanse result drifted to {got:#018x}: {report:?}"
    );
}

const GOLDEN_NC_TINY_CNN: u64 = 0x2c9f_5156_f60f_cc84;
const GOLDEN_NC_EFFNET_TINY: u64 = 0x33b5_8ea3_9050_1f81;
