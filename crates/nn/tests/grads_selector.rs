//! The `Grads` selector contract, checked on every layer type and every
//! model family:
//!
//! * `InputOnly` writes an input gradient bit-identical to `All`'s and
//!   leaves every parameter gradient untouched (a sentinel survives bit for
//!   bit);
//! * `ParamsOnly` accumulates parameter gradients bit-identical to `All`'s.
//!
//! Each check runs in both modes: batch norm's input gradient reads its
//! `dγ/dβ` sums in `Train` mode only.

use reveil_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, InvertedResidual, Linear,
    MaxPool2d, Relu, Relu6, ResidualBlock, Sigmoid, Silu, SqueezeExcite,
};
use reveil_nn::models::ModelFamily;
use reveil_nn::{Grads, Layer, Mode, Network, Param, Sequential};
use reveil_tensor::{rng, Tensor};

/// A value no backward pass writes into a parameter gradient.
const SENTINEL: f32 = -7.25;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn probe(shape: &[usize], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(shape);
    rng::fill_gaussian(&mut t, 0.1, 0.5, &mut rng::rng_from_seed(seed));
    t
}

/// What the check drives: a single layer or a whole network.
trait Differentiable {
    fn forward_shape(&mut self, x: &Tensor, mode: Mode) -> Vec<usize>;
    fn backward(&mut self, g: &Tensor, grads: Grads, dx: &mut Tensor);
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    fn grad_bits(&mut self) -> Vec<u32> {
        let mut all = Vec::new();
        self.visit_params(&mut |p| all.extend(bits(p.grad())));
        all
    }
}

impl Differentiable for Box<dyn Layer> {
    fn forward_shape(&mut self, x: &Tensor, mode: Mode) -> Vec<usize> {
        self.forward(x, mode).shape().to_vec()
    }

    fn backward(&mut self, g: &Tensor, grads: Grads, dx: &mut Tensor) {
        self.backward_into(g, grads, dx);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.as_mut().visit_params(f);
    }
}

impl Differentiable for Network {
    fn forward_shape(&mut self, x: &Tensor, mode: Mode) -> Vec<usize> {
        self.forward(x, mode).shape().to_vec()
    }

    fn backward(&mut self, g: &Tensor, grads: Grads, dx: &mut Tensor) {
        self.backward_into(g, grads, dx);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        Network::visit_params(self, f);
    }
}

/// Runs a forward pass and a full backward pass with a gradient unlike the
/// checked one, so a selected pass that reads stale layer scratch instead
/// of recomputing it shows up as a mismatch.
fn pollute(model: &mut dyn Differentiable, x: &Tensor, mode: Mode, out_shape: &[usize]) {
    let other = Tensor::from_fn(out_shape, |i| ((i * 5 % 13) as f32 - 6.0) * 0.3);
    model.forward_shape(x, mode);
    model.backward(&other, Grads::All, &mut Tensor::default());
    model.forward_shape(x, mode);
}

fn check_selectors(what: &str, model: &mut dyn Differentiable, x: &Tensor) {
    for mode in [Mode::Train, Mode::Eval] {
        let out_shape = model.forward_shape(x, mode);
        let g = Tensor::from_fn(&out_shape, |i| ((i * 7 % 11) as f32 - 5.0) * 0.1);
        model.visit_params(&mut |p| p.zero_grad());
        let mut dx_all = Tensor::default();
        model.backward(&g, Grads::All, &mut dx_all);
        let grads_all = model.grad_bits();

        pollute(model, x, mode, &out_shape);
        model.visit_params(&mut |p| p.grad_mut().data_mut().fill(SENTINEL));
        let mut dx_input = Tensor::default();
        model.backward(&g, Grads::InputOnly, &mut dx_input);
        assert_eq!(
            dx_input.shape(),
            dx_all.shape(),
            "{what} ({mode:?}): InputOnly input-gradient shape"
        );
        assert!(
            bits(&dx_input) == bits(&dx_all),
            "{what} ({mode:?}): InputOnly input gradient differs from All"
        );
        assert!(
            model.grad_bits().iter().all(|&b| b == SENTINEL.to_bits()),
            "{what} ({mode:?}): InputOnly touched a parameter gradient"
        );

        pollute(model, x, mode, &out_shape);
        model.visit_params(&mut |p| p.zero_grad());
        let mut dx_params = Tensor::default();
        model.backward(&g, Grads::ParamsOnly, &mut dx_params);
        assert!(
            model.grad_bits() == grads_all,
            "{what} ({mode:?}): ParamsOnly parameter gradients differ from All"
        );
    }
}

#[test]
fn every_layer_type_honours_the_selector() {
    let mut r = rng::rng_from_seed(41);
    let spatial = probe(&[3, 4, 6, 6], 1);
    let flat = probe(&[3, 10], 2);
    let layers: Vec<(&str, Box<dyn Layer>, &Tensor)> = vec![
        (
            "conv2d",
            Box::new(Conv2d::new(4, 5, 3, 2, 1, &mut r).unwrap()),
            &spatial,
        ),
        (
            "depthwise_conv2d",
            Box::new(DepthwiseConv2d::new(4, 3, 1, 1, &mut r).unwrap()),
            &spatial,
        ),
        (
            "linear",
            Box::new(Linear::new(10, 6, &mut r).unwrap()),
            &flat,
        ),
        (
            "batchnorm2d",
            Box::new(BatchNorm2d::new(4).unwrap()),
            &spatial,
        ),
        ("relu", Box::new(Relu::new()), &spatial),
        ("relu6", Box::new(Relu6::new()), &spatial),
        ("silu", Box::new(Silu::new()), &spatial),
        ("sigmoid", Box::new(Sigmoid::new()), &spatial),
        ("maxpool2d", Box::new(MaxPool2d::new(2).unwrap()), &spatial),
        ("global_avg_pool", Box::new(GlobalAvgPool::new()), &spatial),
        ("flatten", Box::new(Flatten::new()), &spatial),
        (
            "residual_block (identity shortcut)",
            Box::new(ResidualBlock::new(4, 4, 1, &mut r).unwrap()),
            &spatial,
        ),
        (
            "residual_block (projected shortcut)",
            Box::new(ResidualBlock::new(4, 6, 2, &mut r).unwrap()),
            &spatial,
        ),
        (
            "inverted_residual",
            Box::new(InvertedResidual::mobilenet(4, 4, 1, 2, &mut r).unwrap()),
            &spatial,
        ),
        (
            "mbconv",
            Box::new(InvertedResidual::mbconv(4, 4, 1, 2, &mut r).unwrap()),
            &spatial,
        ),
        (
            "squeeze_excite",
            Box::new(SqueezeExcite::new(4, 2, &mut r).unwrap()),
            &spatial,
        ),
        (
            "sequential",
            Box::new(
                Sequential::new()
                    .push(Conv2d::new(4, 4, 3, 1, 1, &mut r).unwrap())
                    .push(BatchNorm2d::new(4).unwrap())
                    .push(Relu::new()),
            ),
            &spatial,
        ),
    ];
    for (what, mut layer, x) in layers {
        check_selectors(what, &mut layer, x);
    }
}

#[test]
fn every_model_family_honours_the_selector() {
    let families = [
        ModelFamily::MlpProbe,
        ModelFamily::TinyCnn,
        ModelFamily::ResNetTiny,
        ModelFamily::MobileNetTiny,
        ModelFamily::EffNetTiny,
        ModelFamily::WideResNetTiny,
    ];
    let x = probe(&[2, 3, 8, 8], 3);
    for family in families {
        let mut net = family.build(3, 8, 8, 5, 4, 9);
        check_selectors(family.label(), &mut net, &x);
    }
}
