//! Property tests for the RNN crate's backend-equivalence and cell
//! invariants.

use echo_check::{check, Gen};
use echo_graph::Operator;
use echo_rnn::{lstm_step_forward, CudnnLstmStack, FusedLstmLayer};
use echo_tensor::init::{seeded_rng, uniform};
use echo_tensor::{Shape, Tensor};

fn layer_inputs(t: usize, b: usize, h: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = seeded_rng(seed);
    vec![
        uniform(Shape::d3(t, b, h), 1.5, &mut rng),
        uniform(Shape::d2(4 * h, h), 0.7, &mut rng),
        uniform(Shape::d2(4 * h, h), 0.7, &mut rng),
        uniform(Shape::d1(4 * h), 0.3, &mut rng),
    ]
}

/// The LSTM hidden state is always inside (-1, 1) and the gates inside
/// their activation ranges, whatever the inputs.
#[test]
fn lstm_state_is_bounded() {
    let path = concat!(module_path!(), "::lstm_state_is_bounded");
    let gen = |g: &mut Gen| {
        let (b, h) = (g.range(1usize..5), g.range(1usize..8));
        (b, h, g.range(0u64..1000), g.range(0.1f32..8.0))
    };
    check(path, 24, gen, |(b, h, seed, scale)| {
        let mut rng = seeded_rng(seed);
        let x = uniform(Shape::d2(b, h), scale, &mut rng);
        let h0 = uniform(Shape::d2(b, h), scale, &mut rng);
        let c0 = uniform(Shape::d2(b, h), scale, &mut rng);
        let wx = uniform(Shape::d2(4 * h, h), scale, &mut rng);
        let wh = uniform(Shape::d2(4 * h, h), scale, &mut rng);
        let bias = uniform(Shape::d1(4 * h), scale, &mut rng);
        let (h_new, c_new, gates) = lstm_step_forward(&x, &h0, &c0, &wx, &wh, &bias).unwrap();
        assert!(h_new.max_abs() <= 1.0);
        assert!(gates.data().iter().all(|&g| (-1.0..=1.0).contains(&g)));
        // |c| can exceed 1 but is bounded by |c_prev| + 1 per step.
        assert!(c_new.max_abs() <= c0.max_abs() + 1.0 + 1e-5);
        true
    });
}

/// Draws `(t, b, h, seed)` for a layer's inputs.
fn layer_shape(g: &mut Gen) -> (usize, usize, usize, u64) {
    let (t, b) = (g.range(1usize..5), g.range(1usize..4));
    (t, b, g.range(1usize..6), g.range(0u64..500))
}

/// The eco-layout fused layer and the plain fused layer are numerically
/// identical for any shape (layout is a device-plane concern only).
#[test]
fn eco_layout_is_numerically_transparent() {
    let path = concat!(module_path!(), "::eco_layout_is_numerically_transparent");
    check(path, 24, layer_shape, |(t, b, h, seed)| {
        let ins = layer_inputs(t, b, h, seed);
        let refs: Vec<&Tensor> = ins.iter().collect();
        let plain = FusedLstmLayer::new(h).forward(&refs).unwrap().0;
        let eco = FusedLstmLayer::new(h)
            .with_eco_layout()
            .forward(&refs)
            .unwrap()
            .0;
        assert_eq!(plain, eco);
        true
    });
}

/// A 1-layer cuDNN stack equals a single fused layer exactly.
#[test]
fn cudnn_stack_of_one_equals_fused_layer() {
    let path = concat!(module_path!(), "::cudnn_stack_of_one_equals_fused_layer");
    check(path, 24, layer_shape, |(t, b, h, seed)| {
        let ins = layer_inputs(t, b, h, seed);
        let refs: Vec<&Tensor> = ins.iter().collect();
        let layer = FusedLstmLayer::new(h).forward(&refs).unwrap().0;
        let stack = CudnnLstmStack::new(h, 1).forward(&refs).unwrap().0;
        assert_eq!(layer, stack);
        true
    });
}

/// Zero input and zero state yield tanh-bounded but deterministic
/// bias-driven output; most importantly, no NaNs ever escape.
#[test]
fn no_nans_for_extreme_biases() {
    let path = concat!(module_path!(), "::no_nans_for_extreme_biases");
    let gen = |g: &mut Gen| (g.range(1usize..6), g.range(10.0f32..100.0));
    check(path, 24, gen, |(h, bias_scale)| {
        let b = 2usize;
        let x = Tensor::zeros(Shape::d2(b, h));
        let h0 = Tensor::zeros(Shape::d2(b, h));
        let c0 = Tensor::zeros(Shape::d2(b, h));
        let wx = Tensor::zeros(Shape::d2(4 * h, h));
        let wh = Tensor::zeros(Shape::d2(4 * h, h));
        let bias = Tensor::full(Shape::d1(4 * h), bias_scale);
        let (h_new, c_new, _) = lstm_step_forward(&x, &h0, &c0, &wx, &wh, &bias).unwrap();
        assert!(h_new.data().iter().all(|v| v.is_finite()));
        assert!(c_new.data().iter().all(|v| v.is_finite()));
        true
    });
}
