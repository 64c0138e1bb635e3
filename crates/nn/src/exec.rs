//! Functional INT8 inference executor.
//!
//! Executes a [`Model`] bit-exactly with integer-only arithmetic:
//! INT8 operands, i32 accumulation and power-of-two requantization
//! (`clamp(acc >> shift)`), the scheme a PIM PE implements cheaply.
//! This is the software *reference* against which the cycle-level PIM
//! machine is verified — the role the FPGA functional checks play in
//! §IV-A of the paper.

use crate::layer::Layer;
use crate::model::{LayerInfo, Model};
use crate::tensor::Tensor;
use core::fmt;

/// Weights for one parametric layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerWeights {
    /// Flat weights: conv `[oc][in_c/groups][k][k]`, linear `[out][in]`.
    pub weights: Vec<i8>,
    /// Per-output-channel i32 biases.
    pub bias: Vec<i32>,
    /// Right-shift applied to the accumulator before clamping to i8.
    pub shift: u32,
}

impl LayerWeights {
    /// The weights [`QuantizedModel::random`]`(model, seed)` gives layer
    /// `layer`, drawn without drawing any other layer: the generator
    /// jumps over the draws of the layers before it in O(log n) and then
    /// draws this layer's own. A caller that executes one layer
    /// bit-exactly needs only that layer's bytes.
    ///
    /// Returns `None` if `layer` is out of range or has no parameters.
    ///
    /// # Examples
    ///
    /// ```
    /// use hhpim_nn::{zoo, LayerWeights, QuantizedModel};
    /// let model = zoo::mobilenet_v2_tiny();
    /// let head = model.layers().len() - 1;
    /// let drawn = LayerWeights::random(&model, head, 42);
    /// let whole = QuantizedModel::random(model, 42);
    /// assert_eq!(drawn.as_ref(), whole.layer_weights(head));
    /// ```
    pub fn random(model: &Model, layer: usize, seed: u64) -> Option<LayerWeights> {
        let info = model.layers().get(layer).filter(|i| i.params > 0)?;
        let skipped: usize = model.layers()[..layer].iter().map(|i| i.params).sum();
        let mut rng = XorShift::new(seed);
        rng.jump(skipped as u64);
        draw_layer(info, &mut rng)
    }
}

/// A model with materialized weights, executable on CPU.
///
/// [`QuantizedModel::random`] draws every layer's weights. A caller
/// that needs only some layers' values (the cycle backend executes just
/// the classifier head bit-exactly) draws each of them with
/// [`LayerWeights::random`], which yields the same bytes.
///
/// # Examples
///
/// ```
/// use hhpim_nn::{zoo, QuantizedModel, Tensor};
/// let model = zoo::mobilenet_v2_tiny();
/// let qm = QuantizedModel::random(model, 42);
/// let (c, h, w) = qm.model().input_shape();
/// let logits = qm.infer(&Tensor::zeros(c, h, w));
/// assert_eq!(logits.shape(), (10, 1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    model: Model,
    weights: Vec<Option<LayerWeights>>,
}

/// Deterministic xorshift64* generator for reproducible weights without
/// an RNG dependency.
#[derive(Debug, Clone)]
struct XorShift(u64);

/// The generator's state update. It is linear over GF(2): each output
/// bit is the XOR of some input bits.
const fn xorshift_step(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A 64×64 matrix over GF(2), stored by column: entry `i` is the image
/// of the state with only bit `i` set.
type BitMatrix = [u64; 64];

/// `m · v` over GF(2): the XOR of the columns selected by `v`'s bits.
const fn mat_vec(m: &BitMatrix, v: u64) -> u64 {
    let mut out = 0;
    let mut i = 0;
    while i < 64 {
        if (v >> i) & 1 == 1 {
            out ^= m[i];
        }
        i += 1;
    }
    out
}

/// `STEP_POWERS[k]` is the matrix of `2^k` generator steps, built at
/// compile time by repeated squaring of the one-step matrix (32 KiB of
/// read-only data).
static STEP_POWERS: [BitMatrix; 64] = {
    let mut powers = [[0u64; 64]; 64];
    let mut i = 0;
    while i < 64 {
        powers[0][i] = xorshift_step(1 << i);
        i += 1;
    }
    let mut k = 1;
    while k < 64 {
        let mut i = 0;
        while i < 64 {
            powers[k][i] = mat_vec(&powers[k - 1], powers[k - 1][i]);
            i += 1;
        }
        k += 1;
    }
    powers
};

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = xorshift_step(self.0);
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Advances the state by `n` steps, as `n` calls of
    /// [`XorShift::next`] would, with one matrix-vector product per set
    /// bit of `n`: `n` steps are the product of the [`STEP_POWERS`] its
    /// bits select.
    fn jump(&mut self, n: u64) {
        for (k, power) in STEP_POWERS.iter().enumerate() {
            if n >> k & 1 == 1 {
                self.0 = mat_vec(power, self.0);
            }
        }
    }

    fn next_i8(&mut self, span: i8) -> i8 {
        let span = span.max(1) as i64;
        ((self.next() % (2 * span as u64 + 1)) as i64 - span) as i8
    }
}

/// Draws `info`'s weights, then its biases, from `rng`; `None` for a
/// layer without parameters. It takes exactly `info.params` draws, which
/// is what lets [`LayerWeights::random`] jump over earlier layers.
fn draw_layer(info: &LayerInfo, rng: &mut XorShift) -> Option<LayerWeights> {
    if info.params == 0 {
        return None;
    }
    let (out_ch, n_weights) = match info.layer {
        Layer::Conv2d {
            out_channels,
            kernel,
            groups,
            ..
        } => {
            let icg = info.input.0 / groups.max(1);
            (out_channels, out_channels * icg * kernel * kernel)
        }
        Layer::Linear { out_features } => {
            let (c, h, w) = info.input;
            (out_features, out_features * c * h * w)
        }
        _ => unreachable!("only conv/linear layers have params"),
    };
    debug_assert_eq!(n_weights + out_ch, info.params, "one draw per parameter");
    Some(LayerWeights {
        weights: (0..n_weights).map(|_| rng.next_i8(32)).collect(),
        bias: (0..out_ch).map(|_| rng.next_i8(64) as i32).collect(),
        shift: 7,
    })
}

fn saturate(acc: i32, shift: u32) -> i8 {
    (acc >> shift).clamp(-128, 127) as i8
}

impl QuantizedModel {
    /// Materializes deterministic pseudo-random weights for `model`.
    ///
    /// Weights are drawn from `[-32, 32]`, biases from `[-64, 64]`, and
    /// every layer uses requantization shift 7 — values that keep
    /// activations well-distributed through deep stacks. One xorshift64*
    /// stream seeded by `seed` fills the layers in order, each layer's
    /// weights before its biases. [`LayerWeights::random`] draws a single
    /// layer from the same stream without materializing the rest.
    pub fn random(model: Model, seed: u64) -> Self {
        let mut rng = XorShift::new(seed);
        let weights = model
            .layers()
            .iter()
            .map(|info| draw_layer(info, &mut rng))
            .collect();
        QuantizedModel { model, weights }
    }

    /// The underlying model descriptor.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Weights of layer `idx`, if it is parametric.
    pub fn layer_weights(&self, idx: usize) -> Option<&LayerWeights> {
        self.weights.get(idx).and_then(|w| w.as_ref())
    }

    /// Runs inference, returning the final activation tensor.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape differs from the model's input shape.
    pub fn infer(&self, input: &Tensor<i8>) -> Tensor<i8> {
        self.infer_trace(input)
            .into_iter()
            .next_back()
            .unwrap_or_else(|| input.clone())
    }

    /// Runs inference, returning every layer's output (index-aligned with
    /// [`Model::layers`]). Useful for cross-checking the PIM machine
    /// layer by layer.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape differs from the model's input shape.
    pub fn infer_trace(&self, input: &Tensor<i8>) -> Vec<Tensor<i8>> {
        assert_eq!(
            input.shape(),
            self.model.input_shape(),
            "input shape mismatch"
        );
        let mut outputs: Vec<Tensor<i8>> = Vec::with_capacity(self.model.layers().len());
        for (i, info) in self.model.layers().iter().enumerate() {
            let src = if i == 0 { input } else { &outputs[i - 1] };
            let out = match info.layer {
                Layer::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    groups,
                } => self.conv(
                    src,
                    self.weights[i].as_ref().expect("conv has weights"),
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    groups,
                ),
                Layer::Linear { out_features } => self.linear(
                    src,
                    self.weights[i].as_ref().expect("linear has weights"),
                    out_features,
                ),
                Layer::Relu => {
                    let mut t = src.clone();
                    for v in t.as_mut_slice() {
                        *v = (*v).max(0);
                    }
                    t
                }
                Layer::AvgPool { kernel, stride } => pool(src, kernel, stride, false),
                Layer::MaxPool { kernel, stride } => pool(src, kernel, stride, true),
                Layer::GlobalAvgPool => {
                    let (c, h, w) = src.shape();
                    let mut out = Tensor::zeros(c, 1, 1);
                    for ch in 0..c {
                        let mut sum = 0i32;
                        for y in 0..h {
                            for x in 0..w {
                                sum += *src.at(ch, y, x) as i32;
                            }
                        }
                        *out.at_mut(ch, 0, 0) = (sum / (h * w) as i32).clamp(-128, 127) as i8;
                    }
                    out
                }
                Layer::ResidualAdd { depth } => {
                    let other: &Tensor<i8> = if depth == i + 1 {
                        input
                    } else {
                        &outputs[i - depth]
                    };
                    let mut t = src.clone();
                    for (v, o) in t.as_mut_slice().iter_mut().zip(other.as_slice()) {
                        *v = v.saturating_add(*o);
                    }
                    t
                }
            };
            debug_assert_eq!(out.shape(), info.output, "layer {i} shape mismatch");
            outputs.push(out);
        }
        outputs
    }

    #[allow(clippy::too_many_arguments)]
    fn conv(
        &self,
        src: &Tensor<i8>,
        lw: &LayerWeights,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Tensor<i8> {
        let (in_c, in_h, in_w) = src.shape();
        let icg = in_c / groups;
        let ocg = out_channels / groups;
        let oh = (in_h + 2 * padding - kernel) / stride + 1;
        let ow = (in_w + 2 * padding - kernel) / stride + 1;
        let mut out = Tensor::zeros(out_channels, oh, ow);
        for oc in 0..out_channels {
            let group = oc / ocg;
            let w_base = oc * icg * kernel * kernel;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = lw.bias[oc];
                    for ic_off in 0..icg {
                        let ic = group * icg + ic_off;
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                let iy = (oy * stride + ky) as isize - padding as isize;
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                let a = src.at_padded(ic, iy, ix) as i32;
                                let w = lw.weights[w_base + (ic_off * kernel + ky) * kernel + kx]
                                    as i32;
                                acc += w * a;
                            }
                        }
                    }
                    *out.at_mut(oc, oy, ox) = saturate(acc, lw.shift);
                }
            }
        }
        out
    }

    fn linear(&self, src: &Tensor<i8>, lw: &LayerWeights, out_features: usize) -> Tensor<i8> {
        let flat = src.as_slice();
        let n = flat.len();
        let mut out = Tensor::zeros(out_features, 1, 1);
        for o in 0..out_features {
            let mut acc = lw.bias[o];
            for (j, &a) in flat.iter().enumerate() {
                acc += lw.weights[o * n + j] as i32 * a as i32;
            }
            *out.at_mut(o, 0, 0) = saturate(acc, lw.shift);
        }
        out
    }
}

fn pool(src: &Tensor<i8>, kernel: usize, stride: usize, is_max: bool) -> Tensor<i8> {
    let (c, h, w) = src.shape();
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut out = Tensor::zeros(c, oh, ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut max = i8::MIN;
                let mut sum = 0i32;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let v = *src.at(ch, oy * stride + ky, ox * stride + kx);
                        max = max.max(v);
                        sum += v as i32;
                    }
                }
                *out.at_mut(ch, oy, ox) = if is_max {
                    max
                } else {
                    (sum / (kernel * kernel) as i32).clamp(-128, 127) as i8
                };
            }
        }
    }
    out
}

impl fmt::Display for QuantizedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "quantized {}", self.model.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{conv, pointwise};

    fn tiny_model() -> Model {
        Model::new(
            "t",
            (2, 4, 4),
            vec![
                conv(4, 3, 1),
                Layer::Relu,
                Layer::MaxPool {
                    kernel: 2,
                    stride: 2,
                },
                pointwise(4),
                Layer::ResidualAdd { depth: 1 },
                Layer::GlobalAvgPool,
                Layer::Linear { out_features: 3 },
            ],
        )
        .unwrap()
    }

    /// FNV-1a over every layer's weights, biases and shift, in layer
    /// order, with a marker byte for layers without parameters.
    fn weights_digest(qm: &QuantizedModel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for lw in &qm.weights {
            match lw {
                None => eat(&[0]),
                Some(lw) => {
                    eat(&[1]);
                    for &w in &lw.weights {
                        eat(&[w as u8]);
                    }
                    for b in &lw.bias {
                        eat(&b.to_le_bytes());
                    }
                    eat(&lw.shift.to_le_bytes());
                }
            }
        }
        h
    }

    #[test]
    fn jump_equals_single_steps() {
        for seed in [1, 0xDAC, u64::MAX] {
            for n in [0u64, 1, 2, 63, 64, 65, 1_000, (1 << 18) + 7] {
                let mut jumped = XorShift::new(seed);
                jumped.jump(n);
                let mut stepped = XorShift::new(seed);
                for _ in 0..n {
                    stepped.next();
                }
                assert_eq!(jumped.0, stepped.0, "seed {seed:#x}, n {n}");
            }
        }
    }

    #[test]
    fn single_layer_draw_equals_whole_model_draw() {
        for m in crate::zoo::TinyMlModel::ALL {
            for seed in [0xDAC, 5] {
                let qm = QuantizedModel::random(m.build(), seed);
                let layers = qm.model().layers().len();
                for i in 0..=layers {
                    assert_eq!(
                        LayerWeights::random(qm.model(), i, seed).as_ref(),
                        qm.layer_weights(i),
                        "{m}, seed {seed:#x}, layer {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_weights_are_pinned() {
        // A change to the draw order, the value ranges or the generator
        // moves these, and with them every test, example and gate entry
        // that infers with random weights.
        let pinned = [
            (
                crate::zoo::TinyMlModel::EfficientNetB0,
                0x27ff_6805_3547_4ab5,
            ),
            (crate::zoo::TinyMlModel::MobileNetV2, 0xe672_1090_6624_7bfc),
            (crate::zoo::TinyMlModel::ResNet18, 0xd587_ecc3_89cf_0865),
        ];
        for (m, digest) in pinned {
            let qm = QuantizedModel::random(m.build(), 0xDAC);
            assert_eq!(weights_digest(&qm), digest, "{m}");
        }
    }

    #[test]
    fn inference_shapes_follow_model() {
        let qm = QuantizedModel::random(tiny_model(), 7);
        let outs = qm.infer_trace(&Tensor::zeros(2, 4, 4));
        let expected: Vec<_> = qm.model().layers().iter().map(|i| i.output).collect();
        let got: Vec<_> = outs.iter().map(|t| t.shape()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = QuantizedModel::random(tiny_model(), 99);
        let b = QuantizedModel::random(tiny_model(), 99);
        let mut input = Tensor::zeros(2, 4, 4);
        for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
            *v = (i as i8).wrapping_mul(3);
        }
        assert_eq!(a.infer(&input), b.infer(&input));
        // Different seed → different weights (overwhelmingly likely).
        let c = QuantizedModel::random(tiny_model(), 100);
        assert_ne!(
            a.layer_weights(0).unwrap().weights,
            c.layer_weights(0).unwrap().weights
        );
    }

    #[test]
    fn conv_hand_check() {
        // 1 input channel, 1 output channel, 1x1 kernel, weight 2, bias 1,
        // shift 0: out = 2*in + 1.
        let model = Model::new(
            "c",
            (1, 2, 2),
            vec![Layer::Conv2d {
                out_channels: 1,
                kernel: 1,
                stride: 1,
                padding: 0,
                groups: 1,
            }],
        )
        .unwrap();
        let mut qm = QuantizedModel::random(model, 1);
        qm.weights[0] = Some(LayerWeights {
            weights: vec![2],
            bias: vec![1],
            shift: 0,
        });
        let input = Tensor::from_vec(1, 2, 2, vec![1i8, 2, 3, -4]);
        let out = qm.infer(&input);
        assert_eq!(out.as_slice(), &[3, 5, 7, -7]);
    }

    #[test]
    fn linear_hand_check() {
        let model = Model::new("l", (3, 1, 1), vec![Layer::Linear { out_features: 2 }]).unwrap();
        let mut qm = QuantizedModel::random(model, 1);
        qm.weights[0] = Some(LayerWeights {
            weights: vec![1, 2, 3, -1, -2, -3],
            bias: vec![0, 10],
            shift: 0,
        });
        let out = qm.infer(&Tensor::from_vec(3, 1, 1, vec![1i8, 1, 1]));
        assert_eq!(out.as_slice(), &[6, 4]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let model = Model::new("r", (1, 1, 3), vec![Layer::Relu]).unwrap();
        let qm = QuantizedModel::random(model, 1);
        let out = qm.infer(&Tensor::from_vec(1, 1, 3, vec![-5i8, 0, 5]));
        assert_eq!(out.as_slice(), &[0, 0, 5]);
    }

    #[test]
    fn residual_add_saturates() {
        let model = Model::new(
            "a",
            (1, 1, 2),
            vec![Layer::Relu, Layer::ResidualAdd { depth: 2 }],
        )
        .unwrap();
        let qm = QuantizedModel::random(model, 1);
        let out = qm.infer(&Tensor::from_vec(1, 1, 2, vec![100i8, -100]));
        // relu: [100, 0]; add input: [200→127 saturated, -100].
        assert_eq!(out.as_slice(), &[127, -100]);
    }

    #[test]
    fn depthwise_conv_groups() {
        let model = Model::new(
            "dw",
            (2, 1, 1),
            vec![Layer::Conv2d {
                out_channels: 2,
                kernel: 1,
                stride: 1,
                padding: 0,
                groups: 2,
            }],
        )
        .unwrap();
        let mut qm = QuantizedModel::random(model, 1);
        qm.weights[0] = Some(LayerWeights {
            weights: vec![3, 5],
            bias: vec![0, 0],
            shift: 0,
        });
        let out = qm.infer(&Tensor::from_vec(2, 1, 1, vec![2i8, 2]));
        // Channel 0 sees only input 0, channel 1 only input 1.
        assert_eq!(out.as_slice(), &[6, 10]);
    }

    #[test]
    fn zoo_models_execute_end_to_end() {
        for m in crate::zoo::TinyMlModel::ALL {
            let model = m.build();
            let (c, h, w) = model.input_shape();
            let qm = QuantizedModel::random(model, 5);
            let mut input = Tensor::zeros(c, h, w);
            for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 37) % 160) as i8;
            }
            let out = qm.infer(&input);
            assert_eq!(out.shape(), (10, 1, 1), "{m}");
        }
    }

    #[test]
    fn pooling_behaviour() {
        let model = Model::new(
            "p",
            (1, 2, 2),
            vec![Layer::AvgPool {
                kernel: 2,
                stride: 2,
            }],
        )
        .unwrap();
        let qm = QuantizedModel::random(model, 1);
        let out = qm.infer(&Tensor::from_vec(1, 2, 2, vec![1i8, 3, 5, 7]));
        assert_eq!(out.as_slice(), &[4]);
    }
}
