//! # hhpim-nn — TinyML model substrate
//!
//! The paper's benchmarks are INT8-quantized, pruned TinyML models
//! (Table IV). This crate provides everything needed to both *account*
//! for and *execute* such models:
//!
//! * [`Layer`] / [`Model`] — layer descriptors with shape inference,
//!   parameter/MAC counting, host-vs-PIM operation split and structured
//!   pruning,
//! * [`zoo`] — tiny EfficientNet-B0 / MobileNetV2 / ResNet-18 variants
//!   whose realized counts land within a few percent of Table IV, plus
//!   [`zoo::ModelSpec`] carrying the published numbers,
//! * [`QuantParams`] — symmetric INT8 quantization,
//! * [`QuantizedModel`] — a bit-exact integer-only executor used as the
//!   reference for PIM functional verification, over pseudo-random
//!   weights; [`LayerWeights::random`] draws one layer of the same
//!   weights on its own,
//! * [`Tensor`] — minimal CHW tensors.
//!
//! # Examples
//!
//! ```
//! use hhpim_nn::zoo::TinyMlModel;
//! let spec = TinyMlModel::EfficientNetB0.spec();
//! assert_eq!(spec.params, 95_000);
//! let model = TinyMlModel::EfficientNetB0.build();
//! // The constructed tiny variant tracks the published numbers.
//! let err = (model.total_macs() as f64 - spec.macs as f64).abs() / spec.macs as f64;
//! assert!(err < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod layer;
pub mod model;
pub mod quant;
pub mod tensor;
pub mod zoo;

pub use exec::{LayerWeights, QuantizedModel};
pub use layer::{Layer, Shape, ShapeError};
pub use model::{LayerInfo, Model};
pub use quant::QuantParams;
pub use tensor::Tensor;
pub use zoo::{ModelSpec, TinyMlModel};
