//! Layer-to-PIM compilation: maps quantized model layers onto the
//! cycle-level machine, distributing work across PIM modules exactly as
//! the paper distributes "each layer of a neural network across HP-PIM
//! and LP-PIM modules for parallel computation, with the final output
//! obtained by aggregating results from each module" (§III).
//!
//! Two fidelities coexist, per layer kind:
//!
//! * **Bit-exact heads** — a narrow final linear layer (≤ 255 input
//!   features) lowers via [`lower_head`] into a relocatable
//!   [`HeadPlan`] of real INT8 MAC bursts whose accumulators are
//!   checked against the software reference, the functional-
//!   verification role of the paper's FPGA prototype.
//! * **Traffic-accurate schedules** — every other PIM layer
//!   (convolutions, wide linears) lowers into a per-layer MAC *schedule*
//!   ([`CompiledProgram`]): the layer's PIM MACs are striped over the
//!   modules that hold its weights, issuing genuine `ClearAcc`/`Mac`
//!   bursts whose timing and energy come from per-access bank/PE
//!   metering. Operand values are irrelevant to timing and energy (the
//!   machine is data-independent), so schedules carry counts, not
//!   weights.
//!
//! So [`compile_model`] reads the [`Model`] descriptor for every layer
//! and weight values for the head alone: the caller hands over that one
//! layer's [`LayerWeights`], for instance drawn by
//! [`LayerWeights::random`] without materializing the rest of the
//! network.
//!
//! [`CycleBackend`](crate::CycleBackend) executes one
//! [`CompiledProgram`] per inference task, splitting each layer across
//! storage spaces according to the placement currently in effect.

use hhpim_isa::{MemSelect, ModuleMask, PimInstruction};
use hhpim_nn::{Layer, LayerWeights, Model};
use hhpim_pim::{MachineError, PimMachine};
use std::fmt;

/// Where compiled weights are placed inside each module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightHome {
    /// Non-volatile MRAM (the H-PIM default).
    Mram,
    /// SRAM (the peak-performance choice).
    Sram,
}

impl WeightHome {
    pub(crate) fn mem(self) -> MemSelect {
        match self {
            WeightHome::Mram => MemSelect::Mram,
            WeightHome::Sram => MemSelect::Sram,
        }
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The layer at the given index is not a Linear layer.
    NotLinear {
        /// Offending layer index.
        layer: usize,
    },
    /// The layer has no materialized weights.
    NoWeights {
        /// Offending layer index.
        layer: usize,
    },
    /// The weights handed over do not have the layer's shape.
    WeightShape {
        /// Offending layer index.
        layer: usize,
    },
    /// A row is too long for a single module pass (> activation region).
    RowTooLong {
        /// Input features required.
        in_features: usize,
    },
    /// The underlying machine rejected a preload or instruction.
    Machine(MachineError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotLinear { layer } => write!(f, "layer {layer} is not linear"),
            CompileError::NoWeights { layer } => write!(f, "layer {layer} has no weights"),
            CompileError::WeightShape { layer } => {
                write!(f, "weights do not match layer {layer}'s shape")
            }
            CompileError::RowTooLong { in_features } => {
                write!(f, "{in_features} input features exceed one module pass")
            }
            CompileError::Machine(e) => write!(f, "machine: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<MachineError> for CompileError {
    fn from(e: MachineError) -> Self {
        CompileError::Machine(e)
    }
}

/// How one model layer executes on the cycle machine.
#[derive(Debug, Clone)]
pub enum LayerOp {
    /// Traffic-accurate MAC schedule: `macs_per_task` multiply-
    /// accumulates issued as real bursts, striped across the modules of
    /// whichever spaces hold the weights at execution time.
    Schedule {
        /// PIM MACs this layer contributes per inference task.
        macs_per_task: u64,
    },
    /// Bit-exact classifier head executed through [`HeadPlan::run`].
    Head(HeadPlan),
}

/// One lowered layer of a [`CompiledProgram`].
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    /// Index of the layer in the source model.
    pub layer: usize,
    /// Human-readable layer label (e.g. `"conv3x3 -> 16 (s1 p0 g1)"`).
    pub label: String,
    /// How the layer executes.
    pub op: LayerOp,
}

/// A model lowered for per-task execution on the cycle machine: one
/// entry per PIM layer (host-side layers — pooling, activations,
/// residual adds — run outside the machine, as in the paper's
/// prototype).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    layers: Vec<CompiledLayer>,
    scheduled_macs: u64,
}

impl CompiledProgram {
    /// The lowered PIM layers in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// Total scheduled (traffic-level) MACs per task, excluding the
    /// bit-exact head.
    pub fn scheduled_macs(&self) -> u64 {
        self.scheduled_macs
    }

    /// The bit-exact head, if the model has one.
    pub fn head(&self) -> Option<&HeadPlan> {
        self.layers.iter().find_map(|l| match &l.op {
            LayerOp::Head(h) => Some(h),
            LayerOp::Schedule { .. } => None,
        })
    }
}

/// Lowers every PIM layer of `model` into a [`CompiledProgram`].
///
/// `pim_macs_per_task` is the workload profile's per-task PIM MAC count
/// (Table IV `#MAC × PIM-op ratio`); the built model's per-layer MAC
/// counts are scaled so the program's total matches it, keeping cycle
/// and analytic backends on the same MAC basis. The last linear layer
/// with ≤ 255 input features becomes the bit-exact [`HeadPlan`]; all
/// other conv/linear layers become traffic schedules.
///
/// Only the head reads weight values. `head_weights` is called once,
/// with the head's layer index, if the model has a head, and returns
/// that layer's weights: `|i| qm.layer_weights(i).cloned()` for a
/// [`QuantizedModel`](hhpim_nn::QuantizedModel) `qm`, or
/// `|i| LayerWeights::random(&model, i, seed)` to draw that one layer.
///
/// # Errors
///
/// Returns [`CompileError::NotLinear`] if the model has no PIM layer at
/// all, [`CompileError::NoWeights`] if `head_weights` returns `None`,
/// and [`lower_head`]'s errors for the head.
pub fn compile_model(
    model: &Model,
    pim_macs_per_task: u64,
    head_weights: impl FnOnce(usize) -> Option<LayerWeights>,
) -> Result<CompiledProgram, CompileError> {
    let infos = model.layers();
    let pim_layers: Vec<usize> = (0..infos.len())
        .filter(|&i| infos[i].layer.is_pim_layer())
        .collect();
    if pim_layers.is_empty() {
        return Err(CompileError::NotLinear { layer: 0 });
    }
    let head_idx = pim_layers.iter().rev().copied().find(|&i| {
        let (c, h, w) = infos[i].input;
        matches!(infos[i].layer, Layer::Linear { .. }) && (1..=255).contains(&(c * h * w))
    });
    let mut head = match head_idx {
        Some(i) => {
            let lw = head_weights(i).ok_or(CompileError::NoWeights { layer: i })?;
            Some((i, lower_head(model, i, &lw)?))
        }
        None => None,
    };
    let built_total: u64 = pim_layers.iter().map(|&i| infos[i].macs).sum();
    let scale = pim_macs_per_task as f64 / built_total.max(1) as f64;

    let mut layers = Vec::with_capacity(pim_layers.len());
    let mut scheduled = 0u64;
    for &i in &pim_layers {
        let op = if let Some((_, plan)) = head.take_if(|(h, _)| *h == i) {
            LayerOp::Head(plan)
        } else {
            let macs_per_task = (infos[i].macs as f64 * scale).round() as u64;
            scheduled += macs_per_task;
            LayerOp::Schedule { macs_per_task }
        };
        layers.push(CompiledLayer {
            layer: i,
            label: infos[i].layer.to_string(),
            op,
        });
    }
    Ok(CompiledProgram {
        layers,
        scheduled_macs: scheduled,
    })
}

/// A bit-exact classifier head, relocatable between memories: the rows
/// are kept host-side so the head can be re-installed after every
/// re-placement (the runtime's data allocator re-homes the whole
/// network, head included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadPlan {
    rows: Vec<Vec<u8>>,
    bias: Vec<i32>,
    in_features: usize,
}

impl HeadPlan {
    /// Input feature count (MACs per output neuron).
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output neuron count.
    pub fn out_features(&self) -> usize {
        self.rows.len()
    }

    /// Writes the head's weight rows into `home` of each module in
    /// `modules`, round-robin by neuron (host-side preload, untimed —
    /// the timed bulk movement is the migration traffic itself; the
    /// head is ~1 kB).
    ///
    /// # Errors
    ///
    /// Propagates machine range errors.
    pub fn install(
        &self,
        machine: &mut PimMachine,
        modules: &[usize],
        home: WeightHome,
    ) -> Result<(), CompileError> {
        assert!(!modules.is_empty(), "head needs at least one module");
        for (o, row) in self.rows.iter().enumerate() {
            let module = modules[o % modules.len()];
            let wave = o / modules.len();
            machine.preload(module, home.mem(), wave * self.in_features, row)?;
        }
        Ok(())
    }

    /// Executes the head for one input vector, returning the raw i32
    /// accumulators (bias applied). [`HeadPlan::install`] must have run
    /// for the same `(modules, home)` first.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    ///
    /// # Panics
    ///
    /// Panics if `input` length differs from `in_features` or `modules`
    /// is empty.
    pub fn run(
        &self,
        machine: &mut PimMachine,
        modules: &[usize],
        home: WeightHome,
        input: &[i8],
    ) -> Result<Vec<i32>, CompileError> {
        assert_eq!(input.len(), self.in_features, "input length mismatch");
        assert!(!modules.is_empty(), "head needs at least one module");
        let acts: Vec<u8> = input.iter().map(|&v| v as u8).collect();
        for &m in modules {
            machine.preload_activations(m, &acts)?;
        }
        let mut outputs = vec![0i32; self.out_features()];
        let waves = self.out_features().div_ceil(modules.len());
        for wave in 0..waves {
            let lo = wave * modules.len();
            let hi = (lo + modules.len()).min(self.out_features());
            let mut mask = ModuleMask::empty();
            for o in lo..hi {
                mask = mask.union(ModuleMask::single(modules[o % modules.len()] as u8));
            }
            machine.execute(PimInstruction::ClearAcc { modules: mask })?;
            machine.execute(PimInstruction::Mac {
                modules: mask,
                mem: home.mem(),
                addr: (wave * self.in_features) as u16,
                count: self.in_features as u8,
            })?;
            machine.execute(PimInstruction::Barrier)?;
            for o in lo..hi {
                let acc = machine
                    .module(modules[o % modules.len()])
                    .pe()
                    .accumulator();
                outputs[o] = acc + self.bias[o];
            }
        }
        Ok(outputs)
    }
}

/// Lowers linear layer `layer_idx` of `model`, with weights `lw`, into
/// a relocatable [`HeadPlan`]: one row of INT8 weights per output
/// neuron, plus the biases. No other layer's weights are needed.
///
/// # Errors
///
/// [`CompileError::NotLinear`] if the layer is missing or not linear,
/// [`CompileError::RowTooLong`] if it has more than 255 input features,
/// and [`CompileError::WeightShape`] if `lw` does not hold
/// `out_features × in_features` weights and `out_features` biases.
pub fn lower_head(
    model: &Model,
    layer_idx: usize,
    lw: &LayerWeights,
) -> Result<HeadPlan, CompileError> {
    let info = model
        .layers()
        .get(layer_idx)
        .ok_or(CompileError::NotLinear { layer: layer_idx })?;
    let Layer::Linear { out_features } = info.layer else {
        return Err(CompileError::NotLinear { layer: layer_idx });
    };
    let (c, h, w) = info.input;
    let in_features = c * h * w;
    if in_features > 255 {
        return Err(CompileError::RowTooLong { in_features });
    }
    if lw.weights.len() != out_features * in_features || lw.bias.len() != out_features {
        return Err(CompileError::WeightShape { layer: layer_idx });
    }
    let rows = (0..out_features)
        .map(|o| {
            lw.weights[o * in_features..(o + 1) * in_features]
                .iter()
                .map(|&v| v as u8)
                .collect()
        })
        .collect();
    Ok(HeadPlan {
        rows,
        bias: lw.bias.clone(),
        in_features,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Architecture, CycleBackend};
    use hhpim_nn::{QuantizedModel, TinyMlModel};
    use hhpim_pim::MachineConfig;

    fn fc_model(inf: usize, outf: usize) -> QuantizedModel {
        let model = Model::new(
            "fc",
            (inf, 1, 1),
            vec![Layer::Linear { out_features: outf }],
        )
        .unwrap();
        QuantizedModel::random(model, 77)
    }

    fn reference(qm: &QuantizedModel, layer: usize, input: &[i8]) -> Vec<i32> {
        let lw = qm.layer_weights(layer).unwrap();
        let n = input.len();
        (0..lw.bias.len())
            .map(|o| {
                lw.bias[o]
                    + input
                        .iter()
                        .enumerate()
                        .map(|(j, &a)| lw.weights[o * n + j] as i32 * a as i32)
                        .sum::<i32>()
            })
            .collect()
    }

    /// Lowers layer `layer` of `qm` with its materialized weights.
    fn head_of(qm: &QuantizedModel, layer: usize) -> Result<HeadPlan, CompileError> {
        let lw = qm.layer_weights(layer).expect("layer has weights");
        lower_head(qm.model(), layer, lw)
    }

    /// Lowers layer `layer` of `qm` and installs it in `home` of
    /// `modules` on a fresh default machine.
    fn installed(
        qm: &QuantizedModel,
        layer: usize,
        modules: &[usize],
        home: WeightHome,
    ) -> (HeadPlan, PimMachine) {
        let head = head_of(qm, layer).unwrap();
        let mut machine = PimMachine::new(MachineConfig::default());
        head.install(&mut machine, modules, home).unwrap();
        (head, machine)
    }

    const ALL: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    #[test]
    fn sram_home_gives_same_results_faster() {
        let qm = fc_model(24, 8);
        let input: Vec<i8> = (0..24).map(|i| i as i8 - 12).collect();
        let run = |home| {
            let (head, mut machine) = installed(&qm, 0, &ALL, home);
            let got = head.run(&mut machine, &ALL, home, &input).unwrap();
            (got, machine.report().finished_at)
        };
        let (r_mram, t_mram) = run(WeightHome::Mram);
        let (r_sram, t_sram) = run(WeightHome::Sram);
        assert_eq!(r_mram, r_sram, "placement must not change results");
        assert!(
            t_sram < t_mram,
            "SRAM weights must be faster: {t_sram} vs {t_mram}"
        );
    }

    #[test]
    fn round_robin_spreads_neurons() {
        // 10 neurons take 2 waves over 8 modules but 10 on one module.
        let qm = fc_model(8, 10);
        let input: Vec<i8> = (0..8).map(|i| i as i8 * 3 - 9).collect();
        let run = |modules: &[usize]| {
            let (head, mut machine) = installed(&qm, 0, modules, WeightHome::Sram);
            let got = head.run(&mut machine, modules, WeightHome::Sram, &input);
            (got.unwrap(), machine.report().finished_at)
        };
        let (spread, t_spread) = run(&ALL);
        let (single, t_single) = run(&[0]);
        assert_eq!(spread, reference(&qm, 0, &input));
        assert_eq!(single, spread);
        assert!(t_spread < t_single, "{t_spread} vs {t_single}");
    }

    #[test]
    fn rejects_non_linear_and_long_rows() {
        let fc = fc_model(4, 2);
        let lw = fc.layer_weights(0).unwrap();
        let relu = Model::new("r", (4, 1, 1), vec![Layer::Relu]).unwrap();
        assert!(matches!(
            lower_head(&relu, 0, lw),
            Err(CompileError::NotLinear { layer: 0 })
        ));
        assert!(matches!(
            lower_head(fc.model(), 1, lw),
            Err(CompileError::NotLinear { layer: 1 })
        ));
        assert!(matches!(
            head_of(&fc_model(300, 2), 0),
            Err(CompileError::RowTooLong { in_features: 300 })
        ));
    }

    #[test]
    fn rejects_weights_of_another_shape() {
        let fc = fc_model(4, 2);
        let lw = fc.layer_weights(0).unwrap();
        let short = LayerWeights {
            weights: lw.weights[1..].to_vec(),
            ..lw.clone()
        };
        let no_bias = LayerWeights {
            bias: Vec::new(),
            ..lw.clone()
        };
        for bad in [short, no_bias] {
            assert!(matches!(
                lower_head(fc.model(), 0, &bad),
                Err(CompileError::WeightShape { layer: 0 })
            ));
        }
    }

    #[test]
    fn compile_model_scales_schedule_to_profile_macs() {
        let model = hhpim_nn::TinyMlModel::MobileNetV2;
        let qm = QuantizedModel::random(model.build(), 3);
        let pim_macs = model.spec().pim_macs();
        let program =
            compile_model(qm.model(), pim_macs, |i| qm.layer_weights(i).cloned()).unwrap();
        assert!(program.head().is_some(), "MobileNet has a narrow head");
        let head_macs = {
            let h = program.head().unwrap();
            (h.in_features() * h.out_features()) as u64
        };
        // Scheduled MACs + (scaled) head MACs land on the profile total
        // within per-layer rounding.
        let total = program.scheduled_macs() + head_macs;
        let rel = (total as f64 - pim_macs as f64).abs() / pim_macs as f64;
        assert!(rel < 0.01, "program {total} vs profile {pim_macs}");
        // Layers come out in model order and are all PIM layers.
        let idxs: Vec<usize> = program.layers().iter().map(|l| l.layer).collect();
        assert!(idxs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn compiled_layer_matches_reference_across_all_modules() {
        let qm = fc_model(32, 20); // 20 neurons over 8 modules: 3 waves
        let (head, mut machine) = installed(&qm, 0, &ALL, WeightHome::Mram);
        let input: Vec<i8> = (0..32).map(|i| ((i * 11) % 63) as i8 - 31).collect();
        let got = head.run(&mut machine, &ALL, WeightHome::Mram, &input);
        assert_eq!(got.unwrap(), reference(&qm, 0, &input));
    }

    #[test]
    fn multiple_inputs_reuse_compiled_weights() {
        let qm = fc_model(16, 6);
        let (head, mut machine) = installed(&qm, 0, &ALL, WeightHome::Mram);
        for seed in 0..4i8 {
            let input: Vec<i8> = (0..16).map(|i| (i as i8).wrapping_mul(seed + 1)).collect();
            let got = head.run(&mut machine, &ALL, WeightHome::Mram, &input);
            assert_eq!(got.unwrap(), reference(&qm, 0, &input), "seed {seed}");
        }
    }

    #[test]
    fn zoo_classifier_head_runs_on_machine() {
        // The real MobileNetV2-tiny classifier head (88 -> 10) executed
        // on the cycle-level machine, cross-checked with the reference.
        let model = hhpim_nn::zoo::mobilenet_v2_tiny();
        let head_idx = model.layers().len() - 1;
        let qm = QuantizedModel::random(model, 3);
        let (head, mut machine) = installed(&qm, head_idx, &ALL, WeightHome::Mram);
        assert_eq!((head.in_features(), head.out_features()), (88, 10));
        let input: Vec<i8> = (0..88).map(|i| ((i * 29) % 100) as i8 - 50).collect();
        let got = head.run(&mut machine, &ALL, WeightHome::Mram, &input);
        assert_eq!(got.unwrap(), reference(&qm, head_idx, &input));
    }

    #[test]
    fn head_plan_matches_reference_and_relocates() {
        let qm = fc_model(32, 10);
        let input: Vec<i8> = (0..32).map(|i| ((i * 13) % 64) as i8 - 32).collect();
        let expect = reference(&qm, 0, &input);
        let (head, mut machine) = installed(&qm, 0, &ALL, WeightHome::Mram);
        let got = head.run(&mut machine, &ALL, WeightHome::Mram, &input);
        assert_eq!(got.unwrap(), expect);
        // Re-home into SRAM on a subset of modules: same results.
        let subset = [0, 1, 2, 3];
        head.install(&mut machine, &subset, WeightHome::Sram)
            .unwrap();
        let got = head.run(&mut machine, &subset, WeightHome::Sram, &input);
        assert_eq!(got.unwrap(), expect, "placement must not change results");
    }

    #[test]
    fn compile_model_rejects_host_only_stacks() {
        let model = Model::new("r", (4, 1, 1), vec![Layer::Relu]).unwrap();
        assert!(matches!(
            compile_model(&model, 1000, |_| None),
            Err(CompileError::NotLinear { layer: 0 })
        ));
    }

    #[test]
    fn compile_model_needs_the_heads_weights() {
        let qm = fc_model(8, 2);
        assert!(matches!(
            compile_model(qm.model(), 1000, |_| None),
            Err(CompileError::NoWeights { layer: 0 })
        ));
        let program = compile_model(qm.model(), 1000, |i| qm.layer_weights(i).cloned()).unwrap();
        assert_eq!(program.head(), Some(&head_of(&qm, 0).unwrap()));
    }

    #[test]
    fn cycle_backend_head_equals_the_whole_random_models_head() {
        // The backend draws only the head's weights; they must be the
        // bytes the whole network drawn at the same seed gives it.
        for model in TinyMlModel::ALL {
            let backend = CycleBackend::new(Architecture::HhPim, model).unwrap();
            let program = backend.program();
            let idx = program
                .layers()
                .iter()
                .find(|l| matches!(l.op, LayerOp::Head(_)))
                .map(|l| l.layer)
                .expect("every zoo model has a narrow head");
            let qm = QuantizedModel::random(model.build(), 0xDAC);
            assert_eq!(program.head(), Some(&head_of(&qm, idx).unwrap()), "{model}");
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CompileError::RowTooLong { in_features: 300 }.to_string(),
            "300 input features exceed one module pass"
        );
        assert!(CompileError::NotLinear { layer: 2 }
            .to_string()
            .contains("layer 2"));
        assert!(CompileError::WeightShape { layer: 3 }
            .to_string()
            .contains("layer 3"));
    }
}
