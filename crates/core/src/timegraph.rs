//! The flat, arena-allocated timing graph behind the cycle backend.
//!
//! The object-hierarchy execution path
//! (`CycleBackend`'s task loop over [`crate::CompiledProgram`]) is
//! faithful but interpretive: every task re-walks the compiled layers,
//! re-splits every schedule across the placement's occupied spaces,
//! re-resolves memory technologies per access, and pays a full
//! [`hhpim_pim::PimMachine::report`] (a `BTreeMap` ledger) per layer
//! for per-layer accounting. None of that varies between tasks of the
//! same slice — or between slices that share a placement.
//!
//! [`TimeGraph`] lowers the whole per-task instruction stream **once
//! per placement** into one contiguous node arena: a `Vec<Node>` whose
//! entries carry pre-split per-cluster module bits, pre-resolved
//! per-word latency/energy coefficients (via
//! [`hhpim_mem::ResolvedAccess`], looked up from the machine's banks at
//! build time), and pre-computed burst lengths. Replaying a task is a
//! pointer-bump walk over that arena driving the *same*
//! [`hhpim_pim::PimMachine`] through arithmetically identical
//! operations:
//!
//! * schedule streams run through `Cluster::mac_stream_resolved`, one
//!   call per cluster that charges the issue and streams every selected
//!   module through `PimModule::mac_stream_resolved` — the
//!   allocation-free, single-pass twin of the interpreted
//!   `PimMachine::mac_stream` path,
//! * the bit-exact head runs through `PimModule::mac_resolved`, which
//!   times each burst in the stream kernel's single checked pass and
//!   folds its INT8 products straight out of bank storage
//!   (bit-identical to a pair-by-pair fold by i32 wrapping
//!   associativity); the object walk's `PimModule::mac` delegates to it,
//! * barriers resynchronize against one barrier horizon, the latest
//!   instant any module or issue pipeline has been booked to, instead
//!   of re-scanning the module hierarchy,
//! * per-layer accounting uses [`hhpim_pim::PimMachine::probe`], whose
//!   total is bit-identical to `report().total_energy()` without
//!   building a ledger.
//!
//! The slice boundary around the replay reads the same probe, in both
//! execution modes: `total` gives the slice energy, and the
//! `mem_dynamic` deltas around a migration give its movement energy.
//! Apart from the growth of the stream's records, a replayed slice
//! that does not re-place allocates nothing.
//!
//! Because every replayed operation performs the same floating-point
//! additions in the same order as the object walk, the resulting
//! [`crate::ExecutionReport`]s are **bit-identical** — the equivalence
//! suite in this module asserts full `PartialEq` on reports and engine
//! event streams, keeping the object path alive as the oracle.
//!
//! Per-slice dynamic inputs do not invalidate the graph: the task count
//! only changes how many times the arena is replayed, and a
//! re-placement selects a different cached program (programs are keyed
//! by [`Placement`] in a small map). Only machine *geometry* would
//! invalidate lowering, and a backend's machine geometry is fixed at
//! construction.

use crate::arch::ArchSpec;
use crate::backend::BackendError;
use crate::compile::{CompileError, CompiledProgram, LayerOp, WeightHome};
use crate::engine::LayerAcc;
use crate::space::Placement;
use hhpim_isa::{MemSelect, ModuleMask};
use hhpim_mem::{AccessKind, ClusterClass, MemKind, ResolvedAccess};
use hhpim_pim::{Cluster, MachineError, ModuleError, PimMachine};
use hhpim_sim::SimTime;
use std::collections::HashMap;
use std::ops::Range;

/// Kind of one lowered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeOp {
    /// A traffic-level MAC stream on every selected module of one
    /// cluster (one compiled schedule split).
    Stream,
    /// Host-side preload of the head's activation vector into every
    /// head module (untimed, but byte-identical to the object path).
    HeadActs,
    /// Accumulator clear across one head wave's modules (controller
    /// issue charged, zero module latency).
    HeadClear,
    /// One head wave's bit-exact INT8 MAC burst.
    HeadMac,
    /// Clock resynchronization: the machine's `now` joins the barrier
    /// horizon (both the head's per-wave barrier and the per-layer
    /// barrier lower to this).
    Barrier,
}

/// One pre-resolved operation of the arena. Module selections are
/// stored pre-split per cluster (the interpreter's `split_mask` done at
/// build time); burst parameters are already clamped/truncated exactly
/// as the ISA encoding would (`addr as u16`, `count as u8` for the
/// head), so replay reproduces the object path's arithmetic verbatim.
#[derive(Debug, Clone, Copy)]
struct Node {
    op: NodeOp,
    /// HP-cluster local module bits.
    hp_bits: u8,
    /// LP-cluster local module bits.
    lp_bits: u8,
    /// Weight memory the burst reads from.
    mem: MemSelect,
    /// Weight base address.
    addr: u32,
    /// Words per selected module.
    count: u32,
}

const NO_MEM: MemSelect = MemSelect::Sram;

impl Node {
    fn sync(op: NodeOp) -> Self {
        Node {
            op,
            hp_bits: 0,
            lp_bits: 0,
            mem: NO_MEM,
            addr: 0,
            count: 0,
        }
    }
}

/// Per-word read coefficients resolved once per `(cluster, memory)`
/// pair from the live banks — every module of a cluster shares one
/// technology, so two entries per cluster cover the whole machine.
#[derive(Debug, Clone, Copy, Default)]
struct ResolvedTable {
    read: [[Option<ResolvedAccess>; 2]; 2],
}

fn class_index(class: ClusterClass) -> usize {
    match class {
        ClusterClass::HighPerformance => 0,
        ClusterClass::LowPower => 1,
    }
}

fn mem_index(mem: MemSelect) -> usize {
    match mem {
        MemSelect::Sram => 0,
        MemSelect::Mram => 1,
    }
}

impl ResolvedTable {
    fn from_machine(machine: &PimMachine) -> Self {
        let mut table = ResolvedTable::default();
        for class in [ClusterClass::HighPerformance, ClusterClass::LowPower] {
            let Some(cluster) = machine.cluster(class) else {
                continue;
            };
            let Some(module) = cluster.modules().next() else {
                continue;
            };
            let ci = class_index(class);
            table.read[ci][mem_index(MemSelect::Sram)] =
                Some(module.bank(MemSelect::Sram).resolve(AccessKind::Read));
            if module.has_mram() {
                table.read[ci][mem_index(MemSelect::Mram)] =
                    Some(module.bank(MemSelect::Mram).resolve(AccessKind::Read));
            }
        }
        table
    }

    fn read(&self, class: ClusterClass, mem: MemSelect) -> ResolvedAccess {
        self.read[class_index(class)][mem_index(mem)]
            .expect("coefficients resolved for every bank the lowering references")
    }
}

/// One placement's lowered per-task program: the node arena plus the
/// shared head state the arena references.
#[derive(Debug, Clone)]
struct NodeProgram {
    nodes: Vec<Node>,
    /// Node range per compiled layer, for per-layer probe accounting.
    layer_spans: Vec<Range<usize>>,
    /// The head's activation bytes (preloaded per task).
    acts: Vec<u8>,
    /// Global indices of the modules hosting the head.
    head_modules: Vec<usize>,
}

/// The cycle backend's flat timing graph: cached lowered programs (one
/// per placement seen), the shared resolved-coefficient table, and the
/// barrier horizon. See the [module docs](self) for the design and
/// equivalence contract.
#[derive(Debug, Default)]
pub struct TimeGraph {
    programs: Vec<NodeProgram>,
    by_placement: HashMap<Placement, usize>,
    table: Option<ResolvedTable>,
    /// The latest instant any module or cluster issue pipeline is
    /// booked to: where the next barrier moves the machine's clock.
    horizon: SimTime,
}

impl TimeGraph {
    /// An empty graph; programs are lowered lazily per placement.
    pub fn new() -> Self {
        TimeGraph::default()
    }

    /// Number of lowered (cached) per-placement programs.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Total nodes across every cached program.
    pub fn node_count(&self) -> usize {
        self.programs.iter().map(|p| p.nodes.len()).sum()
    }

    /// Drops every cached program and the coefficient table; the next
    /// replay lowers afresh. Exists so builds can be measured in
    /// isolation.
    pub fn clear(&mut self) {
        self.programs.clear();
        self.by_placement.clear();
        self.table = None;
    }

    /// Returns the cached program index for `placement`, lowering it
    /// first if this placement has not been seen. Lowering mirrors the
    /// object path exactly: schedule layers split by group share across
    /// the placement's occupied spaces (in [`Placement::occupied`]
    /// order), the head lowers wave by wave with the ISA's `u16`/`u8`
    /// truncation, and every layer closes with a barrier node.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ensure_program(
        &mut self,
        machine: &PimMachine,
        spec: &ArchSpec,
        program: &CompiledProgram,
        placement: &Placement,
        head_modules: &[usize],
        head_home: WeightHome,
        input: &[i8],
    ) -> usize {
        if let Some(&idx) = self.by_placement.get(placement) {
            return idx;
        }
        if self.table.is_none() {
            self.table = Some(ResolvedTable::from_machine(machine));
        }
        let hp = machine.config().hp_modules;
        let k = placement.total().max(1);
        let mut nodes = Vec::new();
        let mut layer_spans = Vec::with_capacity(program.layers().len());
        let mut acts = Vec::new();
        for layer in program.layers() {
            let start = nodes.len();
            match &layer.op {
                LayerOp::Schedule { macs_per_task } => {
                    for (space, groups) in placement.occupied() {
                        let cluster = space.cluster();
                        let modules = spec.modules_in(cluster);
                        if modules == 0 {
                            continue;
                        }
                        let share = *macs_per_task as f64 * groups as f64 / k as f64;
                        let per_module = (share / modules as f64).ceil() as usize;
                        if per_module == 0 {
                            continue;
                        }
                        let bits = ((1u16 << modules) - 1) as u8;
                        let (hp_bits, lp_bits) = match cluster {
                            ClusterClass::HighPerformance => (bits, 0),
                            ClusterClass::LowPower => (0, bits),
                        };
                        nodes.push(Node {
                            op: NodeOp::Stream,
                            hp_bits,
                            lp_bits,
                            mem: match space.kind() {
                                MemKind::Mram => MemSelect::Mram,
                                MemKind::Sram => MemSelect::Sram,
                            },
                            addr: 0,
                            count: u32::try_from(per_module)
                                .expect("per-module burst fits the node arena"),
                        });
                    }
                }
                LayerOp::Head(plan) => {
                    acts = input.iter().map(|&v| v as u8).collect();
                    nodes.push(Node::sync(NodeOp::HeadActs));
                    let waves = plan.out_features().div_ceil(head_modules.len());
                    for wave in 0..waves {
                        let lo = wave * head_modules.len();
                        let hi = (lo + head_modules.len()).min(plan.out_features());
                        let mut mask = ModuleMask::empty();
                        for o in lo..hi {
                            mask = mask.union(ModuleMask::single(
                                head_modules[o % head_modules.len()] as u8,
                            ));
                        }
                        let bits = mask.bits();
                        let hp_bits = bits & (((1u16 << hp) - 1) as u8);
                        let lp_bits = if hp >= 8 { 0 } else { bits >> hp };
                        nodes.push(Node {
                            op: NodeOp::HeadClear,
                            hp_bits,
                            lp_bits,
                            mem: NO_MEM,
                            addr: 0,
                            count: 0,
                        });
                        nodes.push(Node {
                            op: NodeOp::HeadMac,
                            hp_bits,
                            lp_bits,
                            mem: head_home.mem(),
                            // The ISA encodes these as u16/u8; replicate
                            // the truncation so replay matches even at
                            // the encoding boundary.
                            addr: (wave * plan.in_features()) as u16 as u32,
                            count: plan.in_features() as u8 as u32,
                        });
                        nodes.push(Node::sync(NodeOp::Barrier));
                    }
                }
            }
            // The object path closes every layer with an explicit
            // barrier (layers consume their predecessor's outputs).
            nodes.push(Node::sync(NodeOp::Barrier));
            layer_spans.push(start..nodes.len());
        }
        let idx = self.programs.len();
        self.programs.push(NodeProgram {
            nodes,
            layer_spans,
            acts,
            head_modules: head_modules.to_vec(),
        });
        self.by_placement.insert(*placement, idx);
        idx
    }

    /// (Re)seeds the barrier horizon from the machine's live completion
    /// state: the latest module `free_at` or cluster issue pipeline.
    /// Call once per slice, after any migration traffic and before the
    /// task loop; replay raises the horizon with every dispatch and
    /// completion from then on.
    pub(crate) fn seed(&mut self, machine: &PimMachine) {
        self.horizon = [ClusterClass::HighPerformance, ClusterClass::LowPower]
            .into_iter()
            .filter_map(|class| machine.cluster(class))
            .map(Cluster::all_free_at)
            .fold(SimTime::ZERO, SimTime::max);
    }

    /// Replays one task's lowered program on `machine`, accumulating
    /// per-layer accounting into `accs` exactly as the object path's
    /// task loop does (probe-chained deltas per layer).
    ///
    /// # Errors
    ///
    /// Wraps module errors with the same global indices and error
    /// envelopes as the interpreted path: schedule streams surface as
    /// [`BackendError::Machine`], head operations as
    /// [`BackendError::Compile`].
    pub(crate) fn replay_task(
        &mut self,
        machine: &mut PimMachine,
        program: usize,
        accs: &mut [LayerAcc],
    ) -> Result<(), BackendError> {
        let table = self.table.expect("ensure_program ran before replay");
        let prog = &self.programs[program];
        let hp_modules = machine.config().hp_modules;
        let mut probe = machine.probe();
        for (i, span) in prog.layer_spans.iter().enumerate() {
            let t0 = machine.now();
            for node in &prog.nodes[span.clone()] {
                match node.op {
                    NodeOp::Stream | NodeOp::HeadClear | NodeOp::HeadMac => {
                        dispatch(machine, &mut self.horizon, &table, node, hp_modules)?;
                    }
                    NodeOp::HeadActs => {
                        for &g in &prog.head_modules {
                            machine
                                .preload_activations(g, &prog.acts)
                                .map_err(|e| BackendError::Compile(CompileError::Machine(e)))?;
                        }
                    }
                    NodeOp::Barrier => {
                        machine.note_instruction();
                        machine.idle_until(self.horizon);
                    }
                }
            }
            let done = machine.probe();
            accs[i].macs += done.macs - probe.macs;
            accs[i].time += machine.now().saturating_since(t0);
            accs[i].energy_pj += done.total.as_pj() - probe.total.as_pj();
            probe = done;
        }
        Ok(())
    }
}

/// Issues one dispatching node: per selected cluster (HP first, then
/// LP, both launched at the same `now` — the interpreter's
/// `run_on_clusters` order), one call into the cluster charges
/// controller issue and drives every selected module in ascending local
/// index. The latest dispatch or completion raises `horizon`, so the
/// next barrier is an `O(1)` lookup.
fn dispatch(
    machine: &mut PimMachine,
    horizon: &mut SimTime,
    table: &ResolvedTable,
    node: &Node,
    hp_modules: usize,
) -> Result<(), BackendError> {
    machine.note_instruction();
    let now = machine.now();
    for (class, bits, offset) in [
        (ClusterClass::HighPerformance, node.hp_bits, 0),
        (ClusterClass::LowPower, node.lp_bits, hp_modules),
    ] {
        if bits == 0 {
            continue;
        }
        let cluster = machine
            .cluster_mut(class)
            .expect("lowered from live geometry");
        let module = |(idx, error): (usize, ModuleError)| MachineError::Module {
            module: offset + idx,
            error,
        };
        let weights = table.read(class, node.mem);
        let acts = table.read(class, MemSelect::Sram);
        let (addr, count) = (node.addr as usize, node.count as usize);
        let done = match node.op {
            NodeOp::Stream => cluster
                .mac_stream_resolved(now, bits, node.mem, &weights, &acts, addr, count)
                .map_err(|e| BackendError::Machine(module(e)))?,
            NodeOp::HeadClear => cluster
                .for_selected(now, bits, |m, at| {
                    m.clear_acc();
                    Ok(at)
                })
                .map_err(|e| BackendError::Compile(CompileError::Machine(module(e))))?,
            NodeOp::HeadMac => cluster
                .for_selected(now, bits, |m, at| {
                    m.mac_resolved(at, node.mem, &weights, &acts, addr, count)
                })
                .map_err(|e| BackendError::Compile(CompileError::Machine(module(e))))?,
            NodeOp::HeadActs | NodeOp::Barrier => unreachable!("non-dispatching op"),
        };
        *horizon = (*horizon).max(done);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, CycleBackend, ExecMode, ExecutionBackend};
    use crate::policy::{FixedHome, GreedyBaseline, LutAdaptive, PlacementPolicy};
    use crate::runtime::RuntimeConfig;
    use crate::session::SessionBuilder;
    use crate::store::PlacementStore;
    use crate::Architecture;
    use hhpim_nn::TinyMlModel;
    use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};

    type PolicyCtor = fn() -> Box<dyn PlacementPolicy>;

    fn policies() -> Vec<(&'static str, PolicyCtor)> {
        vec![
            ("lut", || Box::new(LutAdaptive::new())),
            ("fixed", || Box::new(FixedHome::arch_default())),
            ("greedy", || Box::new(GreedyBaseline::new())),
        ]
    }

    fn pair(arch: Architecture, policy: &PolicyCtor) -> (CycleBackend, CycleBackend) {
        let builder = SessionBuilder::new()
            .architecture(arch)
            .model(TinyMlModel::MobileNetV2)
            .policy(policy())
            .store(PlacementStore::shared());
        let graph = builder.build_cycle().unwrap();
        let mut object = builder.build_cycle().unwrap();
        object.set_exec_mode(ExecMode::ObjectWalk);
        assert_eq!(graph.exec_mode(), ExecMode::TimingGraph);
        (graph, object)
    }

    #[test]
    fn reports_bit_identical_across_scenarios_and_policies() {
        for (name, policy) in policies() {
            for scenario in Scenario::ALL {
                let trace = LoadTrace::generate(
                    scenario,
                    ScenarioParams {
                        slices: 8,
                        ..ScenarioParams::default()
                    },
                );
                let (mut graph, mut object) = pair(Architecture::HhPim, &policy);
                let g = graph.execute(&trace).unwrap();
                let o = object.execute(&trace).unwrap();
                // Full structural equality: records, layers, migrations,
                // the energy ledger (every category, every f64 bit),
                // elapsed, instructions and MACs.
                assert_eq!(g, o, "graph != object for {scenario:?}/{name}");
            }
        }
    }

    #[test]
    fn reports_bit_identical_on_other_architectures() {
        for arch in [
            Architecture::Baseline,
            Architecture::Heterogeneous,
            Architecture::Hybrid,
        ] {
            let trace = LoadTrace::generate(
                Scenario::HighLowPulsing,
                ScenarioParams {
                    slices: 6,
                    ..ScenarioParams::default()
                },
            );
            let mut graph = CycleBackend::new(arch, TinyMlModel::MobileNetV2).unwrap();
            let mut object = CycleBackend::new(arch, TinyMlModel::MobileNetV2).unwrap();
            object.set_exec_mode(ExecMode::ObjectWalk);
            assert_eq!(
                graph.execute(&trace).unwrap(),
                object.execute(&trace).unwrap(),
                "graph != object on {arch:?}"
            );
        }
    }

    /// FNV-1a digest of a report's `Debug` form: it moves if any slice
    /// or layer record, migration, ledger category or `f64` bit moves.
    fn digest(report: &ExecutionReport) -> u64 {
        format!("{report:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Pins every bit of a 12-slice cycle report on both execution
    /// modes. The two modes share the module kernels, so the
    /// equivalence tests above cannot see a kernel change; these
    /// digests can. Baseline covers SRAM-only modules and Hybrid a
    /// machine with one cluster.
    #[test]
    fn cycle_report_digests_are_pinned() {
        let trace = LoadTrace::generate(
            Scenario::PeriodicSpikeFrequent,
            ScenarioParams {
                slices: 12,
                ..ScenarioParams::default()
            },
        );
        use Architecture::{Baseline, HhPim, Hybrid};
        use TinyMlModel::{EfficientNetB0, MobileNetV2, ResNet18};
        let pinned = [
            (HhPim, EfficientNetB0, 18286882550087260433),
            (HhPim, MobileNetV2, 3494529202362167604),
            (HhPim, ResNet18, 3281837271264717714),
            (Baseline, MobileNetV2, 5082947092910960934),
            (Hybrid, MobileNetV2, 5948332703580467304),
        ];
        for (arch, model, expected) in pinned {
            for mode in [ExecMode::TimingGraph, ExecMode::ObjectWalk] {
                let mut backend = CycleBackend::new(arch, model).unwrap();
                backend.set_exec_mode(mode);
                let report = backend.execute(&trace).unwrap();
                assert_eq!(digest(&report), expected, "{arch:?} {model:?} {mode:?}");
            }
        }
    }

    #[test]
    fn mid_stream_replacement_splices_match() {
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (mut graph, mut object) = pair(Architecture::HhPim, &policy);
        let max = graph.runtime_config().max_tasks;
        graph.begin_stream().unwrap();
        object.begin_stream().unwrap();
        // Oscillating queue depth forces LUT re-placements (and their
        // migration traffic) mid-stream; outcomes must splice
        // identically.
        let mut saw_replacement = false;
        for n in [1, max, max, 1, max, 1, 3, max] {
            let g = graph.step_slice(n).unwrap();
            let o = object.step_slice(n).unwrap();
            saw_replacement |= g.migration.is_some();
            assert_eq!(g, o, "outcome diverged at n_tasks={n}");
        }
        assert!(saw_replacement, "test never exercised a re-placement");
        assert_eq!(
            graph.finish_stream().unwrap(),
            object.finish_stream().unwrap()
        );
        // Programs were lowered once per distinct placement, then
        // reused across slices and tasks.
        assert!(graph.timegraph().program_count() >= 2);
        assert!(graph.timegraph().node_count() > 0);
    }

    #[test]
    fn restarted_streams_reuse_the_graph_and_stay_identical() {
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (mut graph, mut object) = pair(Architecture::HhPim, &policy);
        let trace = LoadTrace::generate(
            Scenario::PeriodicSpike,
            ScenarioParams {
                slices: 6,
                ..ScenarioParams::default()
            },
        );
        let g1 = graph.execute(&trace).unwrap();
        let o1 = object.execute(&trace).unwrap();
        assert_eq!(g1, o1);
        let lowered = graph.timegraph().program_count();
        // A second stream on the same backends replays cached programs
        // (no re-lowering) and still matches the oracle bit for bit.
        let g2 = graph.execute(&trace).unwrap();
        let o2 = object.execute(&trace).unwrap();
        assert_eq!(g2, o2);
        assert_eq!(graph.timegraph().program_count(), lowered);
    }

    #[test]
    fn engine_event_streams_identical() {
        use crate::engine::Engine;
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (graph, object) = pair(Architecture::HhPim, &policy);
        let mut ge = Engine::new(graph);
        let mut oe = Engine::new(object);
        let trace = LoadTrace::generate(
            Scenario::PeriodicSpikeFrequent,
            ScenarioParams {
                slices: 10,
                ..ScenarioParams::default()
            },
        );
        ge.pump(trace.loads().iter().copied()).unwrap();
        oe.pump(trace.loads().iter().copied()).unwrap();
        let g_events: Vec<_> = ge.events().collect();
        let o_events: Vec<_> = oe.events().collect();
        assert_eq!(g_events, o_events);
        assert!(!g_events.is_empty());
        assert_eq!(ge.drain().unwrap(), oe.drain().unwrap());
    }

    /// Delegates to a real cycle backend but fails one chosen slice —
    /// the poison-path probe.
    struct FailingAt {
        inner: CycleBackend,
        fail_on: usize,
        stepped: usize,
    }

    impl ExecutionBackend for FailingAt {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }
        fn architecture(&self) -> Architecture {
            self.inner.architecture()
        }
        fn runtime_config(&self) -> &RuntimeConfig {
            self.inner.runtime_config()
        }
        fn begin_stream(&mut self) -> Result<(), BackendError> {
            self.inner.begin_stream()
        }
        fn step_slice(&mut self, n_tasks: u32) -> Result<SliceOutcome, BackendError> {
            let step = self.stepped;
            self.stepped += 1;
            if step == self.fail_on {
                return Err(BackendError::NoPimLayer {
                    model: TinyMlModel::MobileNetV2,
                });
            }
            self.inner.step_slice(n_tasks)
        }
        fn finish_stream(&mut self) -> Result<ExecutionReport, BackendError> {
            self.inner.finish_stream()
        }
    }

    use crate::backend::ExecutionReport;
    use crate::engine::SliceOutcome;

    #[test]
    fn poison_and_restart_stay_identical() {
        use crate::engine::Engine;
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (graph, object) = pair(Architecture::HhPim, &policy);
        let mut ge = Engine::new(FailingAt {
            inner: graph,
            fail_on: 3,
            stepped: 0,
        });
        let mut oe = Engine::new(FailingAt {
            inner: object,
            fail_on: 3,
            stepped: 0,
        });
        let loads = [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.9, 0.1];
        let mut g_events = Vec::new();
        let mut o_events = Vec::new();
        let mut g_errors = 0usize;
        let mut o_errors = 0usize;
        for &load in &loads {
            ge.submit(load).unwrap();
            if ge.step().is_err() {
                g_errors += 1;
            }
            g_events.extend(ge.events());
            oe.submit(load).unwrap();
            if oe.step().is_err() {
                o_errors += 1;
            }
            o_events.extend(oe.events());
        }
        // Both poisoned at the same slice, restarted on the next
        // submit, and emitted identical event streams throughout.
        assert_eq!(g_errors, 1);
        assert_eq!(o_errors, 1);
        assert_eq!(g_events, o_events);
        assert_eq!(ge.drain().unwrap(), oe.drain().unwrap());
    }
}
