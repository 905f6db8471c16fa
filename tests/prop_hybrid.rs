//! Metamorphic properties of the hybrid/optimistic machinery over random
//! programs: predicated static results shrink sound ones, dynamic-slice
//! elision is exact, invariant merging is monotone, and the end-to-end
//! pipelines keep their soundness contracts.

mod common;

use std::collections::{BTreeSet, HashMap};

use common::{build_program, inputs, prog_spec};
use oha::core::Pipeline;
use oha::giri::GiriTool;
use oha::interp::{Addr, EventCtx, FrameId, Machine, MachineConfig, ThreadId, Tracer, Value};
use oha::invariants::{InvariantSet, ProfileTracer};
use oha::ir::{FuncId, InstId, InstKind, Operand, Program, Reg};
use oha::pointsto::{analyze, PointsToConfig};
use oha::races::detect;
use oha::slicing::{slice, SliceConfig};
use proptest::prelude::*;

fn profile(p: &oha::ir::Program, corpora: &[Vec<i64>]) -> InvariantSet {
    let profiles: Vec<_> = corpora
        .iter()
        .map(|input| {
            let mut t = ProfileTracer::new(p);
            Machine::new(p, MachineConfig::default()).run(input, &mut t);
            t.into_profile()
        })
        .collect();
    InvariantSet::from_profiles(&profiles)
}

/// An independent full-trace dynamic slicer, the oracle for
/// `giri_full_matches_oracle`: every event is traced, register defs are
/// keyed by `(FrameId, Reg)` and stores by address, both in hash maps.
struct OracleSlicer<'p> {
    p: &'p Program,
    /// Site and producer events of every traced event.
    events: Vec<(InstId, Vec<usize>)>,
    defs: HashMap<(FrameId, Reg), usize>,
    stores: HashMap<Addr, usize>,
    spawn_args: HashMap<ThreadId, usize>,
    outputs: Vec<usize>,
}

impl<'p> OracleSlicer<'p> {
    fn new(p: &'p Program) -> Self {
        Self {
            p,
            events: Vec::new(),
            defs: HashMap::new(),
            stores: HashMap::new(),
            spawn_args: HashMap::new(),
            outputs: Vec::new(),
        }
    }

    fn dep(&self, frame: FrameId, op: Operand) -> Option<usize> {
        match op {
            Operand::Reg(r) => self.defs.get(&(frame, r)).copied(),
            Operand::Const(_) => None,
        }
    }

    fn event(&mut self, inst: InstId, deps: [Option<usize>; 2]) -> usize {
        self.events
            .push((inst, deps.into_iter().flatten().collect()));
        self.events.len() - 1
    }

    /// Sites of every event reachable backwards from an output.
    fn slice(&self) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = self.outputs.iter().copied().collect();
        let mut stack: Vec<usize> = seen.iter().copied().collect();
        let mut sites = BTreeSet::new();
        while let Some(e) = stack.pop() {
            sites.insert(self.events[e].0.index());
            stack.extend(self.events[e].1.iter().filter(|&&d| seen.insert(d)));
        }
        sites
    }
}

impl Tracer for OracleSlicer<'_> {
    fn on_compute(&mut self, ctx: EventCtx) {
        let f = ctx.frame;
        let (dst, deps) = match self.p.inst(ctx.inst).kind {
            InstKind::Copy { dst, src } => (dst, [self.dep(f, src), None]),
            InstKind::BinOp { dst, lhs, rhs, .. } => (dst, [self.dep(f, lhs), self.dep(f, rhs)]),
            InstKind::Gep { dst, base, .. } => (dst, [self.dep(f, base), None]),
            InstKind::Alloc { dst, .. }
            | InstKind::AddrGlobal { dst, .. }
            | InstKind::AddrFunc { dst, .. } => (dst, [None, None]),
            _ => return,
        };
        let ev = self.event(ctx.inst, deps);
        self.defs.insert((f, dst), ev);
    }

    fn on_load(&mut self, ctx: EventCtx, addr: Addr, _value: Value) {
        if let InstKind::Load { dst, addr: a, .. } = self.p.inst(ctx.inst).kind {
            let deps = [self.stores.get(&addr).copied(), self.dep(ctx.frame, a)];
            let ev = self.event(ctx.inst, deps);
            self.defs.insert((ctx.frame, dst), ev);
        }
    }

    fn on_store(&mut self, ctx: EventCtx, addr: Addr, _value: Value) {
        if let InstKind::Store { addr: a, value, .. } = self.p.inst(ctx.inst).kind {
            let deps = [self.dep(ctx.frame, value), self.dep(ctx.frame, a)];
            let ev = self.event(ctx.inst, deps);
            self.stores.insert(addr, ev);
        }
    }

    fn on_input(&mut self, ctx: EventCtx, _value: Value) {
        if let InstKind::Input { dst } = self.p.inst(ctx.inst).kind {
            let ev = self.event(ctx.inst, [None, None]);
            self.defs.insert((ctx.frame, dst), ev);
        }
    }

    fn on_output(&mut self, ctx: EventCtx, _value: Value) {
        if let InstKind::Output { value } = self.p.inst(ctx.inst).kind {
            let ev = self.event(ctx.inst, [self.dep(ctx.frame, value), None]);
            self.outputs.push(ev);
        }
    }

    fn on_call(&mut self, ctx: EventCtx, _callee: FuncId, callee_frame: FrameId) {
        if let InstKind::Call { args, .. } = &self.p.inst(ctx.inst).kind {
            for (i, &arg) in args.iter().enumerate() {
                if let Some(d) = self.dep(ctx.frame, arg) {
                    self.defs.insert((callee_frame, Reg::new(i as u32)), d);
                }
            }
        }
    }

    fn on_return(
        &mut self,
        _thread: ThreadId,
        frame: FrameId,
        _func: FuncId,
        value: Option<Value>,
        operand: Option<Operand>,
        caller_frame: FrameId,
        call_inst: InstId,
    ) {
        if let (Some(_), InstKind::Call { dst: Some(d), .. }) =
            (value, &self.p.inst(call_inst).kind)
        {
            let dep = operand.and_then(|op| self.dep(frame, op));
            let ev = self.event(call_inst, [dep, None]);
            self.defs.insert((caller_frame, *d), ev);
        }
    }

    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, _entry: FuncId) {
        if let InstKind::Spawn { arg, .. } = self.p.inst(ctx.inst).kind {
            if let Some(d) = self.dep(ctx.frame, arg) {
                self.spawn_args.insert(child, d);
            }
        }
    }

    fn on_block_enter(&mut self, thread: ThreadId, frame: FrameId, _block: oha::ir::BlockId) {
        if let Some(d) = self.spawn_args.remove(&thread) {
            self.defs.insert((frame, Reg::new(0)), d);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full Giri trace slices exactly like the independent oracle
    /// slicer, so the def table keeps activations and threads apart.
    #[test]
    fn giri_full_matches_oracle(spec in prog_spec(), input in inputs(), seed in 0u64..200) {
        let p = build_program(&spec);
        let machine = Machine::new(&p, MachineConfig { seed, quantum: 3, max_steps: 2_000_000 });
        let mut giri = GiriTool::full(&p);
        machine.run(&input, &mut giri);
        let mut oracle = OracleSlicer::new(&p);
        machine.run(&input, &mut oracle);
        let sites: BTreeSet<usize> = giri.slice_all_outputs().sites().iter().collect();
        prop_assert_eq!(sites, oracle.slice());
    }

    /// Predication only removes: the predicated racy-site set and static
    /// slice are subsets of their sound counterparts.
    #[test]
    fn predicated_results_shrink_sound_ones(
        spec in prog_spec(),
        input in inputs(),
    ) {
        let p = build_program(&spec);
        let inv = profile(&p, &[input]);

        let pt_sound = analyze(&p, &PointsToConfig::default()).expect("CI completes");
        let pt_pred = analyze(&p, &PointsToConfig {
            invariants: Some(&inv),
            ..PointsToConfig::default()
        }).expect("CI completes");

        let races_sound = detect(&p, &pt_sound, None);
        let races_pred = detect(&p, &pt_pred, Some(&inv));
        prop_assert!(
            races_pred.racy_sites().is_subset(races_sound.racy_sites()),
            "predicated racy sites must shrink"
        );

        let endpoints: Vec<_> = p
            .inst_ids()
            .filter(|&i| matches!(p.inst(i).kind, InstKind::Output { .. }))
            .collect();
        let sound = slice(&p, &pt_sound, &endpoints, &SliceConfig::default()).expect("CI slice");
        let pred = slice(&p, &pt_pred, &endpoints, &SliceConfig {
            invariants: Some(&inv),
            ..SliceConfig::default()
        }).expect("CI slice");
        prop_assert!(
            pred.sites().is_subset(sound.sites()),
            "predicated slice must shrink: pred {:?} sound {:?}",
            pred.sites(),
            sound.sites()
        );
    }

    /// Tracing only the sound static slice produces exactly the
    /// full-trace dynamic slice.
    #[test]
    fn giri_hybrid_equals_full(spec in prog_spec(), input in inputs(), seed in 0u64..200) {
        let p = build_program(&spec);
        let endpoints: Vec<_> = p
            .inst_ids()
            .filter(|&i| matches!(p.inst(i).kind, InstKind::Output { .. }))
            .collect();
        let pt = analyze(&p, &PointsToConfig::default()).expect("CI completes");
        let static_slice = slice(&p, &pt, &endpoints, &SliceConfig::default()).expect("CI slice");

        let cfg = MachineConfig { seed, quantum: 3, max_steps: 2_000_000 };
        let machine = Machine::new(&p, cfg);
        let mut full = GiriTool::full(&p);
        machine.run(&input, &mut full);
        let mut hybrid = GiriTool::hybrid(&p, static_slice.sites());
        machine.run(&input, &mut hybrid);
        for &e in &endpoints {
            prop_assert_eq!(full.slice_of(e), hybrid.slice_of(e), "endpoint {}", e);
        }
    }

    /// Merging more profiles only grows the assumed-reachable sets (so
    /// mis-speculation can only become rarer).
    #[test]
    fn invariant_merge_is_monotone(
        spec in prog_spec(),
        a in inputs(),
        b in inputs(),
    ) {
        let p = build_program(&spec);
        let small = profile(&p, std::slice::from_ref(&a));
        let big = profile(&p, &[a, b]);
        prop_assert!(small.visited_blocks.is_subset(&big.visited_blocks));
        prop_assert!(small.contexts.is_subset(&big.contexts));
        for (site, callees) in &small.callee_sets {
            prop_assert!(callees.is_subset(&big.callee_sets[site]));
        }
        // Complement view: assumed-unreachable only shrinks.
        prop_assert!(big.assumed_unreachable(&p).len() <= small.assumed_unreachable(&p).len());
    }

    /// The full OptFT pipeline is race-equivalent to FastTrack on random
    /// multithreaded programs — even when testing inputs exercise paths
    /// profiling never saw (the rollback keeps it sound).
    #[test]
    fn optft_pipeline_race_equivalence(
        spec in prog_spec(),
        prof_input in inputs(),
        test_a in inputs(),
        test_b in inputs(),
    ) {
        let p = build_program(&spec);
        let pipeline = Pipeline::new(p);
        let outcome = pipeline.run_optft(&[prof_input], &[test_a, test_b]);
        prop_assert_eq!(&outcome.optimistic_races, &outcome.baseline_races);
        for run in &outcome.runs {
            prop_assert_eq!(&run.races_hybrid, &run.races_full, "hybrid equals full");
        }
    }

    /// The full OptSlice pipeline agrees with the hybrid slicer under the
    /// same conditions.
    #[test]
    fn optslice_pipeline_slice_equivalence(
        spec in prog_spec(),
        prof_input in inputs(),
        test_input in inputs(),
    ) {
        let p = build_program(&spec);
        let endpoints: Vec<_> = p
            .inst_ids()
            .filter(|&i| matches!(p.inst(i).kind, InstKind::Output { .. }))
            .collect();
        let pipeline = Pipeline::new(p);
        let outcome = pipeline.run_optslice(&[prof_input], &[test_input], &endpoints);
        prop_assert!(outcome.all_slices_equal());
    }
}
