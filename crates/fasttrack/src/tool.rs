//! The FastTrack tracer and its hybrid/optimistic elision modes.

use std::collections::BTreeSet;

use oha_dataflow::BitSet;
use oha_interp::{hooks, Addr, EventCtx, InstrPlan, PlanElisions, ThreadId, Tracer};
use oha_ir::{FuncId, InstId};
use oha_ir::{InstKind, Program};

use crate::detector::{Detector, RaceReport};

/// Which variant of the tool is running (informational; the behaviour is
/// fully determined by the elision sets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ToolMode {
    /// Instrument every load, store, lock and unlock.
    Full,
    /// Skip loads/stores outside the static racy set (traditional hybrid).
    Hybrid,
    /// Additionally skip elidable lock/unlock sites (optimistic).
    Optimistic,
}

/// Elision counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastTrackCounters {
    /// Loads/stores whose instrumentation was elided.
    pub elided_accesses: u64,
    /// Lock/unlock operations whose instrumentation was elided.
    pub elided_lock_ops: u64,
}

/// FastTrack as an interpreter [`Tracer`].
///
/// # Examples
///
/// ```
/// use oha_fasttrack::FastTrackTool;
/// let mut tool = FastTrackTool::full();
/// # let _ = &mut tool;
/// ```
#[derive(Debug)]
pub struct FastTrackTool<'a> {
    detector: Detector,
    mode: ToolMode,
    /// Sites to instrument; `None` = all.
    instrument: Option<&'a BitSet>,
    /// Lock/unlock sites to skip. The `BTreeSet` is the API boundary
    /// (deterministic iteration in reports); the per-event probe uses
    /// `elided_lock_bits`.
    elided_locks: Option<&'a BTreeSet<InstId>>,
    /// O(1) membership mirror of `elided_locks`, built at construction
    /// whenever `elided_locks` is given.
    elided_lock_bits: Option<BitSet>,
    counters: FastTrackCounters,
}

impl<'a> FastTrackTool<'a> {
    /// The unoptimized detector: every access instrumented.
    pub fn full() -> Self {
        Self {
            detector: Detector::new(),
            mode: ToolMode::Full,
            instrument: None,
            elided_locks: None,
            elided_lock_bits: None,
            counters: FastTrackCounters::default(),
        }
    }

    /// The traditional hybrid detector: only `racy_sites` are instrumented.
    pub fn hybrid(racy_sites: &'a BitSet) -> Self {
        Self {
            detector: Detector::new(),
            mode: ToolMode::Hybrid,
            instrument: Some(racy_sites),
            elided_locks: None,
            elided_lock_bits: None,
            counters: FastTrackCounters::default(),
        }
    }

    /// The optimistic detector: `racy_sites` from the *predicated* static
    /// analysis, plus lock instrumentation elision for
    /// `elidable_locks` (the no-custom-synchronization invariant).
    pub fn optimistic(racy_sites: &'a BitSet, elidable_locks: &'a BTreeSet<InstId>) -> Self {
        Self {
            detector: Detector::new(),
            mode: ToolMode::Optimistic,
            instrument: Some(racy_sites),
            elided_locks: Some(elidable_locks),
            elided_lock_bits: Some(elidable_locks.iter().map(|i| i.index()).collect()),
            counters: FastTrackCounters::default(),
        }
    }

    /// Compiles the elision sets into an instrumentation plan (see
    /// [`InstrPlan`]): load/store hooks at instrumented sites, lock
    /// hooks at non-elided lock sites, nothing else. Running under this
    /// plan is behaviourally identical to running without one — sites
    /// the plan masks out are exactly the sites the tool would have
    /// skipped itself, and the machine counts them on the tool's behalf
    /// (absorbed via [`FastTrackTool::absorb_plan_elisions`]).
    pub fn plan_for(
        program: &Program,
        instrument: Option<&BitSet>,
        elided_locks: Option<&BTreeSet<InstId>>,
    ) -> InstrPlan {
        let mut plan = InstrPlan::none(program.num_insts());
        for inst in program.insts() {
            match inst.kind {
                InstKind::Load { .. }
                    if instrument.is_none_or(|set| set.contains(inst.id.index())) =>
                {
                    plan.require(inst.id, hooks::LOAD);
                }
                InstKind::Store { .. }
                    if instrument.is_none_or(|set| set.contains(inst.id.index())) =>
                {
                    plan.require(inst.id, hooks::STORE);
                }
                InstKind::Lock { .. } if elided_locks.is_none_or(|set| !set.contains(&inst.id)) => {
                    plan.require(inst.id, hooks::LOCK);
                }
                InstKind::Unlock { .. }
                    if elided_locks.is_none_or(|set| !set.contains(&inst.id)) =>
                {
                    plan.require(inst.id, hooks::UNLOCK);
                }
                _ => {}
            }
        }
        plan
    }

    /// The plan matching this tool's own elision sets.
    pub fn plan(&self, program: &Program) -> InstrPlan {
        Self::plan_for(program, self.instrument, self.elided_locks)
    }

    /// Folds the machine-side elision tally of a plan-gated run into the
    /// tool's own counters, keeping the elision identity exact.
    pub fn absorb_plan_elisions(&mut self, e: &PlanElisions) {
        self.counters.elided_accesses += e.accesses();
        self.counters.elided_lock_ops += e.lock_ops();
    }

    /// The running mode.
    pub fn mode(&self) -> ToolMode {
        self.mode
    }

    /// The underlying detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Distinct racing site pairs seen so far.
    pub fn race_pairs(&self) -> BTreeSet<(InstId, InstId)> {
        self.detector.race_pairs()
    }

    /// All race reports.
    pub fn races(&self) -> &BTreeSet<RaceReport> {
        self.detector.races()
    }

    /// Elision counters.
    pub fn counters(&self) -> FastTrackCounters {
        self.counters
    }

    /// Publishes elided-vs-executed work under `<prefix>.` in `registry`:
    /// `<prefix>.elided.{accesses,lock_ops}` for skipped instrumentation,
    /// `<prefix>.executed.{reads,writes,sync_ops}` for detector work, and
    /// `<prefix>.races` for distinct racing site pairs.
    pub fn record_metrics(&self, registry: &oha_obs::MetricsRegistry, prefix: &str) {
        registry.add(
            &format!("{prefix}.elided.accesses"),
            self.counters.elided_accesses,
        );
        registry.add(
            &format!("{prefix}.elided.lock_ops"),
            self.counters.elided_lock_ops,
        );
        let d = self.detector.counters();
        registry.add(&format!("{prefix}.executed.reads"), d.reads);
        registry.add(&format!("{prefix}.executed.writes"), d.writes);
        registry.add(&format!("{prefix}.executed.sync_ops"), d.sync_ops);
        registry.add(&format!("{prefix}.races"), self.race_pairs().len() as u64);
    }

    fn skip_access(&mut self, site: InstId) -> bool {
        match self.instrument {
            Some(set) if !set.contains(site.index()) => {
                self.counters.elided_accesses += 1;
                true
            }
            _ => false,
        }
    }

    fn skip_lock(&mut self, site: InstId) -> bool {
        let elided = self
            .elided_lock_bits
            .as_ref()
            .is_some_and(|bits| bits.contains(site.index()));
        if elided {
            self.counters.elided_lock_ops += 1;
        }
        elided
    }
}

impl Tracer for FastTrackTool<'_> {
    fn on_load(&mut self, ctx: EventCtx, addr: Addr, _value: oha_interp::Value) {
        if !self.skip_access(ctx.inst) {
            self.detector.read(ctx.thread, addr, ctx.inst);
        }
    }

    fn on_store(&mut self, ctx: EventCtx, addr: Addr, _value: oha_interp::Value) {
        if !self.skip_access(ctx.inst) {
            self.detector.write(ctx.thread, addr, ctx.inst);
        }
    }

    fn on_lock(&mut self, ctx: EventCtx, addr: Addr) {
        if !self.skip_lock(ctx.inst) {
            self.detector.acquire(ctx.thread, addr);
        }
    }

    fn on_unlock(&mut self, ctx: EventCtx, addr: Addr) {
        if !self.skip_lock(ctx.inst) {
            self.detector.release(ctx.thread, addr);
        }
    }

    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, _entry: FuncId) {
        self.detector.fork(ctx.thread, child);
    }

    fn on_join(&mut self, ctx: EventCtx, child: ThreadId) {
        self.detector.join(ctx.thread, child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_interp::{Machine, MachineConfig};
    use oha_ir::{InstKind, Operand, Program, ProgramBuilder};
    use oha_pointsto::{analyze, PointsToConfig};
    use oha_races::detect;
    use Operand::{Const, Reg as R};

    /// Two threads; one writes with a lock, the other without → real race.
    fn racy_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("shared", 1);
        let w = pb.declare("writer", 1);
        let mut m = pb.function("main", 0);
        let t1 = m.spawn(w, Const(1));
        let t2 = m.spawn(w, Const(2));
        m.join(R(t1));
        m.join(R(t2));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut wf = pb.function("writer", 1);
        let ga = wf.addr_global(g);
        wf.store(R(ga), 0, R(wf.param(0)));
        wf.ret(None);
        pb.finish_function(wf);
        pb.finish(main).unwrap()
    }

    fn run_tool(p: &Program, tool: &mut FastTrackTool<'_>, seed: u64) {
        let cfg = MachineConfig {
            seed,
            quantum: 2,
            ..MachineConfig::default()
        };
        Machine::new(p, cfg).run(&[], tool);
    }

    #[test]
    fn full_tool_finds_the_race() {
        let p = racy_program();
        let found = (0..20).any(|seed| {
            let mut tool = FastTrackTool::full();
            run_tool(&p, &mut tool, seed);
            !tool.race_pairs().is_empty()
        });
        assert!(found, "no schedule exposed the race");
    }

    #[test]
    fn hybrid_tool_reports_identical_races() {
        let p = racy_program();
        let pt = analyze(&p, &PointsToConfig::default()).unwrap();
        let races = detect(&p, &pt, None);
        for seed in 0..20 {
            let mut full = FastTrackTool::full();
            run_tool(&p, &mut full, seed);
            let mut hybrid = FastTrackTool::hybrid(races.racy_sites());
            run_tool(&p, &mut hybrid, seed);
            assert_eq!(
                full.race_pairs(),
                hybrid.race_pairs(),
                "hybrid must be race-equivalent (seed {seed})"
            );
        }
    }

    #[test]
    fn elision_counters_track_skipped_work() {
        let p = racy_program();
        // Instrument nothing: every access elided, no races visible.
        let empty = BitSet::new();
        let mut tool = FastTrackTool::hybrid(&empty);
        run_tool(&p, &mut tool, 1);
        assert!(tool.race_pairs().is_empty());
        assert!(tool.counters().elided_accesses > 0);
        assert_eq!(tool.mode(), ToolMode::Hybrid);
    }

    #[test]
    fn lock_elision_skips_sync_ops() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("g", 1);
        let mut m = pb.function("main", 0);
        let ga = m.addr_global(g);
        m.lock(R(ga));
        m.unlock(R(ga));
        m.ret(None);
        let main = pb.finish_function(m);
        let p = pb.finish(main).unwrap();
        let lock_sites: BTreeSet<InstId> = p
            .inst_ids()
            .filter(|&i| {
                matches!(
                    p.inst(i).kind,
                    InstKind::Lock { .. } | InstKind::Unlock { .. }
                )
            })
            .collect();
        let all: BitSet = p.inst_ids().map(|i| i.index()).collect();
        let mut tool = FastTrackTool::optimistic(&all, &lock_sites);
        run_tool(&p, &mut tool, 0);
        assert_eq!(tool.counters().elided_lock_ops, 2);
        assert_eq!(tool.detector().counters().sync_ops, 0);
    }
}
