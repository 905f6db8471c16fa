//! Runtime verification of assumed likely invariants.

use std::collections::{BTreeSet, HashMap};

use oha_interp::{hooks, Addr, EventCtx, FrameId, InstrPlan, ThreadId, Tracer};
use oha_ir::{BlockId, Callee, FuncId, InstId, InstKind, Program};

use crate::bloom::Bloom;
use crate::set::{InvariantSet, MAX_CONTEXT_DEPTH};

/// An observed violation of an assumed likely invariant. Any violation
/// forces the speculative dynamic analysis to roll back (paper §2.3).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    /// Control reached a block assumed unreachable (LUC).
    UnreachableBlock {
        /// The block that executed.
        block: BlockId,
    },
    /// An indirect call resolved outside its likely callee set.
    UnexpectedCallee {
        /// The indirect call site.
        site: InstId,
        /// The target actually called.
        callee: FuncId,
    },
    /// A call-site chain assumed unused was reached.
    UnusedContext {
        /// The chain of call sites (outermost first).
        chain: Vec<InstId>,
    },
    /// Two lock sites assumed must-aliasing locked different objects.
    LockAlias {
        /// The site that broke the assumption.
        site: InstId,
        /// Its assumed-aliasing partner.
        partner: InstId,
    },
    /// A spawn site assumed singleton spawned more than one thread.
    NonSingletonSpawn {
        /// The spawn site.
        site: InstId,
    },
}

impl Violation {
    /// Stable lower-snake-case class slug, used as the last metric-name
    /// component of rollback-cause counters (e.g.
    /// `optft.rollback.cause.lock_alias`).
    pub fn class(&self) -> &'static str {
        match self {
            Violation::UnreachableBlock { .. } => "unreachable_block",
            Violation::UnexpectedCallee { .. } => "unexpected_callee",
            Violation::UnusedContext { .. } => "unused_context",
            Violation::LockAlias { .. } => "lock_alias",
            Violation::NonSingletonSpawn { .. } => "non_singleton_spawn",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UnreachableBlock { block } => {
                write!(f, "assumed-unreachable block {block} executed")
            }
            Violation::UnexpectedCallee { site, callee } => {
                write!(f, "indirect call {site} reached unprofiled target {callee}")
            }
            Violation::UnusedContext { chain } => {
                write!(
                    f,
                    "assumed-unused call context reached (depth {})",
                    chain.len()
                )
            }
            Violation::LockAlias { site, partner } => write!(
                f,
                "lock site {site} broke its must-alias assumption with {partner}"
            ),
            Violation::NonSingletonSpawn { site } => {
                write!(f, "assumed-singleton spawn site {site} spawned again")
            }
        }
    }
}

/// Which invariant families a checker verifies. OptFT and OptSlice assume
/// different invariants, so they enable different checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChecksEnabled {
    /// Likely-unreachable-code checks.
    pub luc: bool,
    /// Likely-callee-set checks.
    pub callees: bool,
    /// Likely-unused-call-context checks.
    pub contexts: bool,
    /// Likely-guarding-lock (must-alias) checks.
    pub lock_alias: bool,
    /// Likely-singleton-thread checks.
    pub singleton: bool,
}

impl ChecksEnabled {
    /// Every check enabled.
    pub fn all() -> Self {
        Self {
            luc: true,
            callees: true,
            contexts: true,
            lock_alias: true,
            singleton: true,
        }
    }

    /// No checks (useful for overhead measurements).
    pub fn none() -> Self {
        Self {
            luc: false,
            callees: false,
            contexts: false,
            lock_alias: false,
            singleton: false,
        }
    }

    /// The checks OptFT needs: LUC, guarding locks, singleton threads
    /// (paper §4.2). The no-custom-synchronization invariant is verified by
    /// the race detector itself (a race report is a potential
    /// mis-speculation), not by this checker.
    pub const fn for_optft() -> Self {
        Self {
            luc: true,
            callees: false,
            contexts: false,
            lock_alias: true,
            singleton: true,
        }
    }

    /// The checks OptSlice needs: LUC, callee sets, call contexts (paper
    /// §5.2).
    pub const fn for_optslice() -> Self {
        Self {
            luc: true,
            callees: true,
            contexts: true,
            lock_alias: false,
            singleton: false,
        }
    }
}

/// Counters describing how much work invariant checking performed, broken
/// down by invariant class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total individual checks executed.
    pub checks: u64,
    /// Likely-unreachable-code (block-entry) checks.
    pub luc_checks: u64,
    /// Likely-callee-set checks at indirect call/spawn sites.
    pub callee_checks: u64,
    /// Likely-used-call-context checks.
    pub context_checks: u64,
    /// Guarding-lock must-alias checks.
    pub lock_alias_checks: u64,
    /// Singleton-spawn checks.
    pub singleton_checks: u64,
    /// Context checks answered by the Bloom filter alone.
    pub bloom_fast_path: u64,
    /// Context checks that fell through to the exact set test.
    pub exact_context_checks: u64,
}

impl CheckStats {
    /// Publishes the per-class check counters under `<prefix>.check.` in
    /// `registry`.
    pub fn record(&self, registry: &oha_obs::MetricsRegistry, prefix: &str) {
        registry.add(&format!("{prefix}.check.total"), self.checks);
        registry.add(&format!("{prefix}.check.luc"), self.luc_checks);
        registry.add(&format!("{prefix}.check.callee"), self.callee_checks);
        registry.add(&format!("{prefix}.check.context"), self.context_checks);
        registry.add(
            &format!("{prefix}.check.lock_alias"),
            self.lock_alias_checks,
        );
        registry.add(&format!("{prefix}.check.singleton"), self.singleton_checks);
        registry.add(
            &format!("{prefix}.check.bloom_fast_path"),
            self.bloom_fast_path,
        );
    }
}

/// A [`Tracer`] that verifies assumed invariants during an execution.
///
/// Compose it (via [`MultiTracer`](oha_interp::MultiTracer)) with the
/// optimistic dynamic analysis; after the run, [`InvariantChecker::violations`]
/// is empty iff the speculation succeeded.
#[derive(Debug)]
pub struct InvariantChecker<'a> {
    set: &'a InvariantSet,
    enabled: ChecksEnabled,
    /// Dense visited-block lookup.
    visited: Vec<bool>,
    /// Dense "is indirect call/spawn site" lookup.
    indirect: Vec<bool>,
    bloom: Bloom,
    /// Per-thread call stacks: the call site plus the incremental context
    /// hash state at that depth.
    stacks: Vec<Vec<(InstId, (u64, u64))>>,
    partners: HashMap<InstId, Vec<InstId>>,
    first_lock: HashMap<InstId, Addr>,
    spawn_counts: HashMap<InstId, u64>,
    violations: BTreeSet<Violation>,
    stats: CheckStats,
}

impl<'a> InvariantChecker<'a> {
    /// Creates a checker for `program` verifying `set` with the given
    /// checks enabled.
    pub fn new(program: &Program, set: &'a InvariantSet, enabled: ChecksEnabled) -> Self {
        let mut visited = vec![false; program.num_blocks()];
        for b in &set.visited_blocks {
            if b.index() < visited.len() {
                visited[b.index()] = true;
            }
        }
        let mut indirect = vec![false; program.num_insts()];
        for inst in program.insts() {
            if matches!(
                inst.kind,
                InstKind::Call {
                    callee: Callee::Indirect(_),
                    ..
                } | InstKind::Spawn {
                    func: Callee::Indirect(_),
                    ..
                }
            ) {
                indirect[inst.id.index()] = true;
            }
        }
        let mut bloom = Bloom::for_elements(set.contexts.len().max(16));
        for chain in &set.contexts {
            let state = chain
                .iter()
                .fold(Bloom::seed(), |s, i| Bloom::extend(s, i.raw()));
            bloom.insert_hash(state);
        }
        let mut partners: HashMap<InstId, Vec<InstId>> = HashMap::new();
        for &(a, b) in &set.must_alias_locks {
            partners.entry(a).or_default().push(b);
            partners.entry(b).or_default().push(a);
        }
        Self {
            set,
            enabled,
            visited,
            indirect,
            bloom,
            stacks: vec![Vec::new()],
            partners,
            first_lock: HashMap::new(),
            spawn_counts: HashMap::new(),
            violations: BTreeSet::new(),
            stats: CheckStats::default(),
        }
    }

    /// The violations observed so far (deduplicated, ordered).
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter()
    }

    /// Whether any invariant was violated.
    pub fn is_violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Work counters.
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// Consumes the checker, yielding its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations.into_iter().collect()
    }

    /// Publishes check work (under `<prefix>.check.`) and violation counts
    /// by class (under `<prefix>.violation.`) into `registry`.
    pub fn record_metrics(&self, registry: &oha_obs::MetricsRegistry, prefix: &str) {
        self.stats.record(registry, prefix);
        for v in &self.violations {
            registry.add(&format!("{prefix}.violation.{}", v.class()), 1);
        }
    }

    fn stack_mut(&mut self, thread: ThreadId) -> &mut Vec<(InstId, (u64, u64))> {
        if self.stacks.len() <= thread.index() {
            self.stacks.resize(thread.index() + 1, Vec::new());
        }
        &mut self.stacks[thread.index()]
    }

    /// Compiles the checker's needs into an instrumentation plan (see
    /// [`InstrPlan`]): block-enter iff LUC checks run, call hooks at
    /// every call site when contexts are checked (plus indirect sites
    /// for callee checks), lock hooks only at sites carrying a must- or
    /// self-alias assumption. Spawn events are always dispatched by the
    /// machine, so singleton checks need no plan bits. Running under
    /// this plan is behaviourally identical to running without one.
    pub fn plan_for(program: &Program, set: &InvariantSet, enabled: ChecksEnabled) -> InstrPlan {
        let mut plan = InstrPlan::none(program.num_insts());
        if enabled.luc {
            plan.require_block_enter();
        }
        let mut lock_sites: BTreeSet<InstId> = BTreeSet::new();
        if enabled.lock_alias {
            lock_sites.extend(set.self_alias_locks.iter().copied());
            for &(a, b) in &set.must_alias_locks {
                lock_sites.insert(a);
                lock_sites.insert(b);
            }
        }
        for inst in program.insts() {
            match inst.kind {
                InstKind::Call { ref callee, .. } => {
                    let indirect = matches!(callee, Callee::Indirect(_));
                    if enabled.contexts || (enabled.callees && indirect) {
                        plan.require(inst.id, hooks::CALL);
                    }
                }
                InstKind::Lock { .. } if lock_sites.contains(&inst.id) => {
                    plan.require(inst.id, hooks::LOCK);
                }
                _ => {}
            }
        }
        plan
    }

    /// The plan matching this checker's own set and enabled checks.
    pub fn plan(&self, program: &Program) -> InstrPlan {
        Self::plan_for(program, self.set, self.enabled)
    }
}

impl Tracer for InvariantChecker<'_> {
    fn on_block_enter(&mut self, _thread: ThreadId, _frame: FrameId, block: BlockId) {
        if !self.enabled.luc {
            return;
        }
        self.stats.checks += 1;
        self.stats.luc_checks += 1;
        if !self.visited.get(block.index()).copied().unwrap_or(false) {
            self.violations
                .insert(Violation::UnreachableBlock { block });
        }
    }

    fn on_call(&mut self, ctx: EventCtx, callee: FuncId, _callee_frame: FrameId) {
        if self.enabled.callees && self.indirect[ctx.inst.index()] {
            self.stats.checks += 1;
            self.stats.callee_checks += 1;
            let ok = self
                .set
                .callee_sets
                .get(&ctx.inst)
                .is_some_and(|s| s.contains(&callee));
            if !ok {
                self.violations.insert(Violation::UnexpectedCallee {
                    site: ctx.inst,
                    callee,
                });
            }
        }
        if self.enabled.contexts {
            let stack = self.stack_mut(ctx.thread);
            let parent = stack.last().map_or(Bloom::seed(), |&(_, s)| s);
            let state = Bloom::extend(parent, ctx.inst.raw());
            stack.push((ctx.inst, state));
            let depth = stack.len();
            self.stats.checks += 1;
            self.stats.context_checks += 1;
            if depth > MAX_CONTEXT_DEPTH || !self.bloom.maybe_contains_hash(state) {
                // A Bloom miss proves the context was never profiled. (A
                // Bloom hit is accepted without an exact test — the paper's
                // probabilistic-calling-context optimization [§5.2.3, citing
                // Bond & McKinley]; the ~1% false-positive rate is the
                // accepted trade for an O(1) common-case check.)
                let chain: Vec<InstId> = self.stacks[ctx.thread.index()]
                    .iter()
                    .map(|&(i, _)| i)
                    .collect();
                self.violations.insert(Violation::UnusedContext { chain });
            } else {
                self.stats.bloom_fast_path += 1;
            }
        }
    }

    fn on_return(
        &mut self,
        thread: ThreadId,
        _frame: FrameId,
        _func: FuncId,
        _value: Option<oha_interp::Value>,
        _operand: Option<oha_ir::Operand>,
        _caller_frame: FrameId,
        _call_inst: InstId,
    ) {
        if self.enabled.contexts {
            self.stack_mut(thread).pop();
        }
    }

    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, entry: FuncId) {
        if self.enabled.callees && self.indirect[ctx.inst.index()] {
            self.stats.checks += 1;
            self.stats.callee_checks += 1;
            let ok = self
                .set
                .callee_sets
                .get(&ctx.inst)
                .is_some_and(|s| s.contains(&entry));
            if !ok {
                self.violations.insert(Violation::UnexpectedCallee {
                    site: ctx.inst,
                    callee: entry,
                });
            }
        }
        if self.enabled.singleton {
            let count = self.spawn_counts.entry(ctx.inst).or_insert(0);
            *count += 1;
            self.stats.checks += 1;
            self.stats.singleton_checks += 1;
            if *count > 1 && self.set.singleton_spawns.contains(&ctx.inst) {
                self.violations
                    .insert(Violation::NonSingletonSpawn { site: ctx.inst });
            }
        }
        if self.enabled.contexts {
            let idx = child.index();
            if self.stacks.len() <= idx {
                self.stacks.resize(idx + 1, Vec::new());
            }
            self.stacks[idx].clear();
        }
    }

    fn on_lock(&mut self, ctx: EventCtx, addr: Addr) {
        if !self.enabled.lock_alias {
            return;
        }
        let self_alias = self.set.self_alias_locks.contains(&ctx.inst);
        let partners = self.partners.get(&ctx.inst);
        if !self_alias && partners.is_none() {
            return;
        }
        self.stats.checks += 1;
        self.stats.lock_alias_checks += 1;
        // The site must always lock one object, equal to its partners'.
        if let Some(&first) = self.first_lock.get(&ctx.inst) {
            if first != addr {
                self.violations.insert(Violation::LockAlias {
                    site: ctx.inst,
                    partner: partners.map_or(ctx.inst, |p| p[0]),
                });
            }
        }
        for &p in partners.into_iter().flatten() {
            if let Some(&pa) = self.first_lock.get(&p) {
                if pa != addr {
                    self.violations.insert(Violation::LockAlias {
                        site: ctx.inst,
                        partner: p,
                    });
                }
            }
        }
        self.first_lock.entry(ctx.inst).or_insert(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileTracer, RunProfile};
    use oha_interp::{Machine, MachineConfig};
    use oha_ir::{Operand, ProgramBuilder};
    use Operand::{Const, Reg as R};

    /// Program whose behaviour depends on input: input != 0 takes a hot
    /// path; input == 0 executes the cold block and calls through a second
    /// function pointer.
    fn program() -> oha_ir::Program {
        let mut pb = ProgramBuilder::new();
        let f1 = pb.declare("one", 1);
        let f2 = pb.declare("two", 1);
        let mut m = pb.function("main", 0);
        let sel = m.input();
        let fp1 = m.addr_func(f1);
        let fp2 = m.addr_func(f2);
        let hot = m.block();
        let cold = m.block();
        let end = m.block();
        m.branch(R(sel), hot, cold);
        m.select(hot);
        m.call_indirect_void(R(fp1), vec![Const(1)]);
        m.jump(end);
        m.select(cold);
        m.call_indirect_void(R(fp2), vec![Const(2)]);
        m.jump(end);
        m.select(end);
        m.ret(None);
        let main = pb.finish_function(m);
        for name in ["one", "two"] {
            let mut f = pb.function(name, 1);
            f.ret(None);
            pb.finish_function(f);
        }
        pb.finish(main).unwrap()
    }

    fn profile(p: &oha_ir::Program, inputs: &[&[i64]]) -> InvariantSet {
        let profiles: Vec<RunProfile> = inputs
            .iter()
            .map(|input| {
                let mut t = ProfileTracer::new(p);
                Machine::new(p, MachineConfig::default()).run(input, &mut t);
                t.into_profile()
            })
            .collect();
        InvariantSet::from_profiles(&profiles)
    }

    #[test]
    fn clean_run_on_profiled_input_has_no_violations() {
        let p = program();
        let set = profile(&p, &[&[1]]);
        let mut checker = InvariantChecker::new(&p, &set, ChecksEnabled::all());
        Machine::new(&p, MachineConfig::default()).run(&[1], &mut checker);
        assert!(!checker.is_violated(), "{:?}", checker.violations);
        assert!(checker.stats().checks > 0);
    }

    #[test]
    fn unprofiled_path_violates_luc_and_callee_and_context() {
        let p = program();
        let set = profile(&p, &[&[1]]);
        let mut checker = InvariantChecker::new(&p, &set, ChecksEnabled::all());
        Machine::new(&p, MachineConfig::default()).run(&[0], &mut checker);
        let vs: Vec<_> = checker.violations().cloned().collect();
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnreachableBlock { .. })),
            "{vs:?}"
        );
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnexpectedCallee { .. })),
            "{vs:?}"
        );
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnusedContext { .. })),
            "{vs:?}"
        );
    }

    #[test]
    fn profiling_both_paths_removes_violations() {
        let p = program();
        let set = profile(&p, &[&[1], &[0]]);
        for input in [&[1][..], &[0][..]] {
            let mut checker = InvariantChecker::new(&p, &set, ChecksEnabled::all());
            Machine::new(&p, MachineConfig::default()).run(input, &mut checker);
            assert!(!checker.is_violated());
        }
    }

    #[test]
    fn disabled_checks_report_nothing() {
        let p = program();
        let set = profile(&p, &[&[1]]);
        let mut checker = InvariantChecker::new(&p, &set, ChecksEnabled::none());
        Machine::new(&p, MachineConfig::default()).run(&[0], &mut checker);
        assert!(!checker.is_violated());
        assert_eq!(checker.stats().checks, 0);
    }

    #[test]
    fn singleton_spawn_violation_detected() {
        let mut pb = ProgramBuilder::new();
        let w = pb.declare("w", 1);
        let mut m = pb.function("main", 0);
        let n = m.input();
        let head = m.block();
        let body = m.block();
        let exit = m.block();
        let i = m.copy(Const(0));
        m.jump(head);
        m.select(head);
        let c = m.cmp(oha_ir::CmpOp::Lt, R(i), R(n));
        m.branch(R(c), body, exit);
        m.select(body);
        let t = m.spawn(w, Const(0));
        m.join(R(t));
        let i1 = m.bin(oha_ir::BinOp::Add, R(i), Const(1));
        m.copy_to(i, R(i1));
        m.jump(head);
        m.select(exit);
        m.ret(None);
        let main = pb.finish_function(m);
        let mut f = pb.function("w", 1);
        f.ret(None);
        pb.finish_function(f);
        let p = pb.finish(main).unwrap();

        // Profile with one spawn; test with three.
        let set = profile(&p, &[&[1]]);
        assert_eq!(set.singleton_spawns.len(), 1);
        let mut checker = InvariantChecker::new(&p, &set, ChecksEnabled::for_optft());
        Machine::new(&p, MachineConfig::default()).run(&[3], &mut checker);
        assert!(checker
            .violations()
            .any(|v| matches!(v, Violation::NonSingletonSpawn { .. })));
    }
}
