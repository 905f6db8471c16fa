//! Compiled instrumentation plans for the step loop.
//!
//! A dynamic analysis declares up front which tracer hooks it needs at
//! which instruction sites (its *elision sets*: FastTrack's instrument
//! `BitSet` and elided-lock set, Giri's trace filter, the invariant
//! checker's watch sets). An [`InstrPlan`] compiles that declaration
//! into a dense `Vec<u8>` of hook-bit masks indexed by [`InstId`], so
//! inside the step loop each event site costs one array load and one
//! branch, and a fully elided site skips `EventCtx` construction and
//! tracer dispatch entirely.
//!
//! Two event classes are not per-instruction masked:
//!
//! * `on_block_enter` fires at block transitions (terminators), not
//!   instructions; it is gated by a plan-level flag.
//! * `on_spawn` / `on_join` / `on_thread_exit` are rare sync-skeleton
//!   events and are always dispatched.
//!
//! `on_return` fires at `Return` terminators, which have no [`InstId`];
//! it is gated by the [`hooks::CALL`] bit of the *call site* the frame
//! returns to. That is safe because every consumer (Giri's def-use
//! linking, the checker's context stack) needs return events exactly
//! when it needs the matching call events.
//!
//! **Elided events stay counted.** When the machine skips a dispatch it
//! tallies the skip in the run's own per-kind cells (one 8-byte RMW); at
//! end of run the machine flushes the tally into its hook counters in
//! bulk and deposits it in the plan, from which the owning tool drains
//! the same [`PlanElisions`] into its own elision counters. That keeps
//! the elision identity from `tests/observability.rs` (hook dispatches =
//! elided + executed) balanced to the event, with or without a plan.
//!
//! The tally is run state, so a plan is immutable while runs use it and
//! can be shared by runs on several threads. Each run deposits once, at
//! its end; runs that share one plan concurrently share its deposit, so
//! a caller that needs per-run figures drains the plan from one thread
//! between its runs.

use std::cell::Cell;
use std::sync::Mutex;

use oha_ir::InstId;

/// Per-instruction hook bits. A set bit means "dispatch this hook at
/// this site"; a clear bit means "skip it (counted)".
pub mod hooks {
    /// `on_load`.
    pub const LOAD: u8 = 1 << 0;
    /// `on_store`.
    pub const STORE: u8 = 1 << 1;
    /// `on_lock`.
    pub const LOCK: u8 = 1 << 2;
    /// `on_unlock`.
    pub const UNLOCK: u8 = 1 << 3;
    /// `on_compute`.
    pub const COMPUTE: u8 = 1 << 4;
    /// `on_call`, and `on_return` for frames created at this call site.
    pub const CALL: u8 = 1 << 5;
    /// `on_input`.
    pub const INPUT: u8 = 1 << 6;
    /// `on_output`.
    pub const OUTPUT: u8 = 1 << 7;
    /// Every hook bit.
    pub const ALL: u8 = 0xff;
}

/// Tally of plan-elided (skipped but counted) dispatches from one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanElisions {
    /// Skipped `on_load` dispatches.
    pub loads: u64,
    /// Skipped `on_store` dispatches.
    pub stores: u64,
    /// Skipped `on_lock` dispatches.
    pub locks: u64,
    /// Skipped `on_unlock` dispatches.
    pub unlocks: u64,
    /// Skipped `on_compute` dispatches.
    pub computes: u64,
    /// Skipped `on_call` dispatches.
    pub calls: u64,
    /// Skipped `on_return` dispatches.
    pub returns: u64,
    /// Skipped `on_input` dispatches.
    pub inputs: u64,
    /// Skipped `on_output` dispatches.
    pub outputs: u64,
    /// Skipped `on_block_enter` dispatches.
    pub block_enters: u64,
}

impl PlanElisions {
    /// Adds another tally into this one.
    pub(crate) fn add(&mut self, other: &PlanElisions) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.locks += other.locks;
        self.unlocks += other.unlocks;
        self.computes += other.computes;
        self.calls += other.calls;
        self.returns += other.returns;
        self.inputs += other.inputs;
        self.outputs += other.outputs;
        self.block_enters += other.block_enters;
    }

    /// Skipped memory-access dispatches (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Skipped lock-operation dispatches (locks + unlocks).
    pub fn lock_ops(&self) -> u64 {
        self.locks + self.unlocks
    }

    /// Skipped dispatches of the hooks Giri traces through its filter
    /// (load, store, compute, input, output).
    pub fn traceable(&self) -> u64 {
        self.loads + self.stores + self.computes + self.inputs + self.outputs
    }
}

/// One run's per-kind elision tallies as individual cells, so the step
/// loop's skip path costs one 8-byte read-modify-write (a whole-struct
/// `Cell<PlanElisions>` would make every skip a 80-byte copy in and
/// out — measurably slower than just dispatching on compute-heavy
/// workloads).
#[derive(Debug, Default)]
pub(crate) struct ElisionCells {
    pub(crate) loads: Cell<u64>,
    pub(crate) stores: Cell<u64>,
    pub(crate) locks: Cell<u64>,
    pub(crate) unlocks: Cell<u64>,
    pub(crate) computes: Cell<u64>,
    pub(crate) calls: Cell<u64>,
    pub(crate) returns: Cell<u64>,
    pub(crate) inputs: Cell<u64>,
    pub(crate) outputs: Cell<u64>,
    pub(crate) block_enters: Cell<u64>,
}

impl ElisionCells {
    /// Records one skipped dispatch on the cell `select` picks.
    #[inline]
    pub(crate) fn note(&self, select: impl FnOnce(&ElisionCells) -> &Cell<u64>) {
        let cell = select(self);
        cell.set(cell.get() + 1);
    }

    /// The tally so far.
    pub(crate) fn total(&self) -> PlanElisions {
        PlanElisions {
            loads: self.loads.get(),
            stores: self.stores.get(),
            locks: self.locks.get(),
            unlocks: self.unlocks.get(),
            computes: self.computes.get(),
            calls: self.calls.get(),
            returns: self.returns.get(),
            inputs: self.inputs.get(),
            outputs: self.outputs.get(),
            block_enters: self.block_enters.get(),
        }
    }
}

/// A compiled instrumentation plan: per-instruction hook masks plus the
/// block-enter flag, and the elision tallies its finished runs deposited
/// and no caller has drained yet.
#[derive(Debug)]
pub struct InstrPlan {
    mask: Vec<u8>,
    block_enter: bool,
    deposited: Mutex<PlanElisions>,
}

impl InstrPlan {
    /// A plan that dispatches nothing (every event elided-but-counted).
    /// The right plan for an uninstrumented baseline run.
    pub fn none(num_insts: usize) -> Self {
        Self {
            mask: vec![0; num_insts],
            block_enter: false,
            deposited: Mutex::default(),
        }
    }

    /// A plan that dispatches everything — behaviourally identical to
    /// running without a plan.
    pub fn all(num_insts: usize) -> Self {
        Self {
            mask: vec![hooks::ALL; num_insts],
            block_enter: true,
            deposited: Mutex::default(),
        }
    }

    /// Ors `bits` into the mask of `inst`.
    pub fn require(&mut self, inst: InstId, bits: u8) {
        self.mask[inst.index()] |= bits;
    }

    /// Enables `on_block_enter` dispatch.
    pub fn require_block_enter(&mut self) {
        self.block_enter = true;
    }

    /// Whether `on_block_enter` is dispatched.
    #[inline]
    pub fn block_enter(&self) -> bool {
        self.block_enter
    }

    /// The hook mask of `inst`: one array load.
    #[inline]
    pub fn mask(&self, inst: InstId) -> u8 {
        self.mask[inst.index()]
    }

    /// Unions another plan's requirements into this one (for composite
    /// tracers: a `MultiTracer` needs the union of its parts' plans).
    pub fn union_with(&mut self, other: &InstrPlan) {
        assert_eq!(self.mask.len(), other.mask.len(), "plans for one program");
        for (m, &o) in self.mask.iter_mut().zip(other.mask.iter()) {
            *m |= o;
        }
        self.block_enter |= other.block_enter;
    }

    /// Drains the elision tallies deposited since the last call (one per
    /// run that finished under this plan); the owning tool adds them to
    /// its own elision counters after each run.
    pub fn take_elisions(&self) -> PlanElisions {
        std::mem::take(&mut *self.lock())
    }

    /// Adds one finished run's tally (machine-internal).
    pub(crate) fn deposit(&self, run: &PlanElisions) {
        self.lock().add(run);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanElisions> {
        // The tally is plain counts: a panic elsewhere cannot leave it
        // half-written, so a poisoned lock is still safe to read.
        self.deposited
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_union_and_tally() {
        let mut a = InstrPlan::none(3);
        a.require(InstId::new(1), hooks::LOAD | hooks::STORE);
        let mut b = InstrPlan::none(3);
        b.require(InstId::new(1), hooks::LOCK);
        b.require(InstId::new(2), hooks::CALL);
        b.require_block_enter();
        a.union_with(&b);
        assert_eq!(a.mask(InstId::new(0)), 0);
        assert_eq!(
            a.mask(InstId::new(1)),
            hooks::LOAD | hooks::STORE | hooks::LOCK
        );
        assert_eq!(a.mask(InstId::new(2)), hooks::CALL);
        assert!(a.block_enter());

        let run = ElisionCells::default();
        run.note(|e| &e.loads);
        run.note(|e| &e.loads);
        run.note(|e| &e.locks);
        a.deposit(&run.total());
        let e = a.take_elisions();
        assert_eq!((e.loads, e.locks), (2, 1));
        assert_eq!(e.accesses(), 2);
        assert_eq!(a.take_elisions(), PlanElisions::default());
    }

    #[test]
    fn all_plan_dispatches_everything() {
        let p = InstrPlan::all(2);
        assert_eq!(p.mask(InstId::new(0)), hooks::ALL);
        assert!(p.block_enter());
    }
}
