//! The interpreter proper: green threads, a seeded scheduler, and the
//! instruction execution loop.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use oha_ir::{BlockId, Callee, CmpOp, FuncId, InstId, InstKind, Operand, Program, Reg, Terminator};
use oha_obs::{Counter, MetricsRegistry};

use crate::heap::Heap;
use crate::plan::{hooks, ElisionCells, InstrPlan};
use crate::shadow::ShadowMap;
use crate::tracer::{EventCtx, Tracer};
use crate::value::{Addr, FrameId, ObjId, ThreadId, Value};

/// Per-event-kind tracer-dispatch counters plus scheduler counters.
///
/// The default value is fully detached: every field is a
/// [`Counter::detached`] handle, so an unobserved machine pays one branch
/// per event and allocates nothing. [`HookCounters::attached`] registers
/// every counter under `<prefix>.hook.<event>` / `<prefix>.sched.<metric>`.
#[derive(Clone, Debug, Default)]
pub struct HookCounters {
    /// `on_load` dispatches.
    pub load: Counter,
    /// `on_store` dispatches.
    pub store: Counter,
    /// `on_lock` dispatches (acquisitions, not blocked attempts).
    pub lock: Counter,
    /// `on_unlock` dispatches.
    pub unlock: Counter,
    /// `on_spawn` dispatches.
    pub spawn: Counter,
    /// `on_join` dispatches.
    pub join: Counter,
    /// `on_thread_exit` dispatches.
    pub thread_exit: Counter,
    /// `on_block_enter` dispatches.
    pub block_enter: Counter,
    /// `on_call` dispatches.
    pub call: Counter,
    /// `on_return` dispatches.
    pub ret: Counter,
    /// `on_input` dispatches.
    pub input: Counter,
    /// `on_output` dispatches.
    pub output: Counter,
    /// `on_compute` dispatches.
    pub compute: Counter,
    /// Scheduling decisions (quantum slots granted).
    pub sched_decisions: Counter,
    /// Preemptions: slots fully consumed with the thread still runnable.
    pub sched_preemptions: Counter,
}

impl HookCounters {
    /// Registers all counters in `registry` under `prefix`.
    pub fn attached(registry: &MetricsRegistry, prefix: &str) -> Self {
        let hook = |event: &str| registry.counter(&format!("{prefix}.hook.{event}"));
        HookCounters {
            load: hook("load"),
            store: hook("store"),
            lock: hook("lock"),
            unlock: hook("unlock"),
            spawn: hook("spawn"),
            join: hook("join"),
            thread_exit: hook("thread_exit"),
            block_enter: hook("block_enter"),
            call: hook("call"),
            ret: hook("return"),
            input: hook("input"),
            output: hook("output"),
            compute: hook("compute"),
            sched_decisions: registry.counter(&format!("{prefix}.sched.decisions")),
            sched_preemptions: registry.counter(&format!("{prefix}.sched.preemptions")),
        }
    }

    /// Sum of all memory-access hook dispatches (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.load.get() + self.store.get()
    }
}

/// Configuration of a [`Machine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Scheduler seed; two runs with equal program, input and seed are
    /// bit-for-bit identical (the record/replay property).
    pub seed: u64,
    /// Abort the run after this many executed steps.
    pub max_steps: u64,
    /// Maximum instructions a thread runs before the scheduler may preempt
    /// it. Actual slot lengths are drawn uniformly from `1..=quantum`.
    pub quantum: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed_0a11,
            max_steps: 50_000_000,
            quantum: 40,
        }
    }
}

/// Why an execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Every thread ran to completion.
    Exited,
    /// No thread is runnable but some are blocked.
    Deadlock,
    /// The configured step budget was exhausted.
    StepLimit,
    /// The program performed an illegal operation.
    Error(RuntimeError),
}

/// Illegal operations an interpreted program can perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A load/store/gep/lock address operand was not a pointer.
    NotAPointer {
        /// The faulting instruction.
        inst: InstId,
    },
    /// A memory access fell outside its object.
    OutOfBounds {
        /// The faulting instruction.
        inst: InstId,
        /// The address accessed.
        addr: Addr,
    },
    /// An indirect call/spawn target was not a function pointer.
    NotAFunction {
        /// The faulting instruction.
        inst: InstId,
    },
    /// An indirect call passed the wrong number of arguments.
    BadArity {
        /// The faulting instruction.
        inst: InstId,
    },
    /// A join operand was not a thread handle.
    NotAThread {
        /// The faulting instruction.
        inst: InstId,
    },
    /// An unlock of a mutex the thread does not hold.
    UnlockNotHeld {
        /// The faulting instruction.
        inst: InstId,
        /// The mutex address.
        addr: Addr,
    },
    /// A lock of a mutex the thread already holds (locks are not
    /// reentrant).
    RelockHeld {
        /// The faulting instruction.
        inst: InstId,
        /// The mutex address.
        addr: Addr,
    },
    /// Arithmetic on a non-integer value.
    NotAnInt {
        /// The faulting instruction.
        inst: InstId,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NotAPointer { inst } => write!(f, "{inst}: address is not a pointer"),
            RuntimeError::OutOfBounds { inst, addr } => {
                write!(f, "{inst}: access to {addr} is out of bounds")
            }
            RuntimeError::NotAFunction { inst } => {
                write!(f, "{inst}: call target is not a function")
            }
            RuntimeError::BadArity { inst } => write!(f, "{inst}: wrong argument count"),
            RuntimeError::NotAThread { inst } => write!(f, "{inst}: join target is not a thread"),
            RuntimeError::UnlockNotHeld { inst, addr } => {
                write!(f, "{inst}: unlock of {addr} not held")
            }
            RuntimeError::RelockHeld { inst, addr } => {
                write!(f, "{inst}: relock of held mutex {addr}")
            }
            RuntimeError::NotAnInt { inst } => write!(f, "{inst}: arithmetic on non-integer"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The outcome of one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run stopped.
    pub status: Termination,
    /// Every value produced by `output`, with its producing site.
    pub outputs: Vec<(InstId, Value)>,
    /// Steps (instructions + terminators) executed.
    pub steps: u64,
    /// Number of threads ever created (including main).
    pub num_threads: u32,
    /// Number of objects at the end of the run (globals + allocations).
    pub num_objects: usize,
}

impl RunResult {
    /// The output stream as integers (see [`Value::to_i64_lossy`]).
    pub fn output_values(&self) -> Vec<i64> {
        self.outputs.iter().map(|(_, v)| v.to_i64_lossy()).collect()
    }
}

/// A recorded schedule: the scheduler's decisions, one `(thread, slot)`
/// pair per scheduling quantum. Replaying a trace reproduces the exact
/// interleaving independently of the seed that produced it — the explicit
/// record/replay artifact the paper's rollback assumes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    decisions: Vec<(u32, u32)>,
}

impl ScheduleTrace {
    /// Number of scheduling decisions recorded.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

enum Scheduler {
    Random(SplitMix64),
    Recording(SplitMix64, ScheduleTrace),
    Replaying(ScheduleTrace, usize),
}

impl Scheduler {
    /// Picks the next thread (from `runnable`) and its slot length.
    fn pick(&mut self, runnable: &[u32], quantum: u32) -> (ThreadId, u64) {
        match self {
            Scheduler::Random(rng) => {
                let tid = runnable[rng.below(runnable.len() as u64) as usize];
                (ThreadId(tid), 1 + rng.below(u64::from(quantum)))
            }
            Scheduler::Recording(rng, trace) => {
                let tid = runnable[rng.below(runnable.len() as u64) as usize];
                let slot = 1 + rng.below(u64::from(quantum));
                trace.decisions.push((tid, slot as u32));
                (ThreadId(tid), slot)
            }
            Scheduler::Replaying(trace, pos) => {
                let decision = trace.decisions.get(*pos).copied();
                *pos += 1;
                match decision {
                    // If the recorded thread is not runnable (possible only
                    // if the program under replay diverged), fall back to
                    // the first runnable thread.
                    Some((tid, slot)) if runnable.contains(&tid) => {
                        (ThreadId(tid), u64::from(slot.max(1)))
                    }
                    _ => (ThreadId(runnable[0]), 1),
                }
            }
        }
    }
}

/// Deterministic scheduler randomness (SplitMix64). Implemented inline so
/// schedules are stable across platforms and `rand` versions.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next() % n
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedLock(Addr),
    BlockedJoin(ThreadId),
    Done,
}

#[derive(Debug)]
struct Frame {
    func: FuncId,
    frame_id: FrameId,
    block: BlockId,
    pc: usize,
    regs: Vec<Value>,
    /// Where the return value goes in the caller, and the caller's call
    /// site. `None` for thread entry frames.
    ret_to: Option<(Option<Reg>, InstId)>,
}

#[derive(Debug)]
struct ThreadCtx {
    state: ThreadState,
    stack: Vec<Frame>,
    join_waiters: Vec<ThreadId>,
}

#[derive(Clone, Debug, Default)]
struct LockState {
    holder: Option<ThreadId>,
    waiters: Vec<ThreadId>,
}

/// Pre-decoded per-function facts, indexed by [`FuncId`], so frame
/// creation does not consult the program's function table per call.
#[derive(Clone, Copy, Debug)]
struct DecodedFunc {
    entry: BlockId,
    num_regs: u32,
    arity: u32,
}

/// Pre-resolved direct call/spawn site: the callee and everything frame
/// creation needs, with the arity check done once at decode time.
#[derive(Clone, Copy, Debug)]
struct DecodedCallee {
    func: FuncId,
    entry: BlockId,
    num_regs: u32,
    arity_ok: bool,
}

/// Per-instruction operand/callee pre-decode, built once at
/// [`Machine::new`] so the inner `step` match stops re-resolving callees
/// and re-checking arities on every visit.
#[derive(Debug)]
struct DecodedProgram {
    funcs: Vec<DecodedFunc>,
    /// `Some` at `Call`/`Spawn` sites with a direct callee, indexed by
    /// [`InstId`]; indirect sites stay `None` and resolve at run time.
    calls: Vec<Option<DecodedCallee>>,
}

impl DecodedProgram {
    fn new(program: &Program) -> Self {
        let funcs: Vec<DecodedFunc> = program
            .functions()
            .iter()
            .map(|f| DecodedFunc {
                entry: f.entry,
                num_regs: f.num_regs,
                arity: f.arity() as u32,
            })
            .collect();
        let mut calls = vec![None; program.num_insts()];
        for inst in program.insts() {
            let (callee, want_arity) = match &inst.kind {
                InstKind::Call { callee, args, .. } => (callee, args.len()),
                InstKind::Spawn { func, .. } => (func, 1),
                _ => continue,
            };
            if let Callee::Direct(f) = *callee {
                let d = funcs[f.index()];
                calls[inst.id.index()] = Some(DecodedCallee {
                    func: f,
                    entry: d.entry,
                    num_regs: d.num_regs,
                    arity_ok: d.arity as usize == want_arity,
                });
            }
        }
        Self { funcs, calls }
    }
}

/// A reusable interpreter for one program.
///
/// `Machine` is immutable; every [`Machine::run`] creates fresh execution
/// state, so the same machine can replay an execution (same input and seed)
/// or explore schedules (different seeds).
///
/// A machine stays on the thread that made it (its hook counters are
/// registry handles). To run the same program on other threads, hand them
/// its [`Machine::image`] and build a machine there.
#[derive(Clone, Debug)]
pub struct Machine<'p> {
    image: MachineImage<'p>,
    /// Shared by handle: every run construction and counting tracer holds
    /// the same `Rc` instead of paying an O(counters) clone per execution.
    metrics: Rc<HookCounters>,
}

/// The thread-shareable part of a [`Machine`]: the program, the
/// configuration and the per-instruction pre-decode. Cloning it shares
/// the decode, so a machine built from it on another thread does not
/// decode the program again.
#[derive(Clone, Debug)]
pub struct MachineImage<'p> {
    program: &'p Program,
    config: MachineConfig,
    /// Per-instruction callee/operand pre-decode, built once and shared
    /// by every execution and every machine made from this image.
    decoded: Arc<DecodedProgram>,
}

impl<'p> MachineImage<'p> {
    /// A machine with detached hook counters over this image.
    pub fn machine(&self) -> Machine<'p> {
        Machine {
            image: self.clone(),
            metrics: Rc::new(HookCounters::default()),
        }
    }
}

impl<'p> Machine<'p> {
    /// Creates a machine for `program`.
    pub fn new(program: &'p Program, config: MachineConfig) -> Self {
        MachineImage {
            program,
            config,
            decoded: Arc::new(DecodedProgram::new(program)),
        }
        .machine()
    }

    /// This machine's program, configuration and pre-decode, which can
    /// cross threads.
    pub fn image(&self) -> &MachineImage<'p> {
        &self.image
    }

    /// Attaches hook-dispatch and scheduler counters registered in
    /// `registry` under `prefix` (builder-style).
    pub fn with_metrics(mut self, registry: &MetricsRegistry, prefix: &str) -> Self {
        self.metrics = Rc::new(HookCounters::attached(registry, prefix));
        self
    }

    /// The machine's hook counters (detached unless
    /// [`with_metrics`](Machine::with_metrics) was called).
    pub fn metrics(&self) -> &HookCounters {
        &self.metrics
    }

    /// The program this machine executes.
    pub fn program(&self) -> &'p Program {
        self.image.program
    }

    /// The machine configuration.
    pub fn config(&self) -> MachineConfig {
        self.image.config
    }

    /// Executes the program on `input`, reporting events to `tracer`.
    pub fn run<T: Tracer>(&self, input: &[i64], tracer: &mut T) -> RunResult {
        self.run_with_plan(input, tracer, None)
    }

    /// [`Machine::run`] under an instrumentation plan: hooks the plan
    /// masks out are skipped (but counted) inside the step loop. `None`
    /// dispatches everything. The execution itself — scheduling, heap,
    /// outputs — is identical either way; only tracer dispatch changes.
    pub fn run_with_plan<T: Tracer>(
        &self,
        input: &[i64],
        tracer: &mut T,
        plan: Option<&InstrPlan>,
    ) -> RunResult {
        let sched = Scheduler::Random(SplitMix64(self.image.config.seed));
        self.execute(input, tracer, sched, plan, false).0
    }

    /// Test oracle: [`Machine::run`] with no plan, one instruction at a
    /// time through the per-instruction step loop, dispatching every
    /// hook. Production runs take the burst loop instead; tests compare
    /// the two (results, events, tool state and hook totals must agree).
    pub fn run_reference<T: Tracer>(&self, input: &[i64], tracer: &mut T) -> RunResult {
        let sched = Scheduler::Random(SplitMix64(self.image.config.seed));
        self.execute(input, tracer, sched, None, true).0
    }

    /// Executes the program while recording every scheduling decision;
    /// feed the returned trace to [`Machine::run_replay`] to reproduce the
    /// identical interleaving.
    pub fn run_recording<T: Tracer>(
        &self,
        input: &[i64],
        tracer: &mut T,
    ) -> (RunResult, ScheduleTrace) {
        self.run_recording_with_plan(input, tracer, None)
    }

    /// [`Machine::run_recording`] under an instrumentation plan (see
    /// [`Machine::run_with_plan`]).
    pub fn run_recording_with_plan<T: Tracer>(
        &self,
        input: &[i64],
        tracer: &mut T,
        plan: Option<&InstrPlan>,
    ) -> (RunResult, ScheduleTrace) {
        let sched =
            Scheduler::Recording(SplitMix64(self.image.config.seed), ScheduleTrace::default());
        match self.execute(input, tracer, sched, plan, false) {
            (result, Scheduler::Recording(_, trace)) => (result, trace),
            _ => unreachable!("recording scheduler preserved"),
        }
    }

    /// Re-executes the program following a recorded schedule. With the same
    /// program and input this reproduces the recorded run exactly — the
    /// re-execution primitive speculation rollback uses.
    pub fn run_replay<T: Tracer>(
        &self,
        input: &[i64],
        trace: &ScheduleTrace,
        tracer: &mut T,
    ) -> RunResult {
        self.run_replay_with_plan(input, trace, tracer, None)
    }

    /// [`Machine::run_replay`] under an instrumentation plan (see
    /// [`Machine::run_with_plan`]).
    pub fn run_replay_with_plan<T: Tracer>(
        &self,
        input: &[i64],
        trace: &ScheduleTrace,
        tracer: &mut T,
        plan: Option<&InstrPlan>,
    ) -> RunResult {
        let sched = Scheduler::Replaying(trace.clone(), 0);
        self.execute(input, tracer, sched, plan, false).0
    }

    /// One execution under `sched`, with the machine's hook counters
    /// wrapped around `tracer`.
    fn execute<T: Tracer>(
        &self,
        input: &[i64],
        tracer: &mut T,
        sched: Scheduler,
        plan: Option<&InstrPlan>,
        stepwise: bool,
    ) -> (RunResult, Scheduler) {
        let mut counting = crate::tracer::CountingTracer {
            inner: tracer,
            counters: Rc::clone(&self.metrics),
        };
        Execution::new(
            self.image.program,
            &self.image.decoded,
            self.image.config,
            input,
            sched,
            Rc::clone(&self.metrics),
            plan,
        )
        .run(&mut counting, stepwise)
    }
}

struct Execution<'p, 'i> {
    program: &'p Program,
    decoded: &'i DecodedProgram,
    config: MachineConfig,
    input: &'i [i64],
    input_pos: usize,
    heap: Heap,
    threads: Vec<ThreadCtx>,
    locks: ShadowMap<LockState>,
    scheduler: Scheduler,
    next_frame: u64,
    steps: u64,
    outputs: Vec<(InstId, Value)>,
    counters: Rc<HookCounters>,
    /// Hook mask per site; `None` dispatches everything.
    plan: Option<&'i InstrPlan>,
    /// This run's plan-skipped dispatches, deposited in the plan at the
    /// end of the run.
    elided: ElisionCells,
    /// Register storage recycled from popped frames; bounded by the
    /// deepest call stack the run reaches.
    regs_pool: Vec<Vec<Value>>,
    /// Argument buffers recycled from frame creation.
    argv_pool: Vec<Vec<Value>>,
}

enum StepOutcome {
    Continue,
    /// The thread blocked or finished; end its scheduling slot.
    Yield,
    Fault(RuntimeError),
}

/// Outcome of one whole scheduling slot.
enum SlotOutcome {
    /// The slot ran to completion (`yielded: false`, a preemption) or the
    /// thread gave up the remainder (`yielded: true`).
    Done {
        yielded: bool,
    },
    Fault(RuntimeError),
    StepLimit,
}

/// Builds an event context — called only at sites that dispatch.
#[inline]
fn ctx(tid: ThreadId, frame: FrameId, inst: InstId) -> EventCtx {
    EventCtx {
        thread: tid,
        frame,
        inst,
    }
}

impl<'p, 'i> Execution<'p, 'i> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        program: &'p Program,
        decoded: &'i DecodedProgram,
        config: MachineConfig,
        input: &'i [i64],
        scheduler: Scheduler,
        counters: Rc<HookCounters>,
        plan: Option<&'i InstrPlan>,
    ) -> Self {
        let mut exec = Self {
            program,
            decoded,
            config,
            input,
            input_pos: 0,
            heap: Heap::new(program),
            threads: Vec::new(),
            locks: ShadowMap::new(LockState::default()),
            scheduler,
            next_frame: 0,
            steps: 0,
            outputs: Vec::new(),
            counters,
            plan,
            elided: ElisionCells::default(),
            regs_pool: Vec::new(),
            argv_pool: Vec::new(),
        };
        let entry = program.entry();
        let frame = exec.make_frame(entry, Vec::new(), None);
        exec.threads.push(ThreadCtx {
            state: ThreadState::Runnable,
            stack: vec![frame],
            join_waiters: Vec::new(),
        });
        exec
    }

    fn make_frame(
        &mut self,
        func: FuncId,
        args: Vec<Value>,
        ret_to: Option<(Option<Reg>, InstId)>,
    ) -> Frame {
        let f = self.decoded.funcs[func.index()];
        self.make_frame_at(func, f.entry, f.num_regs, args, ret_to)
    }

    /// Frame creation with pre-decoded entry/register facts (direct call
    /// sites skip the function-table lookup entirely).
    fn make_frame_at(
        &mut self,
        func: FuncId,
        entry: BlockId,
        num_regs: u32,
        args: Vec<Value>,
        ret_to: Option<(Option<Reg>, InstId)>,
    ) -> Frame {
        // Register storage comes from the pool of popped frames and the
        // spent argument buffer goes back to its pool, so steady-state
        // calls allocate nothing. Contents equal a fresh zeroed vector.
        let mut regs = self.regs_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(num_regs as usize, Value::default());
        regs[..args.len()].copy_from_slice(&args);
        let mut spent = args;
        spent.clear();
        self.argv_pool.push(spent);
        let frame_id = FrameId(self.next_frame);
        self.next_frame += 1;
        Frame {
            func,
            frame_id,
            block: entry,
            pc: 0,
            regs,
            ret_to,
        }
    }

    /// Whether the plan dispatches `bit` at `inst` (everything without a
    /// plan): one array load and one branch.
    #[inline]
    fn wants(&self, inst: InstId, bit: u8) -> bool {
        match self.plan {
            None => true,
            Some(p) => p.mask(inst) & bit != 0,
        }
    }

    /// Whether block-enter events are dispatched.
    #[inline]
    fn block_enter_wanted(&self) -> bool {
        self.plan.is_none_or(InstrPlan::block_enter)
    }

    /// Tallies one plan-skipped dispatch (only a plan skips any). The
    /// matching hook counter is deliberately NOT bumped here — the run
    /// loop flushes the tally into the hook counters in bulk at end of
    /// run, keeping the skip path at one 8-byte RMW per event.
    #[inline]
    fn note_elided(&self, select: impl FnOnce(&ElisionCells) -> &Cell<u64>) {
        self.elided.note(select);
    }

    /// Dispatches or elides a block-enter event.
    #[inline]
    fn block_enter_event<T: Tracer>(
        &self,
        tracer: &mut T,
        tid: ThreadId,
        frame: FrameId,
        block: BlockId,
    ) {
        if self.block_enter_wanted() {
            tracer.on_block_enter(tid, frame, block);
        } else {
            self.note_elided(|e| &e.block_enters);
        }
    }

    /// Dispatches or elides a compute event.
    #[inline]
    fn compute_event<T: Tracer>(
        &self,
        tracer: &mut T,
        pmask: u8,
        tid: ThreadId,
        frame: FrameId,
        inst: InstId,
    ) {
        if pmask & hooks::COMPUTE != 0 {
            tracer.on_compute(EventCtx {
                thread: tid,
                frame,
                inst,
            });
        } else {
            self.note_elided(|e| &e.computes);
        }
    }

    /// Runs to termination. Each scheduling slot goes through the
    /// burst loop [`Execution::step_slot`], or with `stepwise` through
    /// [`Execution::step`] one instruction at a time (the test oracle).
    fn run<T: Tracer>(mut self, tracer: &mut T, stepwise: bool) -> (RunResult, Scheduler) {
        // The main thread enters its entry block.
        {
            let frame = &self.threads[0].stack[0];
            let (frame_id, block) = (frame.frame_id, frame.block);
            self.block_enter_event(tracer, ThreadId::MAIN, frame_id, block);
        }

        // Reused across scheduling decisions: one decision fires every
        // few steps, so a fresh `collect` here is an allocation on the
        // hot path for nothing — the contents are identical either way.
        let mut runnable: Vec<u32> = Vec::with_capacity(self.threads.len());
        let status = loop {
            // Collect runnable threads.
            runnable.clear();
            runnable.extend(
                self.threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.state == ThreadState::Runnable)
                    .map(|(i, _)| i as u32),
            );
            if runnable.is_empty() {
                if self.threads.iter().all(|t| t.state == ThreadState::Done) {
                    break Termination::Exited;
                }
                break Termination::Deadlock;
            }
            let (tid, slot) = self.scheduler.pick(&runnable, self.config.quantum);
            self.counters.sched_decisions.inc();

            let outcome = if stepwise {
                self.step_slot_stepwise(tid, slot, tracer)
            } else {
                self.step_slot(tid, slot, tracer)
            };
            let yielded = match outcome {
                SlotOutcome::Done { yielded } => yielded,
                SlotOutcome::Fault(e) => break Termination::Error(e),
                SlotOutcome::StepLimit => break Termination::StepLimit,
            };
            // The slot ran out with the thread still willing to run: that is
            // a preemption, the scheduler event OptFT's framework cost models.
            if !yielded {
                self.counters.sched_preemptions.inc();
            }
        };

        // Bulk-flush the run's elision tally into the hook counters, so
        // the identity "hook counter = dispatched + elided" holds without
        // a per-event counter bump on the skip path, and deposit it in the
        // plan for the owning tool's `take_elisions`.
        if let Some(p) = self.plan {
            let e = self.elided.total();
            p.deposit(&e);
            self.counters.load.add(e.loads);
            self.counters.store.add(e.stores);
            self.counters.lock.add(e.locks);
            self.counters.unlock.add(e.unlocks);
            self.counters.compute.add(e.computes);
            self.counters.call.add(e.calls);
            self.counters.ret.add(e.returns);
            self.counters.input.add(e.inputs);
            self.counters.output.add(e.outputs);
            self.counters.block_enter.add(e.block_enters);
        }

        (
            RunResult {
                status,
                outputs: self.outputs,
                steps: self.steps,
                num_threads: self.threads.len() as u32,
                num_objects: self.heap.num_objects(),
            },
            self.scheduler,
        )
    }

    /// The running thread's current frame.
    #[inline]
    fn cur_frame(&self, tid: ThreadId) -> &Frame {
        self.threads[tid.index()]
            .stack
            .last()
            .expect("running thread has a frame")
    }

    /// Operand evaluation against an already-resolved frame, so
    /// multi-operand instructions resolve the frame once per visit.
    #[inline]
    fn eval_in(frame: &Frame, op: Operand) -> Value {
        match op {
            Operand::Const(c) => Value::Int(c),
            Operand::Reg(r) => frame.regs[r.index()],
        }
    }

    fn eval(&self, tid: ThreadId, op: Operand) -> Value {
        match op {
            Operand::Const(c) => Value::Int(c),
            Operand::Reg(r) => self.cur_frame(tid).regs[r.index()],
        }
    }

    fn set_reg(&mut self, tid: ThreadId, r: Reg, v: Value) {
        let frame = self.threads[tid.index()]
            .stack
            .last_mut()
            .expect("running thread has a frame");
        frame.regs[r.index()] = v;
    }

    fn advance_pc(&mut self, tid: ThreadId) {
        let frame = self.threads[tid.index()]
            .stack
            .last_mut()
            .expect("running thread has a frame");
        frame.pc += 1;
    }

    fn ptr_operand(&self, tid: ThreadId, inst: InstId, op: Operand) -> Result<Addr, RuntimeError> {
        match self.eval(tid, op) {
            Value::Ptr(a) => Ok(a),
            _ => Err(RuntimeError::NotAPointer { inst }),
        }
    }

    /// Executes one instruction or terminator of thread `tid`.
    fn step<T: Tracer>(&mut self, tid: ThreadId, tracer: &mut T) -> StepOutcome {
        self.steps += 1;
        let (_func, frame_id, block, pc) = {
            let frame = self.threads[tid.index()]
                .stack
                .last()
                .expect("running thread has a frame");
            (frame.func, frame.frame_id, frame.block, frame.pc)
        };
        // Borrow the instruction from the program reference itself (not
        // through `self`), so the hot loop never clones instruction data.
        let program: &'p Program = self.program;
        let block_data = program.block(block);

        if pc >= block_data.insts.len() {
            return self.step_terminator(tid, frame_id, block, tracer);
        }

        let inst_id = block_data.insts[pc].id;
        let kind: &'p InstKind = &block_data.insts[pc].kind;
        // One array load decides what this site dispatches; a fully
        // elided site never builds an `EventCtx` or calls the tracer.
        let pmask = match self.plan {
            None => hooks::ALL,
            Some(p) => p.mask(inst_id),
        };

        match *kind {
            InstKind::Copy { dst, src } => {
                let v = self.eval(tid, src);
                self.set_reg(tid, dst, v);
                self.compute_event(tracer, pmask, tid, frame_id, inst_id);
            }
            InstKind::BinOp { dst, op, lhs, rhs } => {
                let (a, b) = {
                    let frame = self.cur_frame(tid);
                    (Self::eval_in(frame, lhs), Self::eval_in(frame, rhs))
                };
                let v = match (a, b) {
                    (Value::Int(x), Value::Int(y)) => Value::Int(op.eval(x, y)),
                    _ => match op {
                        oha_ir::BinOp::Cmp(CmpOp::Eq) => Value::Int(i64::from(a == b)),
                        oha_ir::BinOp::Cmp(CmpOp::Ne) => Value::Int(i64::from(a != b)),
                        _ => return StepOutcome::Fault(RuntimeError::NotAnInt { inst: inst_id }),
                    },
                };
                self.set_reg(tid, dst, v);
                self.compute_event(tracer, pmask, tid, frame_id, inst_id);
            }
            InstKind::Alloc { dst, fields } => {
                let obj = self.heap.alloc(fields, inst_id);
                self.set_reg(tid, dst, Value::Ptr(Addr::new(obj, 0)));
                self.compute_event(tracer, pmask, tid, frame_id, inst_id);
            }
            InstKind::AddrGlobal { dst, global } => {
                self.set_reg(tid, dst, Value::Ptr(Addr::new(ObjId(global.raw()), 0)));
                self.compute_event(tracer, pmask, tid, frame_id, inst_id);
            }
            InstKind::AddrFunc { dst, func } => {
                self.set_reg(tid, dst, Value::Func(func));
                self.compute_event(tracer, pmask, tid, frame_id, inst_id);
            }
            InstKind::Gep { dst, base, field } => {
                let a = match self.ptr_operand(tid, inst_id, base) {
                    Ok(a) => a,
                    Err(e) => return StepOutcome::Fault(e),
                };
                self.set_reg(tid, dst, Value::Ptr(a.offset(field)));
                self.compute_event(tracer, pmask, tid, frame_id, inst_id);
            }
            InstKind::Load { dst, addr, field } => {
                let a = match self.ptr_operand(tid, inst_id, addr) {
                    Ok(a) => a.offset(field),
                    Err(e) => return StepOutcome::Fault(e),
                };
                let v = match self.heap.load(a) {
                    Some(v) => v,
                    None => {
                        return StepOutcome::Fault(RuntimeError::OutOfBounds {
                            inst: inst_id,
                            addr: a,
                        })
                    }
                };
                self.set_reg(tid, dst, v);
                if pmask & hooks::LOAD != 0 {
                    tracer.on_load(ctx(tid, frame_id, inst_id), a, v);
                } else {
                    self.note_elided(|e| &e.loads);
                }
            }
            InstKind::Store { addr, field, value } => {
                let (av, v) = {
                    let frame = self.cur_frame(tid);
                    (Self::eval_in(frame, addr), Self::eval_in(frame, value))
                };
                let a = match av {
                    Value::Ptr(a) => a.offset(field),
                    _ => return StepOutcome::Fault(RuntimeError::NotAPointer { inst: inst_id }),
                };
                if !self.heap.store(a, v) {
                    return StepOutcome::Fault(RuntimeError::OutOfBounds {
                        inst: inst_id,
                        addr: a,
                    });
                }
                if pmask & hooks::STORE != 0 {
                    tracer.on_store(ctx(tid, frame_id, inst_id), a, v);
                } else {
                    self.note_elided(|e| &e.stores);
                }
            }
            InstKind::Call { .. }
            | InstKind::Lock { .. }
            | InstKind::Unlock { .. }
            | InstKind::Spawn { .. }
            | InstKind::Join { .. } => {
                return self.step_cold(tid, tracer, frame_id, inst_id, kind, pmask)
            }
            InstKind::Input { dst } => {
                let v = Value::Int(self.input.get(self.input_pos).copied().unwrap_or(0));
                self.input_pos += 1;
                self.set_reg(tid, dst, v);
                if pmask & hooks::INPUT != 0 {
                    tracer.on_input(ctx(tid, frame_id, inst_id), v);
                } else {
                    self.note_elided(|e| &e.inputs);
                }
            }
            InstKind::Output { value } => {
                let v = self.eval(tid, value);
                self.outputs.push((inst_id, v));
                if pmask & hooks::OUTPUT != 0 {
                    tracer.on_output(ctx(tid, frame_id, inst_id), v);
                } else {
                    self.note_elided(|e| &e.outputs);
                }
            }
        }
        self.advance_pc(tid);
        StepOutcome::Continue
    }

    /// Executes the rare control/sync instruction kinds (call, lock,
    /// unlock, spawn, join), reached through [`Execution::step`] — also
    /// from the burst loop's cold fallback.
    fn step_cold<T: Tracer>(
        &mut self,
        tid: ThreadId,
        tracer: &mut T,
        frame_id: FrameId,
        inst_id: InstId,
        kind: &InstKind,
        pmask: u8,
    ) -> StepOutcome {
        match *kind {
            InstKind::Call {
                dst,
                ref callee,
                ref args,
            } => {
                let (target, entry, num_regs) = match self.decoded.calls[inst_id.index()] {
                    // Direct call: callee facts pre-decoded, arity
                    // pre-checked at machine construction.
                    Some(d) => {
                        if !d.arity_ok {
                            return StepOutcome::Fault(RuntimeError::BadArity { inst: inst_id });
                        }
                        (d.func, d.entry, d.num_regs)
                    }
                    None => {
                        let target = match self.resolve_callee(tid, inst_id, *callee) {
                            Ok(t) => t,
                            Err(e) => return StepOutcome::Fault(e),
                        };
                        let f = self.decoded.funcs[target.index()];
                        if f.arity as usize != args.len() {
                            return StepOutcome::Fault(RuntimeError::BadArity { inst: inst_id });
                        }
                        (target, f.entry, f.num_regs)
                    }
                };
                let argv: Vec<Value> = {
                    // A pooled buffer, returned by `make_frame_at`.
                    let mut argv = self.argv_pool.pop().unwrap_or_default();
                    let frame = self.cur_frame(tid);
                    argv.extend(args.iter().map(|&a| Self::eval_in(frame, a)));
                    argv
                };
                // Resume after the call on return.
                self.advance_pc(tid);
                let frame = self.make_frame_at(target, entry, num_regs, argv, Some((dst, inst_id)));
                let callee_frame = frame.frame_id;
                self.threads[tid.index()].stack.push(frame);
                if pmask & hooks::CALL != 0 {
                    tracer.on_call(ctx(tid, frame_id, inst_id), target, callee_frame);
                } else {
                    self.note_elided(|e| &e.calls);
                }
                self.block_enter_event(tracer, tid, callee_frame, entry);
                return StepOutcome::Continue;
            }
            InstKind::Lock { addr } => {
                let a = match self.ptr_operand(tid, inst_id, addr) {
                    Ok(a) => a,
                    Err(e) => return StepOutcome::Fault(e),
                };
                let lock = self.locks.get_mut(a);
                match lock.holder {
                    None => {
                        lock.holder = Some(tid);
                        if pmask & hooks::LOCK != 0 {
                            tracer.on_lock(ctx(tid, frame_id, inst_id), a);
                        } else {
                            self.note_elided(|e| &e.locks);
                        }
                    }
                    Some(h) if h == tid => {
                        return StepOutcome::Fault(RuntimeError::RelockHeld {
                            inst: inst_id,
                            addr: a,
                        })
                    }
                    Some(_) => {
                        if !lock.waiters.contains(&tid) {
                            lock.waiters.push(tid);
                        }
                        self.threads[tid.index()].state = ThreadState::BlockedLock(a);
                        // Do not advance the pc: the lock is retried on wake.
                        return StepOutcome::Yield;
                    }
                }
            }
            InstKind::Unlock { addr } => {
                let a = match self.ptr_operand(tid, inst_id, addr) {
                    Ok(a) => a,
                    Err(e) => return StepOutcome::Fault(e),
                };
                if self.locks.get(a).holder != Some(tid) {
                    return StepOutcome::Fault(RuntimeError::UnlockNotHeld {
                        inst: inst_id,
                        addr: a,
                    });
                }
                // Dispatch before releasing, matching the original order.
                if pmask & hooks::UNLOCK != 0 {
                    tracer.on_unlock(ctx(tid, frame_id, inst_id), a);
                } else {
                    self.note_elided(|e| &e.unlocks);
                }
                let lock = self.locks.get_mut(a);
                lock.holder = None;
                let waiters = std::mem::take(&mut lock.waiters);
                for w in waiters {
                    if self.threads[w.index()].state == ThreadState::BlockedLock(a) {
                        self.threads[w.index()].state = ThreadState::Runnable;
                    }
                }
            }
            InstKind::Spawn { dst, ref func, arg } => {
                let (target, entry, num_regs) = match self.decoded.calls[inst_id.index()] {
                    Some(d) => {
                        if !d.arity_ok {
                            return StepOutcome::Fault(RuntimeError::BadArity { inst: inst_id });
                        }
                        (d.func, d.entry, d.num_regs)
                    }
                    None => {
                        let target = match self.resolve_callee(tid, inst_id, *func) {
                            Ok(t) => t,
                            Err(e) => return StepOutcome::Fault(e),
                        };
                        let f = self.decoded.funcs[target.index()];
                        if f.arity != 1 {
                            return StepOutcome::Fault(RuntimeError::BadArity { inst: inst_id });
                        }
                        (target, f.entry, f.num_regs)
                    }
                };
                let argv = vec![self.eval(tid, arg)];
                let child = ThreadId(self.threads.len() as u32);
                let frame = self.make_frame_at(target, entry, num_regs, argv, None);
                let child_frame = frame.frame_id;
                self.threads.push(ThreadCtx {
                    state: ThreadState::Runnable,
                    stack: vec![frame],
                    join_waiters: Vec::new(),
                });
                self.set_reg(tid, dst, Value::Thread(child));
                // Spawn/join/thread-exit are rare sync-skeleton events:
                // always dispatched, never plan-elided.
                tracer.on_spawn(ctx(tid, frame_id, inst_id), child, target);
                self.block_enter_event(tracer, child, child_frame, entry);
            }
            InstKind::Join { thread } => {
                let t = match self.eval(tid, thread) {
                    Value::Thread(t) => t,
                    _ => return StepOutcome::Fault(RuntimeError::NotAThread { inst: inst_id }),
                };
                if self.threads[t.index()].state == ThreadState::Done {
                    tracer.on_join(ctx(tid, frame_id, inst_id), t);
                } else {
                    if !self.threads[t.index()].join_waiters.contains(&tid) {
                        self.threads[t.index()].join_waiters.push(tid);
                    }
                    self.threads[tid.index()].state = ThreadState::BlockedJoin(t);
                    // Do not advance the pc: the join is retried on wake.
                    return StepOutcome::Yield;
                }
            }
            _ => unreachable!("hot instruction kinds are handled by the step loops"),
        }
        self.advance_pc(tid);
        StepOutcome::Continue
    }

    /// Runs one whole scheduling slot (up to `slot` steps of thread
    /// `tid`). Hot instructions — register computes, loads/stores,
    /// jumps and branches — execute in a burst that keeps the thread,
    /// frame, program and plan resolved across instructions
    /// (the plan, program and decode-table borrows are independent of
    /// `&mut self`, and every hot arm touches a disjoint field, so the
    /// frame borrow can live across iterations). Returns-with-a-caller
    /// and pre-decoded direct calls exit the burst just far enough for
    /// the frame borrow to die, pop/push the frame inline, and re-enter.
    /// Genuinely cold instructions — indirect calls, thread exits,
    /// lock/unlock, spawn/join — fall back to [`Execution::step`] one
    /// instruction at a time. Step accounting, fault order, event
    /// order and payloads are identical to running the slot through
    /// `step` `slot` times, so executions are bit-for-bit identical.
    fn step_slot<T: Tracer>(&mut self, tid: ThreadId, slot: u64, tracer: &mut T) -> SlotOutcome {
        /// How a burst hands a frame-changing instruction to the code
        /// after it (where the frame borrow is out of scope).
        enum BurstExit {
            /// A `Return` with a caller: pop the frame.
            Ret(Option<Operand>),
            /// A pre-decoded direct call: push the callee frame.
            Call {
                dst: Option<Reg>,
                inst_id: InstId,
                caller_frame: FrameId,
                pmask: u8,
                d: DecodedCallee,
                argv: Vec<Value>,
            },
        }
        let ti = tid.index();
        let program: &'p Program = self.program;
        let decoded = self.decoded;
        let plan = self.plan;
        let mut left = slot;
        while left > 0 {
            // `step_slot_stepwise` checks the step budget before every
            // step; the burst below never exceeds it, so checking once
            // per burst entry is equivalent.
            if self.steps >= self.config.max_steps {
                return SlotOutcome::StepLimit;
            }
            let budget = left.min(self.config.max_steps - self.steps);
            let mut done: u64 = 0;
            let mut fault = None;
            let mut cold = false;
            {
                let Self {
                    threads,
                    heap,
                    input,
                    input_pos,
                    outputs,
                    next_frame,
                    regs_pool,
                    argv_pool,
                    elided,
                    ..
                } = self;
                let thread = &mut threads[ti];
                // Each `'frames` iteration runs one frame until it
                // returns (inline pop, then re-resolve the caller), the
                // budget runs out, a fault fires, or a cold instruction
                // needs the per-instruction path.
                'frames: while done < budget {
                    let frame = thread.stack.last_mut().expect("running thread has a frame");
                    let exit = 'burst: loop {
                        if done >= budget {
                            break 'frames;
                        }
                        let (frame_id, block, pc) = (frame.frame_id, frame.block, frame.pc);
                        let block_data = program.block(block);
                        if pc >= block_data.insts.len() {
                            match block_data.terminator {
                                Terminator::Jump(b) => {
                                    done += 1;
                                    frame.block = b;
                                    frame.pc = 0;
                                    if plan.is_none_or(InstrPlan::block_enter) {
                                        tracer.on_block_enter(tid, frame_id, b);
                                    } else {
                                        elided.note(|e| &e.block_enters);
                                    }
                                    continue 'burst;
                                }
                                Terminator::Branch {
                                    cond,
                                    then_bb,
                                    else_bb,
                                } => {
                                    done += 1;
                                    let b = if Self::eval_in(frame, cond).truthy() {
                                        then_bb
                                    } else {
                                        else_bb
                                    };
                                    frame.block = b;
                                    frame.pc = 0;
                                    if plan.is_none_or(InstrPlan::block_enter) {
                                        tracer.on_block_enter(tid, frame_id, b);
                                    } else {
                                        elided.note(|e| &e.block_enters);
                                    }
                                    continue 'burst;
                                }
                                Terminator::Return(op) => {
                                    // Thread exit (no caller): cold.
                                    if frame.ret_to.is_none() {
                                        cold = true;
                                        break 'frames;
                                    }
                                    done += 1;
                                    break 'burst BurstExit::Ret(op);
                                }
                            }
                        }
                        let inst_id = block_data.insts[pc].id;
                        let pmask = match plan {
                            None => hooks::ALL,
                            Some(p) => p.mask(inst_id),
                        };
                        macro_rules! compute_event {
                            () => {
                                if pmask & hooks::COMPUTE != 0 {
                                    tracer.on_compute(ctx(tid, frame_id, inst_id));
                                } else {
                                    elided.note(|e| &e.computes);
                                }
                            };
                        }
                        match block_data.insts[pc].kind {
                            InstKind::Copy { dst, src } => {
                                done += 1;
                                let v = Self::eval_in(frame, src);
                                frame.regs[dst.index()] = v;
                                frame.pc += 1;
                                compute_event!();
                            }
                            InstKind::BinOp { dst, op, lhs, rhs } => {
                                done += 1;
                                let (a, b) = (Self::eval_in(frame, lhs), Self::eval_in(frame, rhs));
                                let v = match (a, b) {
                                    (Value::Int(x), Value::Int(y)) => Value::Int(op.eval(x, y)),
                                    _ => match op {
                                        oha_ir::BinOp::Cmp(CmpOp::Eq) => {
                                            Value::Int(i64::from(a == b))
                                        }
                                        oha_ir::BinOp::Cmp(CmpOp::Ne) => {
                                            Value::Int(i64::from(a != b))
                                        }
                                        _ => {
                                            fault = Some(RuntimeError::NotAnInt { inst: inst_id });
                                            break 'frames;
                                        }
                                    },
                                };
                                frame.regs[dst.index()] = v;
                                frame.pc += 1;
                                compute_event!();
                            }
                            InstKind::Alloc { dst, fields } => {
                                done += 1;
                                let obj = heap.alloc(fields, inst_id);
                                frame.regs[dst.index()] = Value::Ptr(Addr::new(obj, 0));
                                frame.pc += 1;
                                compute_event!();
                            }
                            InstKind::AddrGlobal { dst, global } => {
                                done += 1;
                                frame.regs[dst.index()] =
                                    Value::Ptr(Addr::new(ObjId(global.raw()), 0));
                                frame.pc += 1;
                                compute_event!();
                            }
                            InstKind::AddrFunc { dst, func } => {
                                done += 1;
                                frame.regs[dst.index()] = Value::Func(func);
                                frame.pc += 1;
                                compute_event!();
                            }
                            InstKind::Gep { dst, base, field } => {
                                done += 1;
                                let a = match Self::eval_in(frame, base) {
                                    Value::Ptr(a) => a,
                                    _ => {
                                        fault = Some(RuntimeError::NotAPointer { inst: inst_id });
                                        break 'frames;
                                    }
                                };
                                frame.regs[dst.index()] = Value::Ptr(a.offset(field));
                                frame.pc += 1;
                                compute_event!();
                            }
                            InstKind::Load { dst, addr, field } => {
                                done += 1;
                                let a = match Self::eval_in(frame, addr) {
                                    Value::Ptr(a) => a.offset(field),
                                    _ => {
                                        fault = Some(RuntimeError::NotAPointer { inst: inst_id });
                                        break 'frames;
                                    }
                                };
                                let v = match heap.load(a) {
                                    Some(v) => v,
                                    None => {
                                        fault = Some(RuntimeError::OutOfBounds {
                                            inst: inst_id,
                                            addr: a,
                                        });
                                        break 'frames;
                                    }
                                };
                                frame.regs[dst.index()] = v;
                                frame.pc += 1;
                                if pmask & hooks::LOAD != 0 {
                                    tracer.on_load(ctx(tid, frame_id, inst_id), a, v);
                                } else {
                                    elided.note(|e| &e.loads);
                                }
                            }
                            InstKind::Store { addr, field, value } => {
                                done += 1;
                                let (av, v) =
                                    (Self::eval_in(frame, addr), Self::eval_in(frame, value));
                                let a = match av {
                                    Value::Ptr(a) => a.offset(field),
                                    _ => {
                                        fault = Some(RuntimeError::NotAPointer { inst: inst_id });
                                        break 'frames;
                                    }
                                };
                                if !heap.store(a, v) {
                                    fault = Some(RuntimeError::OutOfBounds {
                                        inst: inst_id,
                                        addr: a,
                                    });
                                    break 'frames;
                                }
                                frame.pc += 1;
                                if pmask & hooks::STORE != 0 {
                                    tracer.on_store(ctx(tid, frame_id, inst_id), a, v);
                                } else {
                                    elided.note(|e| &e.stores);
                                }
                            }
                            InstKind::Input { dst } => {
                                done += 1;
                                let v = Value::Int(input.get(*input_pos).copied().unwrap_or(0));
                                *input_pos += 1;
                                frame.regs[dst.index()] = v;
                                frame.pc += 1;
                                if pmask & hooks::INPUT != 0 {
                                    tracer.on_input(ctx(tid, frame_id, inst_id), v);
                                } else {
                                    elided.note(|e| &e.inputs);
                                }
                            }
                            InstKind::Output { value } => {
                                done += 1;
                                let v = Self::eval_in(frame, value);
                                frame.pc += 1;
                                outputs.push((inst_id, v));
                                if pmask & hooks::OUTPUT != 0 {
                                    tracer.on_output(ctx(tid, frame_id, inst_id), v);
                                } else {
                                    elided.note(|e| &e.outputs);
                                }
                            }
                            InstKind::Call { dst, ref args, .. } => {
                                // Indirect (undecoded) call sites take
                                // the per-instruction path.
                                let Some(d) = decoded.calls[inst_id.index()] else {
                                    cold = true;
                                    break 'frames;
                                };
                                done += 1;
                                if !d.arity_ok {
                                    fault = Some(RuntimeError::BadArity { inst: inst_id });
                                    break 'frames;
                                }
                                let mut argv = argv_pool.pop().unwrap_or_default();
                                argv.extend(args.iter().map(|&a| Self::eval_in(frame, a)));
                                // Resume after the call on return.
                                frame.pc += 1;
                                break 'burst BurstExit::Call {
                                    dst,
                                    inst_id,
                                    caller_frame: frame_id,
                                    pmask,
                                    d,
                                    argv,
                                };
                            }
                            InstKind::Lock { .. }
                            | InstKind::Unlock { .. }
                            | InstKind::Spawn { .. }
                            | InstKind::Join { .. } => {
                                cold = true;
                                break 'frames;
                            }
                        }
                    };
                    match exit {
                        // Inline return: same pops, writes and event
                        // payload as `step_terminator`, plus register
                        // recycling.
                        BurstExit::Ret(ret_op) => {
                            let mut popped =
                                thread.stack.pop().expect("running thread has a frame");
                            let value = ret_op.map(|o| Self::eval_in(&popped, o));
                            let (dst, call_inst) = popped.ret_to.expect("checked above");
                            let caller = thread.stack.last_mut().expect("caller frame exists");
                            let caller_frame = caller.frame_id;
                            if let (Some(d), Some(v)) = (dst, value) {
                                caller.regs[d.index()] = v;
                            }
                            let wants_call = match plan {
                                None => true,
                                Some(p) => p.mask(call_inst) & hooks::CALL != 0,
                            };
                            if wants_call {
                                tracer.on_return(
                                    tid,
                                    popped.frame_id,
                                    popped.func,
                                    value,
                                    ret_op,
                                    caller_frame,
                                    call_inst,
                                );
                            } else {
                                elided.note(|e| &e.returns);
                            }
                            let mut regs = std::mem::take(&mut popped.regs);
                            regs.clear();
                            regs_pool.push(regs);
                        }
                        // Inline call: same frame construction, pool
                        // recycling and event payloads as `step_cold` +
                        // `make_frame_at`.
                        BurstExit::Call {
                            dst,
                            inst_id,
                            caller_frame,
                            pmask,
                            d,
                            argv,
                        } => {
                            let mut regs = regs_pool.pop().unwrap_or_default();
                            regs.clear();
                            regs.resize(d.num_regs as usize, Value::default());
                            regs[..argv.len()].copy_from_slice(&argv);
                            let mut spent = argv;
                            spent.clear();
                            argv_pool.push(spent);
                            let callee_frame = FrameId(*next_frame);
                            *next_frame += 1;
                            thread.stack.push(Frame {
                                func: d.func,
                                frame_id: callee_frame,
                                block: d.entry,
                                pc: 0,
                                regs,
                                ret_to: Some((dst, inst_id)),
                            });
                            if pmask & hooks::CALL != 0 {
                                tracer.on_call(
                                    ctx(tid, caller_frame, inst_id),
                                    d.func,
                                    callee_frame,
                                );
                            } else {
                                elided.note(|e| &e.calls);
                            }
                            if plan.is_none_or(InstrPlan::block_enter) {
                                tracer.on_block_enter(tid, callee_frame, d.entry);
                            } else {
                                elided.note(|e| &e.block_enters);
                            }
                        }
                    }
                }
            }
            self.steps += done;
            left -= done;
            if let Some(e) = fault {
                // `done` includes the faulting step, as in `step`.
                return SlotOutcome::Fault(e);
            }
            if cold {
                // One cold instruction via the per-instruction path; the
                // budget arithmetic above guarantees steps < max_steps.
                match self.step(tid, tracer) {
                    StepOutcome::Continue => left -= 1,
                    StepOutcome::Yield => return SlotOutcome::Done { yielded: true },
                    StepOutcome::Fault(e) => return SlotOutcome::Fault(e),
                }
            }
        }
        SlotOutcome::Done { yielded: false }
    }

    /// One scheduling slot as `slot` calls of [`Execution::step`],
    /// checking the step budget before each: the reference that
    /// [`Execution::step_slot`] must match.
    fn step_slot_stepwise<T: Tracer>(
        &mut self,
        tid: ThreadId,
        slot: u64,
        tracer: &mut T,
    ) -> SlotOutcome {
        for _ in 0..slot {
            if self.steps >= self.config.max_steps {
                return SlotOutcome::StepLimit;
            }
            match self.step(tid, tracer) {
                StepOutcome::Continue => {}
                StepOutcome::Yield => return SlotOutcome::Done { yielded: true },
                StepOutcome::Fault(e) => return SlotOutcome::Fault(e),
            }
        }
        SlotOutcome::Done { yielded: false }
    }

    fn resolve_callee(
        &self,
        tid: ThreadId,
        inst: InstId,
        callee: Callee,
    ) -> Result<FuncId, RuntimeError> {
        match callee {
            Callee::Direct(f) => Ok(f),
            Callee::Indirect(op) => match self.eval(tid, op) {
                Value::Func(f) => Ok(f),
                _ => Err(RuntimeError::NotAFunction { inst }),
            },
        }
    }

    fn step_terminator<T: Tracer>(
        &mut self,
        tid: ThreadId,
        frame_id: FrameId,
        block: BlockId,
        tracer: &mut T,
    ) -> StepOutcome {
        let program: &'p Program = self.program;
        let terminator = &program.block(block).terminator;
        match *terminator {
            Terminator::Jump(b) => {
                self.goto(tid, b);
                self.block_enter_event(tracer, tid, frame_id, b);
                StepOutcome::Continue
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let b = if self.eval(tid, cond).truthy() {
                    then_bb
                } else {
                    else_bb
                };
                self.goto(tid, b);
                self.block_enter_event(tracer, tid, frame_id, b);
                StepOutcome::Continue
            }
            Terminator::Return(op) => {
                let value = op.map(|o| self.eval(tid, o));
                let operand = op;
                let frame = self.threads[tid.index()]
                    .stack
                    .pop()
                    .expect("running thread has a frame");
                match frame.ret_to {
                    Some((dst, call_inst)) => {
                        let caller_frame = self.threads[tid.index()]
                            .stack
                            .last()
                            .expect("caller frame exists")
                            .frame_id;
                        if let (Some(d), Some(v)) = (dst, value) {
                            self.set_reg(tid, d, v);
                        }
                        // `on_return` is gated by the CALL bit of the
                        // call site the frame returns to (see plan.rs).
                        if self.wants(call_inst, hooks::CALL) {
                            tracer.on_return(
                                tid,
                                frame.frame_id,
                                frame.func,
                                value,
                                operand,
                                caller_frame,
                                call_inst,
                            );
                        } else {
                            self.note_elided(|e| &e.returns);
                        }
                        StepOutcome::Continue
                    }
                    None => {
                        // Thread entry frame: the thread is done.
                        self.threads[tid.index()].state = ThreadState::Done;
                        tracer.on_thread_exit(tid);
                        let waiters = std::mem::take(&mut self.threads[tid.index()].join_waiters);
                        for w in waiters {
                            if self.threads[w.index()].state == ThreadState::BlockedJoin(tid) {
                                self.threads[w.index()].state = ThreadState::Runnable;
                            }
                        }
                        StepOutcome::Yield
                    }
                }
            }
        }
    }

    fn goto(&mut self, tid: ThreadId, b: BlockId) {
        let frame = self.threads[tid.index()]
            .stack
            .last_mut()
            .expect("running thread has a frame");
        frame.block = b;
        frame.pc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::NoopTracer;
    use oha_ir::{BinOp, Operand, ProgramBuilder};
    use Operand::{Const, Reg as R};

    fn run(program: &Program, input: &[i64]) -> RunResult {
        Machine::new(program, MachineConfig::default()).run(input, &mut NoopTracer)
    }

    #[test]
    fn arithmetic_and_io() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        let a = f.input();
        let b = f.input();
        let s = f.bin(BinOp::Mul, R(a), R(b));
        f.output(R(s));
        f.ret(None);
        let main = pb.finish_function(f);
        let p = pb.finish(main).unwrap();
        let r = run(&p, &[6, 7]);
        assert_eq!(r.status, Termination::Exited);
        assert_eq!(r.output_values(), vec![42]);
        assert_eq!(r.num_threads, 1);
    }

    #[test]
    fn exhausted_input_reads_zero() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        let a = f.input();
        f.output(R(a));
        f.ret(None);
        let main = pb.finish_function(f);
        let p = pb.finish(main).unwrap();
        assert_eq!(run(&p, &[]).output_values(), vec![0]);
    }

    #[test]
    fn heap_programs_and_recursion() {
        // fib(n) via recursion with memory traffic.
        let mut pb = ProgramBuilder::new();
        let fib = pb.declare("fib", 1);
        let mut m = pb.function("main", 0);
        let n = m.input();
        let r = m.call(fib, vec![R(n)]);
        m.output(R(r));
        m.ret(None);
        let main = pb.finish_function(m);

        let mut f = pb.function("fib", 1);
        let n = f.param(0);
        let base = f.block();
        let rec = f.block();
        let c = f.cmp(oha_ir::CmpOp::Lt, R(n), Const(2));
        f.branch(R(c), base, rec);
        f.select(base);
        f.ret(Some(R(n)));
        f.select(rec);
        let n1 = f.bin(BinOp::Sub, R(n), Const(1));
        let n2 = f.bin(BinOp::Sub, R(n), Const(2));
        let a = f.call(fib, vec![R(n1)]);
        let b = f.call(fib, vec![R(n2)]);
        let s = f.bin(BinOp::Add, R(a), R(b));
        f.ret(Some(R(s)));
        pb.finish_function(f);

        let p = pb.finish(main).unwrap();
        assert_eq!(run(&p, &[10]).output_values(), vec![55]);
    }

    /// Two threads increment a shared counter under a lock; with mutual
    /// exclusion the final value is always 2 * iterations.
    fn counter_program(iterations: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("shared", 2); // field 0 = counter, field 1 = lock word
        let worker = pb.declare("worker", 1);

        let mut m = pb.function("main", 0);
        let t1 = m.spawn(worker, Const(iterations));
        let t2 = m.spawn(worker, Const(iterations));
        m.join(R(t1));
        m.join(R(t2));
        let ga = m.addr_global(g);
        let v = m.load(R(ga), 0);
        m.output(R(v));
        m.ret(None);
        let main = pb.finish_function(m);

        let mut w = pb.function("worker", 1);
        let iters = w.param(0);
        let head = w.block();
        let body = w.block();
        let exit = w.block();
        let ga = w.addr_global(g);
        let i = w.copy(Const(0));
        w.jump(head);
        w.select(head);
        let c = w.cmp(oha_ir::CmpOp::Lt, R(i), R(iters));
        w.branch(R(c), body, exit);
        w.select(body);
        w.lock(R(ga));
        let v = w.load(R(ga), 0);
        let v1 = w.bin(BinOp::Add, R(v), Const(1));
        w.store(R(ga), 0, R(v1));
        w.unlock(R(ga));
        let i1 = w.bin(BinOp::Add, R(i), Const(1));
        w.copy_to(i, R(i1));
        w.jump(head);
        w.select(exit);
        w.ret(None);
        pb.finish_function(w);
        pb.finish(main).unwrap()
    }

    #[test]
    fn locks_provide_mutual_exclusion() {
        let p = counter_program(200);
        for seed in 0..10 {
            let cfg = MachineConfig {
                seed,
                quantum: 3,
                ..MachineConfig::default()
            };
            let r = Machine::new(&p, cfg).run(&[], &mut NoopTracer);
            assert_eq!(r.status, Termination::Exited, "seed {seed}");
            assert_eq!(r.output_values(), vec![400], "seed {seed}");
            assert_eq!(r.num_threads, 3);
        }
    }

    /// The same program *without* the lock loses updates under some
    /// schedule — evidence the scheduler really interleaves.
    #[test]
    fn unlocked_counter_races() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("shared", 1);
        let worker = pb.declare("worker", 1);
        let mut m = pb.function("main", 0);
        let t1 = m.spawn(worker, Const(300));
        let t2 = m.spawn(worker, Const(300));
        m.join(R(t1));
        m.join(R(t2));
        let ga = m.addr_global(g);
        let v = m.load(R(ga), 0);
        m.output(R(v));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut w = pb.function("worker", 1);
        let iters = w.param(0);
        let head = w.block();
        let body = w.block();
        let exit = w.block();
        let ga = w.addr_global(g);
        let i = w.copy(Const(0));
        w.jump(head);
        w.select(head);
        let c = w.cmp(oha_ir::CmpOp::Lt, R(i), R(iters));
        w.branch(R(c), body, exit);
        w.select(body);
        let v = w.load(R(ga), 0);
        let v1 = w.bin(BinOp::Add, R(v), Const(1));
        w.store(R(ga), 0, R(v1));
        let i1 = w.bin(BinOp::Add, R(i), Const(1));
        w.copy_to(i, R(i1));
        w.jump(head);
        w.select(exit);
        w.ret(None);
        pb.finish_function(w);
        let p = pb.finish(main).unwrap();

        let lost_updates = (0..10).any(|seed| {
            let cfg = MachineConfig {
                seed,
                quantum: 3,
                ..MachineConfig::default()
            };
            let r = Machine::new(&p, cfg).run(&[], &mut NoopTracer);
            r.output_values()[0] < 600
        });
        assert!(
            lost_updates,
            "expected at least one lost update across seeds"
        );
    }

    #[test]
    fn recorded_schedules_replay_exactly() {
        let p = counter_program(40);
        for seed in [3u64, 99] {
            let cfg = MachineConfig {
                seed,
                quantum: 4,
                ..MachineConfig::default()
            };
            let machine = Machine::new(&p, cfg);
            let (original, trace) = machine.run_recording(&[], &mut NoopTracer);
            assert!(!trace.is_empty());
            // Replay with a *different* seed in the config: the trace, not
            // the seed, dictates the interleaving.
            let other = MachineConfig {
                seed: seed ^ 0xffff,
                ..cfg
            };
            let replayed = Machine::new(&p, other).run_replay(&[], &trace, &mut NoopTracer);
            assert_eq!(original.steps, replayed.steps);
            assert_eq!(original.outputs, replayed.outputs);
            assert_eq!(original.status, replayed.status);
        }
    }

    #[test]
    fn recording_matches_plain_run() {
        let p = counter_program(25);
        let cfg = MachineConfig::default();
        let plain = Machine::new(&p, cfg).run(&[], &mut NoopTracer);
        let (recorded, _) = Machine::new(&p, cfg).run_recording(&[], &mut NoopTracer);
        assert_eq!(plain.outputs, recorded.outputs);
        assert_eq!(plain.steps, recorded.steps);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let p = counter_program(50);
        let cfg = MachineConfig {
            seed: 42,
            quantum: 5,
            ..MachineConfig::default()
        };
        let a = Machine::new(&p, cfg).run(&[], &mut NoopTracer);
        let b = Machine::new(&p, cfg).run(&[], &mut NoopTracer);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn deadlock_detected() {
        // main locks a then b; worker locks b then a; tight loop to force
        // the overlap under most schedules — run several seeds and require
        // at least one deadlock.
        let mut pb = ProgramBuilder::new();
        let ga = pb.global("a", 1);
        let gb = pb.global("b", 1);
        let worker = pb.declare("worker", 1);
        let mut m = pb.function("main", 0);
        let t = m.spawn(worker, Const(0));
        let a = m.addr_global(ga);
        let b = m.addr_global(gb);
        m.lock(R(a));
        m.lock(R(b));
        m.unlock(R(b));
        m.unlock(R(a));
        m.join(R(t));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut w = pb.function("worker", 1);
        let a = w.addr_global(ga);
        let b = w.addr_global(gb);
        w.lock(R(b));
        w.lock(R(a));
        w.unlock(R(a));
        w.unlock(R(b));
        w.ret(None);
        pb.finish_function(w);
        let p = pb.finish(main).unwrap();

        let mut saw_deadlock = false;
        let mut saw_exit = false;
        for seed in 0..40 {
            let cfg = MachineConfig {
                seed,
                quantum: 1,
                ..MachineConfig::default()
            };
            match Machine::new(&p, cfg).run(&[], &mut NoopTracer).status {
                Termination::Deadlock => saw_deadlock = true,
                Termination::Exited => saw_exit = true,
                s => panic!("unexpected status {s:?}"),
            }
        }
        assert!(saw_deadlock, "no deadlock observed in 40 schedules");
        assert!(saw_exit, "no clean exit observed in 40 schedules");
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        let head = f.block();
        f.jump(head);
        f.select(head);
        f.jump(head);
        let main = pb.finish_function(f);
        let p = pb.finish(main).unwrap();
        let cfg = MachineConfig {
            max_steps: 1000,
            ..MachineConfig::default()
        };
        let r = Machine::new(&p, cfg).run(&[], &mut NoopTracer);
        assert_eq!(r.status, Termination::StepLimit);
        assert!(r.steps >= 1000);
    }

    #[test]
    fn runtime_errors_reported() {
        // Unlock of a lock never taken.
        let mut pb = ProgramBuilder::new();
        let g = pb.global("g", 1);
        let mut f = pb.function("main", 0);
        let a = f.addr_global(g);
        f.unlock(R(a));
        f.ret(None);
        let main = pb.finish_function(f);
        let p = pb.finish(main).unwrap();
        match run(&p, &[]).status {
            Termination::Error(RuntimeError::UnlockNotHeld { .. }) => {}
            s => panic!("unexpected status {s:?}"),
        }
    }

    #[test]
    fn indirect_calls_dispatch_at_runtime() {
        let mut pb = ProgramBuilder::new();
        let double = pb.declare("double", 1);
        let square = pb.declare("square", 1);
        let mut m = pb.function("main", 0);
        let sel = m.input();
        let fp = m.addr_func(double);
        let fp2 = m.addr_func(square);
        let then_b = m.block();
        let else_b = m.block();
        let call_b = m.block();
        let target = m.reg();
        m.branch(R(sel), then_b, else_b);
        m.select(then_b);
        m.copy_to(target, R(fp));
        m.jump(call_b);
        m.select(else_b);
        m.copy_to(target, R(fp2));
        m.jump(call_b);
        m.select(call_b);
        let r = m.call_indirect(R(target), vec![Const(5)]);
        m.output(R(r));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut d = pb.function("double", 1);
        let x = d.bin(BinOp::Add, R(d.param(0)), R(d.param(0)));
        d.ret(Some(R(x)));
        pb.finish_function(d);
        let mut s = pb.function("square", 1);
        let x = s.bin(BinOp::Mul, R(s.param(0)), R(s.param(0)));
        s.ret(Some(R(x)));
        pb.finish_function(s);
        let p = pb.finish(main).unwrap();
        assert_eq!(run(&p, &[1]).output_values(), vec![10]);
        assert_eq!(run(&p, &[0]).output_values(), vec![25]);
    }

    /// Every event as `hook ctx payload` text, in dispatch order.
    #[derive(Default)]
    struct EventLog(Vec<String>);

    impl Tracer for EventLog {
        fn on_load(&mut self, ctx: EventCtx, a: Addr, v: Value) {
            self.0.push(format!("load {ctx:?} {a:?} {v:?}"));
        }
        fn on_store(&mut self, ctx: EventCtx, a: Addr, v: Value) {
            self.0.push(format!("store {ctx:?} {a:?} {v:?}"));
        }
        fn on_lock(&mut self, ctx: EventCtx, a: Addr) {
            self.0.push(format!("lock {ctx:?} {a:?}"));
        }
        fn on_unlock(&mut self, ctx: EventCtx, a: Addr) {
            self.0.push(format!("unlock {ctx:?} {a:?}"));
        }
        fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, entry: FuncId) {
            self.0.push(format!("spawn {ctx:?} {child:?} {entry:?}"));
        }
        fn on_join(&mut self, ctx: EventCtx, child: ThreadId) {
            self.0.push(format!("join {ctx:?} {child:?}"));
        }
        fn on_thread_exit(&mut self, t: ThreadId) {
            self.0.push(format!("exit {t:?}"));
        }
        fn on_block_enter(&mut self, t: ThreadId, frame: FrameId, b: BlockId) {
            self.0.push(format!("block {t:?} {frame:?} {b:?}"));
        }
        fn on_call(&mut self, ctx: EventCtx, f: FuncId, callee_frame: FrameId) {
            self.0.push(format!("call {ctx:?} {f:?} {callee_frame:?}"));
        }
        fn on_return(
            &mut self,
            t: ThreadId,
            frame: FrameId,
            f: FuncId,
            v: Option<Value>,
            op: Option<Operand>,
            caller: FrameId,
            site: InstId,
        ) {
            self.0.push(format!(
                "return {t:?} {frame:?} {f:?} {v:?} {op:?} {caller:?} {site:?}"
            ));
        }
        fn on_input(&mut self, ctx: EventCtx, v: Value) {
            self.0.push(format!("input {ctx:?} {v:?}"));
        }
        fn on_output(&mut self, ctx: EventCtx, v: Value) {
            self.0.push(format!("output {ctx:?} {v:?}"));
        }
        fn on_compute(&mut self, ctx: EventCtx) {
            self.0.push(format!("compute {ctx:?}"));
        }
    }

    /// The burst loop hands indirect calls, lock/unlock, spawn/join and
    /// thread exits to `step`; interleaved with hot arithmetic, loads,
    /// stores and direct calls, the event stream must match the
    /// per-instruction oracle exactly.
    #[test]
    fn cold_fallback_matches_reference_event_for_event() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("shared", 2); // field 0 = counter, field 1 = lock word
        let worker = pb.declare("worker", 1);
        let bump = pb.declare("bump", 1);
        let twice = pb.declare("twice", 1);

        let mut m = pb.function("main", 0);
        let n = m.input();
        let fw = m.addr_func(worker);
        let t1 = m.spawn_indirect(R(fw), R(n));
        let t2 = m.spawn(worker, R(n));
        let fb = m.addr_func(bump);
        let x = m.call_indirect(R(fb), vec![R(n)]);
        let y = m.call(twice, vec![R(x)]);
        m.output(R(y));
        m.join(R(t1));
        m.join(R(t2));
        let ga = m.addr_global(g);
        let v = m.load(R(ga), 0);
        m.output(R(v));
        m.ret(None);
        let main = pb.finish_function(m);

        let mut w = pb.function("worker", 1);
        let iters = w.param(0);
        let head = w.block();
        let body = w.block();
        let exit = w.block();
        let ga = w.addr_global(g);
        let lk = w.gep(R(ga), 1);
        let fb = w.addr_func(bump);
        let i = w.copy(Const(0));
        w.jump(head);
        w.select(head);
        let c = w.cmp(oha_ir::CmpOp::Lt, R(i), R(iters));
        w.branch(R(c), body, exit);
        w.select(body);
        let d = w.call_indirect(R(fb), vec![R(i)]);
        w.lock(R(lk));
        let v = w.load(R(ga), 0);
        let v1 = w.bin(BinOp::Add, R(v), R(d));
        w.store(R(ga), 0, R(v1));
        w.unlock(R(lk));
        let e = w.call(twice, vec![R(v1)]);
        w.output(R(e));
        let i1 = w.bin(BinOp::Add, R(i), Const(1));
        w.copy_to(i, R(i1));
        w.jump(head);
        w.select(exit);
        w.ret(None);
        pb.finish_function(w);

        let mut b = pb.function("bump", 1);
        let x = b.bin(BinOp::Mul, R(b.param(0)), Const(3));
        let x1 = b.bin(BinOp::Add, R(x), Const(1));
        b.ret(Some(R(x1)));
        pb.finish_function(b);

        let mut t = pb.function("twice", 1);
        let x = t.bin(BinOp::Add, R(t.param(0)), R(t.param(0)));
        t.ret(Some(R(x)));
        pb.finish_function(t);
        let p = pb.finish(main).unwrap();

        for seed in [1, 7, 42] {
            for quantum in [1, 3] {
                let config = MachineConfig {
                    seed,
                    quantum,
                    ..MachineConfig::default()
                };
                let machine = Machine::new(&p, config);
                let (mut burst, mut reference) = (EventLog::default(), EventLog::default());
                let r1 = machine.run(&[5], &mut burst);
                let r2 = machine.run_reference(&[5], &mut reference);
                assert_eq!(
                    r1.status,
                    Termination::Exited,
                    "seed {seed} quantum {quantum}"
                );
                assert_eq!(r1, r2, "seed {seed} quantum {quantum}");
                assert_eq!(burst.0, reference.0, "seed {seed} quantum {quantum}");
                for hook in [
                    "call", "lock", "unlock", "spawn", "join", "exit", "load", "store",
                ] {
                    assert!(
                        burst.0.iter().any(|e| e.starts_with(hook)),
                        "no {hook} event (seed {seed} quantum {quantum})"
                    );
                }
            }
        }
    }

    #[test]
    fn tracer_sees_sync_events_in_order() {
        #[derive(Default)]
        struct Log(Vec<String>);
        impl Tracer for Log {
            fn on_lock(&mut self, ctx: EventCtx, _a: Addr) {
                self.0.push(format!("lock:{}", ctx.thread));
            }
            fn on_unlock(&mut self, ctx: EventCtx, _a: Addr) {
                self.0.push(format!("unlock:{}", ctx.thread));
            }
            fn on_spawn(&mut self, _ctx: EventCtx, child: ThreadId, _e: FuncId) {
                self.0.push(format!("spawn:{child}"));
            }
            fn on_join(&mut self, _ctx: EventCtx, child: ThreadId) {
                self.0.push(format!("join:{child}"));
            }
            fn on_thread_exit(&mut self, t: ThreadId) {
                self.0.push(format!("exit:{t}"));
            }
        }
        let p = counter_program(2);
        let mut log = Log::default();
        let r = Machine::new(&p, MachineConfig::default()).run(&[], &mut log);
        assert_eq!(r.status, Termination::Exited);
        // Lock/unlock strictly alternate because the lock is exclusive.
        let mut held = false;
        let mut lock_events = 0;
        for e in &log.0 {
            if e.starts_with("lock:") {
                assert!(!held, "lock acquired while held: {:?}", log.0);
                held = true;
                lock_events += 1;
            } else if e.starts_with("unlock:") {
                assert!(held, "unlock without lock");
                held = false;
            }
        }
        assert_eq!(lock_events, 4, "2 threads x 2 iterations");
        assert!(log.0.contains(&"spawn:t1".to_string()));
        assert!(log.0.contains(&"exit:t1".to_string()));
        assert!(log.0.contains(&"join:t2".to_string()));
    }

    #[test]
    fn frame_ids_distinguish_activations() {
        #[derive(Default)]
        struct Frames(Vec<u64>);
        impl Tracer for Frames {
            fn on_call(&mut self, _ctx: EventCtx, _f: FuncId, callee_frame: FrameId) {
                self.0.push(callee_frame.0);
            }
        }
        let mut pb = ProgramBuilder::new();
        let id = pb.declare("id", 1);
        let mut m = pb.function("main", 0);
        m.call_void(id, vec![Const(1)]);
        m.call_void(id, vec![Const(2)]);
        m.ret(None);
        let main = pb.finish_function(m);
        let mut f = pb.function("id", 1);
        f.ret(Some(R(f.param(0))));
        pb.finish_function(f);
        let p = pb.finish(main).unwrap();
        let mut frames = Frames::default();
        Machine::new(&p, MachineConfig::default()).run(&[], &mut frames);
        assert_eq!(frames.0.len(), 2);
        assert_ne!(frames.0[0], frames.0[1]);
    }
}
