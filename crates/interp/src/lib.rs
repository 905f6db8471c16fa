//! A deterministic multithreaded interpreter for the OHA IR.
//!
//! This crate stands in for the paper's execution and instrumentation
//! substrate (RoadRunner for Java, LLVM-inserted instrumentation for C).
//! Key properties:
//!
//! * **Simulated threads.** Threads are green threads interleaved at
//!   instruction granularity by a seeded scheduler. Given the same program,
//!   input and seed, an execution is bit-for-bit reproducible — this is the
//!   record/replay property the paper relies on for speculation rollback
//!   ("restarting a deterministic replay … is trivial", §2.3).
//! * **Instrumentation hooks.** A [`Tracer`] receives callbacks for loads,
//!   stores, lock operations, thread lifecycle events, calls, block entries
//!   and I/O. Dynamic analyses (FastTrack, Giri), profilers and invariant
//!   checkers are all tracers.
//! * **Honest cost accounting.** The interpreter reports executed step
//!   counts and the harness measures real wall-clock time, so "eliding
//!   instrumentation" (not doing analysis work for a site) translates into
//!   measurable speedup exactly as in the paper.
//!
//! # Examples
//!
//! ```
//! use oha_ir::{Operand, ProgramBuilder};
//! use oha_interp::{Machine, MachineConfig, NoopTracer, Termination};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0);
//! let x = f.input();
//! f.output(Operand::Reg(x));
//! f.ret(None);
//! let main = pb.finish_function(f);
//! let program = pb.finish(main).unwrap();
//!
//! let machine = Machine::new(&program, MachineConfig::default());
//! let result = machine.run(&[41], &mut NoopTracer);
//! assert_eq!(result.status, Termination::Exited);
//! assert_eq!(result.output_values(), vec![41]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heap;
mod machine;
mod plan;
mod shadow;
mod tracer;
mod value;

pub use heap::Heap;
pub use machine::{
    HookCounters, Machine, MachineConfig, MachineImage, RunResult, RuntimeError, ScheduleTrace,
    Termination,
};
pub use plan::{hooks, InstrPlan, PlanElisions};
pub use shadow::ShadowMap;
pub use tracer::{EventCtx, MultiTracer, NoopTracer, Tracer};
pub use value::{Addr, FrameId, ObjId, ThreadId, Value};
