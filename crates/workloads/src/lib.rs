//! Synthetic benchmark programs mirroring the paper's evaluation suites.
//!
//! The paper evaluates OptFT on DaCapo/JavaGrande multithreaded benchmarks
//! and OptSlice on common C desktop/server applications. Neither suite can
//! run on this crate's IR, so each benchmark is replaced by a generator
//! that reproduces the *structural property* the paper attributes to it —
//! the property that determines how the analyses behave:
//!
//! **Java suite** ([`java_suite`], race detection):
//!
//! | Benchmark | Structural property modelled |
//! |---|---|
//! | `sor`, `sparse`, `series`, `crypt`, `lufact` | provably race-free: singleton spawns in `main`, per-thread allocations, read-only shared input |
//! | `lusearch`, `luindex`, `pmd`, `raytracer`, `moldyn` | lock-guarded sharing + worker spawns hidden in helpers + cold paths — the invariants (guarding locks, singleton threads, LUC) pay off |
//! | `sunflow`, `montecarlo` | loop-spawned fork-join/barrier phases with unlocked phase data — lockset-style detectors cannot help (paper §6.2) |
//! | `batik` | single helper thread + a large cold error/format region (LUC-dominated) |
//! | `xalan` | compute/output heavy with few shared memory accesses — every detector is already cheap |
//!
//! **C suite** ([`c_suite`], backward slicing):
//!
//! | Benchmark | Structural property modelled |
//! |---|---|
//! | `nginx` | event loop, handler dispatch table, large cold error paths, I/O-wait flavour |
//! | `redis` | command dispatch through function pointers, per-command heap structures |
//! | `perl` | interpreter with one generic value record holding ints *and* pointers *and* function pointers — points-to poison |
//! | `vim` | a large command table with deep helper chains — sound CS analysis explodes, likely-used contexts rescue it |
//! | `sphinx` | staged numeric pipeline |
//! | `go` | input-driven search with a long-tailed path distribution — invariants converge slowly (Figure 7/8) |
//! | `zlib` | small tight compression kernel |
//!
//! Every workload carries matched profiling/testing corpora drawn from the
//! same input distribution (fresh seeds), the way §6.1 builds its corpora.
//!
//! [`micro`] holds hand-built programs that pin one behaviour for tests,
//! such as an OptFT mis-speculation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod c_suite_impl;
mod common;
mod java_suite_impl;
pub mod micro;

pub use common::{Workload, WorkloadParams};

/// The DaCapo/JavaGrande stand-ins (OptFT's benchmarks).
pub mod java_suite {
    pub use crate::java_suite_impl::{
        all, batik, crypt, lufact, luindex, lusearch, moldyn, montecarlo, pmd, raytracer, series,
        sor, sparse, sunflow, xalan,
    };
}

/// The C application stand-ins (OptSlice's benchmarks).
pub mod c_suite {
    pub use crate::c_suite_impl::{all, go, nginx, perl, redis, sphinx, vim, zlib};
}
