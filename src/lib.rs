//! # Optimistic Hybrid Analysis (OHA)
//!
//! A reproduction of *"Optimistic Hybrid Analysis: Accelerating Dynamic
//! Analysis through Predicated Static Analysis"* (ASPLOS 2018).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`ir`] — the program IR (stand-in for LLVM bitcode / Java bytecode),
//! * [`interp`] — a deterministic multithreaded interpreter with tracer hooks,
//! * [`dataflow`] — bit sets, graphs and SCCs, CFGs, dominators, reaching
//!   definitions (def-use chains) and call graphs,
//! * [`pointsto`] — Andersen-style points-to analysis (CI and CS),
//! * [`races`] — the static lockset/MHP race detector,
//! * [`slicing`] — the static backward slicer,
//! * [`invariants`] — likely-invariant profiling, merging and checking,
//! * [`obs`] — metrics registry, timing spans and machine-readable run
//!   reports shared by the pipeline and the benchmark harness,
//! * [`par`] — a std-only scoped thread pool with an order-preserving
//!   `par_map`, sized by `OHA_THREADS` / the hardware,
//! * [`fasttrack`] — the FastTrack dynamic race detector and its hybrid and
//!   optimistic variants,
//! * [`giri`] — the dynamic backward slicer and its variants,
//! * [`core`] — the three-phase optimistic hybrid analysis pipeline
//!   (profile → predicated static analysis → speculative dynamic analysis
//!   with rollback),
//! * [`workloads`] — synthetic benchmark programs mirroring the paper's
//!   Java and C suites,
//! * [`store`] — the content-addressed on-disk cache for static-phase
//!   artifacts (fingerprint keys, versioned binary codec, corruption-as-
//!   a-miss recovery),
//! * [`serve`] — the concurrent analysis daemon over a Unix-domain
//!   socket, dispatching cached pipelines onto a persistent worker pool.
//!
//! # Quickstart
//!
//! ```
//! use oha::core::Pipeline;
//! use oha::workloads::{java_suite, WorkloadParams};
//!
//! // Build one of the paper's benchmark stand-ins and its input corpora.
//! let workload = java_suite::lusearch(&WorkloadParams::small());
//!
//! // Run the full three-phase optimistic hybrid analysis.
//! let pipeline = Pipeline::new(workload.program.clone());
//! let outcome = pipeline.run_optft(&workload.profiling_inputs, &workload.testing_inputs);
//!
//! // Soundness: the optimistic run reports exactly the races FastTrack finds.
//! assert_eq!(outcome.optimistic_races, outcome.baseline_races);
//! ```

pub use oha_core as core;
pub use oha_dataflow as dataflow;
pub use oha_fasttrack as fasttrack;
pub use oha_giri as giri;
pub use oha_interp as interp;
pub use oha_invariants as invariants;
pub use oha_ir as ir;
pub use oha_obs as obs;
pub use oha_par as par;
pub use oha_pointsto as pointsto;
pub use oha_races as races;
pub use oha_serve as serve;
pub use oha_slicing as slicing;
pub use oha_store as store;
pub use oha_workloads as workloads;
