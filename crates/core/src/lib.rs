//! Optimistic hybrid analysis: the paper's three-phase pipeline (§2).
//!
//! 1. **Likely-invariant profiling** — run the target program on a
//!    profiling corpus under [`ProfileTracer`](oha_invariants::ProfileTracer)
//!    and merge the observations into an
//!    [`InvariantSet`](oha_invariants::InvariantSet).
//! 2. **Predicated static analysis** — run the static analyses (points-to,
//!    race detection, slicing) *assuming* the likely invariants, yielding
//!    far smaller instrumentation sets than the sound analyses can justify.
//! 3. **Speculative dynamic analysis** — run the optimized dynamic analysis
//!    together with an
//!    [`InvariantChecker`](oha_invariants::InvariantChecker); if any assumed
//!    invariant is violated, *roll back*: re-execute deterministically (same
//!    program, input and scheduler seed) under the traditional hybrid
//!    analysis, whose results are then authoritative.
//!
//! [`Pipeline`] wires the phases together for the two instantiated tools:
//!
//! * [`Pipeline::run_optft`] — OptFT, the optimistic FastTrack race
//!   detector (paper §4), including the no-custom-synchronization lock
//!   elision loop;
//! * [`Pipeline::run_optslice`] — OptSlice, the optimistic dynamic backward
//!   slicer (paper §5).
//!
//! Each also has a `_from` form ([`Pipeline::run_optft_from`],
//! [`Pipeline::run_optslice_from`]) that may name the profiling corpus by
//! its [`corpus_content_fingerprint`] alone ([`Corpus::Stored`]) and
//! returns [`NeedCorpus`] when the store lacks what the run needs.
//!
//! Both report per-run wall-clock timings decomposed the way Figures 5 and
//! 6 stack them (framework / invariant checks / analysis checks /
//! rollbacks), plus the end-to-end break-even model of Tables 1 and 2
//! ([`break_even_seconds`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakeven;
mod canonical;
mod lanes;
mod optft;
mod optslice;
mod pipeline;
mod statespace;

pub use breakeven::{break_even_seconds, CostModel};
pub use canonical::{optft_canonical_json, optslice_canonical_json};
pub use optft::{OptFt, OptFtOutcome, OptFtRun};
pub use optslice::{OptSlice, OptSliceOutcome, OptSliceRun, StaticSideReport};
pub use pipeline::{
    corpus_content_fingerprint, Corpus, NeedCorpus, Pipeline, PipelineConfig, StoreConfig,
    STORE_DIR_ENV,
};
pub use statespace::{state_space, StateSpace};
