//! Golden-value tests for the corpus side of the store keys.
//!
//! The daemon protocol names a profiling corpus by
//! [`corpus_content_fingerprint`], and every store key that depends on
//! the corpus folds that value in through [`Pipeline::corpus_fingerprint`].
//! The pinned digests below tie both to their current derivation: a
//! change moves them, orphaning every artifact in an existing store and
//! every fingerprint a client has memoized. That must be a reviewed
//! decision (bump `oha-store`'s `FORMAT_VERSION` alongside the repin),
//! never an accident.

use std::path::PathBuf;

use oha_core::{corpus_content_fingerprint, Pipeline, PipelineConfig, StoreConfig};
use oha_ir::{Operand, Program, ProgramBuilder};
use oha_store::ArtifactKey;
use Operand::{Const, Reg as R};

const PATIENCE: usize = 6;

/// Two workers increment a shared counter under a lock.
fn golden_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global("shared", 1);
    let w = pb.declare("worker", 1);
    let mut m = pb.function("main", 0);
    let n = m.input();
    let t1 = m.spawn(w, R(n));
    let t2 = m.spawn(w, R(n));
    m.join(R(t1));
    m.join(R(t2));
    let ga = m.addr_global(g);
    let v = m.load(R(ga), 0);
    m.output(R(v));
    m.ret(None);
    let main = pb.finish_function(m);
    let mut wf = pb.function("worker", 1);
    let iters = wf.param(0);
    let head = wf.block();
    let body = wf.block();
    let exit = wf.block();
    let ga = wf.addr_global(g);
    let i = wf.copy(Const(0));
    wf.jump(head);
    wf.select(head);
    let c = wf.cmp(oha_ir::CmpOp::Lt, R(i), R(iters));
    wf.branch(R(c), body, exit);
    wf.select(body);
    wf.lock(R(ga));
    let v = wf.load(R(ga), 0);
    let v1 = wf.bin(oha_ir::BinOp::Add, R(v), Const(1));
    wf.store(R(ga), 0, R(v1));
    wf.unlock(R(ga));
    let i1 = wf.bin(oha_ir::BinOp::Add, R(i), Const(1));
    wf.copy_to(i, R(i1));
    wf.jump(head);
    wf.select(exit);
    wf.ret(None);
    pb.finish_function(wf);
    pb.finish(main).unwrap()
}

fn golden_corpus() -> Vec<Vec<i64>> {
    vec![vec![10], vec![20, -1], vec![], vec![i64::MIN, i64::MAX]]
}

fn tmp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oha-corpus-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corpus_content_fingerprint_is_pinned() {
    assert_eq!(
        corpus_content_fingerprint(&golden_corpus()).to_hex(),
        "5ea159792f25182408a434c37a88318d",
        "corpus content derivation changed; see this file's module docs"
    );
    // The content fingerprint separates inputs, not just values.
    assert_ne!(
        corpus_content_fingerprint(&[vec![1, 2]]),
        corpus_content_fingerprint(&[vec![1], vec![2]])
    );
}

#[test]
fn corpus_and_profile_keys_are_pinned() {
    let pipeline = Pipeline::new(golden_program());
    let corpus = golden_corpus();
    assert_eq!(
        pipeline.corpus_fingerprint(&corpus, PATIENCE).to_hex(),
        "6fb54ffdd221a4400834a78d3e9f9f8b",
        "corpus key derivation changed; see this file's module docs"
    );
    assert_eq!(
        pipeline.profile_key(&corpus, PATIENCE).file_stem(),
        "b2c6188a3a1ca6c1ac9002ecbca597c9-6fb54ffdd221a4400834a78d3e9f9f8b",
        "profile key derivation changed; see this file's module docs"
    );
    // The machine configuration and the patience are part of the key.
    assert_ne!(
        pipeline.corpus_fingerprint(&corpus, PATIENCE),
        pipeline.corpus_fingerprint(&corpus, PATIENCE + 1)
    );
    let mut config = PipelineConfig::default();
    config.machine.seed ^= 1;
    assert_ne!(
        Pipeline::new(golden_program())
            .with_config(config)
            .corpus_fingerprint(&corpus, PATIENCE),
        pipeline.corpus_fingerprint(&corpus, PATIENCE)
    );
}

/// The OptFT static key as the public fingerprint functions derive it,
/// pinned, and checked against the key a cold run really saves under.
#[test]
fn optft_static_key_is_pinned_and_is_the_key_the_pipeline_saves() {
    let dir = tmp_store("optft");
    let pipeline = Pipeline::new(golden_program()).with_config(PipelineConfig {
        store: Some(StoreConfig::new(&dir)),
        ..PipelineConfig::default()
    });
    let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n * 10]).collect();
    let outcome = pipeline.run_optft(&profiling, &[vec![7]]);
    assert!(
        !outcome.runs[0].rolled_back,
        "a clean run saves its artifact"
    );

    let store = pipeline.store().unwrap();
    let profile = store
        .load_profile(&pipeline.profile_key(&profiling, PATIENCE))
        .expect("the profile artifact is saved under profile_key");
    let predicate = profile
        .invariants
        .fingerprint()
        .combine(pipeline.corpus_fingerprint(&profiling, PATIENCE))
        .combine(pipeline.budget_fingerprint(false));
    let key = ArtifactKey::new(pipeline.program_fingerprint(), predicate);
    assert_eq!(
        key.file_stem(),
        "b2c6188a3a1ca6c1ac9002ecbca597c9-3dd8e64dcc8e7a937e7b9ca6ea24805f",
        "OptFT static key derivation changed; see this file's module docs"
    );
    assert!(
        store.load_optft(&key).is_some(),
        "the OptFT artifact is saved under the derived key"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
