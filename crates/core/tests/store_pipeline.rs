//! The artifact store wired through the pipeline: warm runs must be
//! byte-identical to cold runs, corruption must degrade to a clean
//! re-analysis, and rollbacks must keep mis-speculating predicates out
//! of (or evict them from) the cache.

use std::fs;
use std::path::{Path, PathBuf};

use oha_core::{
    optft_canonical_json, optslice_canonical_json, Pipeline, PipelineConfig, StoreConfig,
};
use oha_ir::{InstId, InstKind, Operand, Program, ProgramBuilder};
use Operand::{Const, Reg as R};

fn tmp_root(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("oha-store-pipeline-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn pipeline(program: Program, dir: &Path) -> Pipeline {
    Pipeline::new(program).with_config(PipelineConfig {
        store: Some(StoreConfig::new(dir)),
        ..PipelineConfig::default()
    })
}

/// Two workers increment a shared counter under a lock (race-free, locks
/// elidable — exercises the elision loop's cache round trip).
fn locked_counter() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global("shared", 1);
    let w = pb.declare("worker", 1);
    let mut m = pb.function("main", 0);
    let n1 = m.input();
    let t1 = m.spawn(w, R(n1));
    let t2 = m.spawn(w, R(n1));
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

/// The program of [`oha_workloads::micro::cold_path_race`]: input `1`
/// takes a cold path that writes the shared global unlocked, so after
/// profiling only `0` it mis-speculates.
fn cold_path_racer() -> Program {
    oha_workloads::micro::cold_path_race().program
}

fn output_endpoint(p: &Program) -> InstId {
    p.insts()
        .find(|i| matches!(i.kind, InstKind::Output { .. }))
        .map(|i| i.id)
        .unwrap()
}

#[test]
fn optft_warm_run_is_byte_identical_to_cold() {
    let dir = tmp_root("optft-warm");
    let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n * 10]).collect();
    let testing: Vec<Vec<i64>> = (1..6).map(|n| vec![n * 7]).collect();

    let cold_pipeline = pipeline(locked_counter(), &dir);
    let cold = cold_pipeline.run_optft(&profiling, &testing);
    assert_eq!(
        cold.report.meta.get("static_cache").map(String::as_str),
        Some("miss")
    );
    let store = cold_pipeline.store().unwrap();
    assert!(store.stats().writes >= 2, "profile + optft artifacts saved");

    let warm_pipeline = pipeline(locked_counter(), &dir);
    let warm = warm_pipeline.run_optft(&profiling, &testing);
    assert_eq!(
        warm.report.meta.get("static_cache").map(String::as_str),
        Some("hit")
    );
    assert!(warm_pipeline.store().unwrap().stats().hits >= 2);

    assert_eq!(
        optft_canonical_json(&cold),
        optft_canonical_json(&warm),
        "warm result must be byte-identical"
    );
    assert_eq!(cold.invariants, warm.invariants, "incl. elidable locks");
    // The warm registry still carries the cold points-to gauges and the
    // replayed static spans.
    let metrics = warm_pipeline.metrics();
    assert!(metrics.gauge_value("optft.pointsto.pred.cells").is_some());
    assert!(metrics.span_stat("cached/static_pred").is_some());
    assert!(metrics.gauge_value("store.hits").unwrap_or(0.0) >= 2.0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn optslice_warm_run_is_byte_identical_to_cold() {
    let dir = tmp_root("optslice-warm");
    let program = locked_counter();
    let endpoints = [output_endpoint(&program)];
    let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n * 3]).collect();
    let testing: Vec<Vec<i64>> = (1..4).map(|n| vec![n * 5]).collect();

    let cold_pipeline = pipeline(program.clone(), &dir);
    let cold = cold_pipeline.run_optslice(&profiling, &testing, &endpoints);
    let warm_pipeline = pipeline(program, &dir);
    let warm = warm_pipeline.run_optslice(&profiling, &testing, &endpoints);

    assert_eq!(
        optslice_canonical_json(&cold),
        optslice_canonical_json(&warm),
        "warm result must be byte-identical"
    );
    assert_eq!(
        warm.report.meta.get("static_cache").map(String::as_str),
        Some("hit")
    );
    assert_eq!(cold.sound.slice_size, warm.sound.slice_size);
    assert_eq!(cold.pred.slice_size, warm.pred.slice_size);
    assert_eq!(
        cold.sound.alias_rate.to_bits(),
        warm.sound.alias_rate.to_bits()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_fall_back_to_clean_reanalysis() {
    let dir = tmp_root("corrupt");
    let profiling: Vec<Vec<i64>> = (1..5).map(|n| vec![n * 10]).collect();
    let testing: Vec<Vec<i64>> = (1..4).map(|n| vec![n * 7]).collect();

    let cold = pipeline(locked_counter(), &dir).run_optft(&profiling, &testing);
    let expected = optft_canonical_json(&cold);

    // Flip one bit in every cached artifact file.
    let mut damaged = 0;
    for entry in walk(&dir) {
        let mut bytes = fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&entry, bytes).unwrap();
        damaged += 1;
    }
    assert!(damaged >= 2, "profile and optft artifacts exist");

    let recovered_pipeline = pipeline(locked_counter(), &dir);
    let recovered = recovered_pipeline.run_optft(&profiling, &testing);
    assert_eq!(
        optft_canonical_json(&recovered),
        expected,
        "corruption must mean re-analysis, not a wrong answer"
    );
    let stats = recovered_pipeline.store().unwrap().stats();
    assert!(
        stats.corruptions >= 2,
        "every damaged entry counted ({stats:?})"
    );
    assert_eq!(stats.hits, 0, "no corrupt entry was served");
    assert!(
        recovered_pipeline
            .metrics()
            .gauge_value("store.corruptions")
            .unwrap_or(0.0)
            >= 2.0,
        "corruption counter published to the registry"
    );

    // And the overwritten entries serve the third run warm.
    let third_pipeline = pipeline(locked_counter(), &dir);
    let third = third_pipeline.run_optft(&profiling, &testing);
    assert_eq!(optft_canonical_json(&third), expected);
    assert!(third_pipeline.store().unwrap().stats().hits >= 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rollback_skips_the_save_and_invalidates_warm_entries() {
    let dir = tmp_root("rollback");
    let profiling = vec![vec![0], vec![0]];
    let clean_testing = vec![vec![0]];
    let violating_testing = vec![vec![0], vec![1]];

    // Cold run that rolls back: the optft artifact must NOT be saved
    // (the profile artifact is fine — profiling observed nothing wrong).
    let p1 = pipeline(cold_path_racer(), &dir);
    let out1 = p1.run_optft(&profiling, &violating_testing);
    assert!(out1.runs[1].rolled_back);
    assert_eq!(out1.optimistic_races, out1.baseline_races);
    assert!(
        fs::read_dir(dir.join("optft")).unwrap().next().is_none(),
        "mis-speculating predicate must not enter the cache"
    );

    // A clean corpus populates the cache...
    let p2 = pipeline(cold_path_racer(), &dir);
    let out2 = p2.run_optft(&profiling, &clean_testing);
    assert!(!out2.runs[0].rolled_back);
    assert_eq!(fs::read_dir(dir.join("optft")).unwrap().count(), 1);

    // ...a warm run that rolls back evicts exactly that entry...
    let p3 = pipeline(cold_path_racer(), &dir);
    let out3 = p3.run_optft(&profiling, &violating_testing);
    assert!(out3.runs[1].rolled_back);
    assert_eq!(out3.optimistic_races, out3.baseline_races, "still sound");
    assert_eq!(p3.store().unwrap().stats().invalidations, 1);
    assert!(
        fs::read_dir(dir.join("optft")).unwrap().next().is_none(),
        "rollback invalidates the violated key"
    );

    // ...and the next run re-analyzes from a miss without losing the
    // (still valid) profile artifact.
    let p4 = pipeline(cold_path_racer(), &dir);
    let out4 = p4.run_optft(&profiling, &clean_testing);
    assert_eq!(
        optft_canonical_json(&out4),
        optft_canonical_json(&out2),
        "re-analysis reproduces the clean result"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "oha") {
                files.push(path);
            }
        }
    }
    files
}

/// Injected store faults — short writes, read corruption, transient
/// read/write errors — may cost recomputes, but must never change a
/// canonical result: the fault surface is the cache, and the cache is
/// an optimization, not an oracle.
#[test]
fn injected_store_faults_never_change_canonical_results() {
    let dir = tmp_root("faulty");
    let profiling: Vec<Vec<i64>> = (1..4).map(|n| vec![n * 10]).collect();
    let testing: Vec<Vec<i64>> = (1..4).map(|n| vec![n * 7]).collect();

    // Ground truth from a storeless (purely in-memory) pipeline.
    let clean = Pipeline::new(locked_counter());
    let expected = optft_canonical_json(&clean.run_optft(&profiling, &testing));

    let plan = oha_faults::FaultPlan::parse(
        "seed=42; store.write.short=%3; store.read.corrupt=%4; \
         store.write.error=%5; store.read.error=%5",
    )
    .unwrap();
    let mut total_injected = 0;
    for _ in 0..4 {
        let p = Pipeline::new(locked_counter()).with_config(PipelineConfig {
            store: Some(StoreConfig::new(&dir)),
            faults: plan.clone(),
            ..PipelineConfig::default()
        });
        let out = p.run_optft(&profiling, &testing);
        assert_eq!(
            optft_canonical_json(&out),
            expected,
            "a store fault changed an analysis result"
        );
        total_injected = p.store().unwrap().faults().total_injected();
    }
    assert!(total_injected > 0, "the plan must actually have fired");
    let _ = fs::remove_dir_all(&dir);
}
