//! Quickstart: build a small multithreaded program, run the full
//! optimistic-hybrid-analysis pipeline on it, and inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

use oha::core::Pipeline;
use oha::ir::Operand::{Const, Reg as R};
use oha::ir::{BinOp, CmpOp, Program, ProgramBuilder};

/// Two worker threads increment a shared counter under a lock; main reads
/// the total after joining both. Race-free — but only a *dynamic* detector
/// (or a must-alias-armed static one) can be sure.
fn build_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let shared = pb.global("shared", 1);
    let lock = pb.global("lock", 1);
    let worker = pb.declare("worker", 1);

    let mut m = pb.function("main", 0);
    let n = m.input();
    let t1 = m.spawn(worker, R(n));
    let t2 = m.spawn(worker, R(n));
    m.join(R(t1));
    m.join(R(t2));
    let sh = m.addr_global(shared);
    let total = m.load(R(sh), 0);
    m.output(R(total));
    m.ret(None);
    let main = pb.finish_function(m);

    let mut w = pb.function("worker", 1);
    let iters = w.param(0);
    let sh = w.addr_global(shared);
    let lk = w.addr_global(lock);
    let head = w.block();
    let body = w.block();
    let exit = w.block();
    let i = w.copy(Const(0));
    w.jump(head);
    w.select(head);
    let c = w.cmp(CmpOp::Lt, R(i), R(iters));
    w.branch(R(c), body, exit);
    w.select(body);
    w.lock(R(lk));
    let v = w.load(R(sh), 0);
    let v1 = w.bin(BinOp::Add, R(v), Const(1));
    w.store(R(sh), 0, R(v1));
    w.unlock(R(lk));
    let i1 = w.bin(BinOp::Add, R(i), Const(1));
    w.copy_to(i, R(i1));
    w.jump(head);
    w.select(exit);
    w.ret(None);
    pb.finish_function(w);

    pb.finish(main).expect("valid program")
}

fn main() {
    let program = build_program();
    println!(
        "program: {} functions, {} instructions\n",
        program.num_functions(),
        program.num_insts()
    );

    // Profiling corpus and testing corpus: different iteration counts.
    let profiling: Vec<Vec<i64>> = (1..6).map(|k| vec![k * 40]).collect();
    let testing: Vec<Vec<i64>> = (1..5).map(|k| vec![k * 55]).collect();

    let pipeline = Pipeline::new(program);
    let outcome = pipeline.run_optft(&profiling, &testing);

    println!("phase 1 — profiling:");
    println!(
        "  runs used: {} ({:?})",
        outcome.profiling_runs_used, outcome.profile_time
    );
    println!(
        "  invariant facts learned: {}",
        outcome.invariants.fact_count()
    );
    println!(
        "  lock sites assumed self-aliasing: {}",
        outcome.invariants.self_alias_locks.len()
    );

    println!("\nphase 2 — predicated static race detection:");
    println!(
        "  sound analysis leaves {} racy sites",
        outcome.racy_sites_sound
    );
    println!(
        "  predicated analysis leaves {} racy sites",
        outcome.racy_sites_pred
    );
    println!(
        "  lock/unlock sites elided (no-custom-sync): {} ({:?})",
        outcome.elidable_lock_sites, outcome.elide_time
    );

    println!("\nphase 3 — speculative dynamic analysis:");
    for (i, run) in outcome.runs.iter().enumerate() {
        println!(
            "  input {i}: FastTrack {:?}, hybrid {:?}, OptFT {:?} (rolled back: {})",
            run.full, run.hybrid, run.optimistic, run.rolled_back
        );
    }
    println!("\nraces (FastTrack): {:?}", outcome.baseline_races);
    println!("races (OptFT):     {:?}", outcome.optimistic_races);
    assert_eq!(outcome.baseline_races, outcome.optimistic_races);
    println!(
        "\nOptFT is race-equivalent to FastTrack, {:.1}x faster than hybrid FastTrack.",
        outcome.speedup_vs_hybrid()
    );
}
