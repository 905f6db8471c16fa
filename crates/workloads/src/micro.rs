//! Hand-built micro programs for tests that need one exact behaviour,
//! which no suite program shows at unit-test scale.

use oha_ir::{Operand, ProgramBuilder};
use Operand::{Const, Reg as R};

use crate::Workload;

/// OptFT's mis-speculation case. `main` reads a selector: on `0` it
/// spawns a worker that reads and writes a shared global and joins it;
/// on `1` it takes a cold path that also writes the global unlocked while
/// the worker runs — a real race. Profiling sees only `0`, so the
/// likely-unused-code invariant excludes the cold path and the testing
/// input `1` violates it: OptFT must roll back on that input, and only
/// that one, and still report the race.
pub fn cold_path_race() -> Workload {
    let mut pb = ProgramBuilder::new();
    let g = pb.global("shared", 1);
    let w = pb.declare("worker", 1);
    let mut m = pb.function("main", 0);
    let sel = m.input();
    let cold = m.block();
    let spawn_b = m.block();
    m.branch(R(sel), cold, spawn_b);
    m.select(cold);
    let ga = m.addr_global(g);
    let t1 = m.spawn(w, Const(5));
    m.store(R(ga), 0, Const(-1));
    m.join(R(t1));
    m.ret(None);
    m.select(spawn_b);
    let t1 = m.spawn(w, Const(5));
    m.join(R(t1));
    m.ret(None);
    let main = pb.finish_function(m);
    let mut wf = pb.function("worker", 1);
    let ga = wf.addr_global(g);
    let v = wf.load(R(ga), 0);
    wf.store(R(ga), 0, R(v));
    wf.ret(None);
    pb.finish_function(wf);
    Workload {
        name: "cold_path_race",
        program: pb.finish(main).expect("a well-formed micro program"),
        profiling_inputs: vec![vec![0], vec![0]],
        testing_inputs: vec![vec![0], vec![1]],
        endpoints: Vec::new(),
        adversarial_inputs: vec![vec![1]],
    }
}
