//! The dynamic phase's lane schedule.
//!
//! Each testing input costs several independent executions, one per run
//! configuration, and each is a pure function of the program, the input
//! and the schedule seed. They run as tasks on the pipeline's pool under
//! [`oha_par::Pool::run_lanes`]: every configuration names a fixed lane,
//! and lane `k` runs on pool thread `k mod width`, the caller being
//! thread 0. Results come back in (input, configuration) order whatever
//! the width, so canonical output does not depend on it.
//!
//! Tasks on the caller record straight into the pipeline's registry.
//! Every other busy thread records into a registry forked from it (same
//! span paths, its own trace track) and its frame is absorbed after the
//! join. Those frames must commute: lanes off the caller may add
//! counters, spans and histograms only. Lane 0 — where both tools put
//! the runs that hold a per-run trace and the only runs that set gauges —
//! is always the caller, so its records land in input order. At width 1
//! every task runs inline on the caller with the pipeline's own machines
//! and registry, exactly as a serial loop would.

use oha_interp::Machine;
use oha_obs::MetricsRegistry;
use oha_par::Pool;

/// What a dynamic-phase execution runs with: the machines and the
/// metrics registry of the pool thread its lane landed on.
pub(crate) struct Runner<'p> {
    /// Plain machine for every unmetered run.
    pub(crate) machine: Machine<'p>,
    /// Machine whose hook counters record under `spec_prefix`, for the
    /// speculative runs.
    pub(crate) spec_machine: Machine<'p>,
    /// Where the executions' spans and counters go.
    pub(crate) registry: MetricsRegistry,
    spec_prefix: &'static str,
}

impl<'p> Runner<'p> {
    /// A runner over `machine` recording into `registry`, its speculative
    /// hook counters under `spec_prefix`. The pipeline makes the caller's
    /// with its own registry; [`Runner::run_all`] makes the others.
    pub(crate) fn new(
        machine: Machine<'p>,
        registry: MetricsRegistry,
        spec_prefix: &'static str,
    ) -> Self {
        let spec_machine = machine
            .image()
            .machine()
            .with_metrics(&registry, spec_prefix);
        Self {
            machine,
            spec_machine,
            registry,
            spec_prefix,
        }
    }

    /// Runs `tasks` on `pool`'s fixed lanes (`lane` names each task's) and
    /// returns `run`'s results in task order. `self` is the caller's
    /// runner; every other busy thread builds its own from this one's
    /// machine image and a fork of its registry, whose frame is absorbed
    /// back before this returns.
    pub(crate) fn run_all<T, R>(
        &self,
        pool: Pool,
        tasks: &[T],
        lane: impl Fn(&T) -> usize,
        run: impl Fn(&Runner<'p>, &T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let lanes: Vec<usize> = tasks.iter().map(lane).collect();
        let image = self.machine.image();
        let fork = (pool.threads() > 1).then(|| self.registry.fork());
        let spec_prefix = self.spec_prefix;
        let (results, frames) = pool.run_lanes(
            &lanes,
            |share| share.iter().map(|&i| run(self, &tasks[i])).collect(),
            |_, share| {
                let fork = fork.as_ref().expect("workers exist only at width > 1");
                let runner = Runner::new(image.machine(), fork.registry(), spec_prefix);
                let results = share.iter().map(|&i| run(&runner, &tasks[i])).collect();
                (results, runner.registry.frame())
            },
        );
        for frame in &frames {
            debug_assert!(
                frame.commutes(),
                "a lane off the caller recorded a gauge or series"
            );
            self.registry.absorb(frame);
        }
        results
    }
}
