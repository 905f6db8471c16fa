//! The FastTrack happens-before state machine.

use std::collections::{BTreeSet, HashMap};

use oha_interp::{Addr, ShadowMap, ThreadId};
use oha_ir::InstId;

use crate::vc::{Epoch, VectorClock};

/// What kind of conflict a race report describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    /// Write racing an earlier write.
    WriteWrite,
    /// Write racing an earlier read.
    ReadWrite,
    /// Read racing an earlier write.
    WriteRead,
}

/// A detected race between two static sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceReport {
    /// The earlier access's site.
    pub prior: InstId,
    /// The current access's site.
    pub current: InstId,
    /// Conflict kind.
    pub kind: RaceKind,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteRead => "write-read",
        };
        write!(f, "{kind} race between {} and {}", self.prior, self.current)
    }
}

/// Per-variable FastTrack metadata.
#[derive(Clone, Debug)]
struct VarState {
    /// Last write epoch and its site.
    write: Epoch,
    write_site: InstId,
    /// Read state: an epoch in the exclusive case, a full clock when
    /// shared.
    read: ReadState,
}

#[derive(Clone, Debug)]
enum ReadState {
    Excl(Epoch, InstId),
    Shared(VectorClock, HashMap<ThreadId, InstId>),
}

impl Default for VarState {
    fn default() -> Self {
        Self {
            write: Epoch::BOTTOM,
            write_site: InstId::new(u32::MAX),
            read: ReadState::Excl(Epoch::BOTTOM, InstId::new(u32::MAX)),
        }
    }
}

/// Work counters for the analysis-cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorCounters {
    /// Read checks executed.
    pub reads: u64,
    /// Reads answered by the same-epoch fast path.
    pub read_fast_path: u64,
    /// Write checks executed.
    pub writes: u64,
    /// Writes answered by the same-epoch fast path.
    pub write_fast_path: u64,
    /// Lock acquires/releases processed.
    pub sync_ops: u64,
}

/// The FastTrack detector: feed it an event stream, read out the races.
///
/// # Examples
///
/// ```
/// use oha_fasttrack::Detector;
/// use oha_interp::{Addr, ObjId, ThreadId};
/// use oha_ir::InstId;
///
/// let mut d = Detector::new();
/// let x = Addr::new(ObjId(0), 0);
/// d.write(ThreadId(0), x, InstId::new(1));
/// d.fork(ThreadId(0), ThreadId(1));
/// d.write(ThreadId(1), x, InstId::new(2)); // ordered by the fork
/// assert!(d.races().is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Detector {
    threads: Vec<VectorClock>,
    /// Release clocks per lock; an absent lock is the empty clock.
    locks: ShadowMap<VectorClock>,
    /// Per-variable state in dense shadow memory; an untouched variable
    /// is the bottom state.
    vars: ShadowMap<VarState>,
    races: BTreeSet<RaceReport>,
    counters: DetectorCounters,
}

impl Default for Detector {
    fn default() -> Self {
        Self {
            threads: Vec::new(),
            locks: ShadowMap::new(VectorClock::new()),
            vars: ShadowMap::new(VarState::default()),
            races: BTreeSet::new(),
            counters: DetectorCounters::default(),
        }
    }
}

impl Detector {
    /// A detector with the main thread at clock 1.
    pub fn new() -> Self {
        let mut d = Self::default();
        d.thread_mut(ThreadId::MAIN).tick(ThreadId::MAIN);
        d
    }

    fn thread_mut(&mut self, t: ThreadId) -> &mut VectorClock {
        self.ensure_thread(t);
        &mut self.threads[t.index()]
    }

    /// Materializes the clock slot of `t` so the hot paths can take a
    /// shared borrow of it alongside mutable borrows of other fields.
    fn ensure_thread(&mut self, t: ThreadId) {
        if self.threads.len() <= t.index() {
            self.threads.resize(t.index() + 1, VectorClock::new());
        }
    }

    /// Clone of `t`'s clock — used only on rare fork/join edges; the
    /// per-event paths borrow in place instead.
    fn thread(&self, t: ThreadId) -> VectorClock {
        self.threads.get(t.index()).cloned().unwrap_or_default()
    }

    /// All distinct races seen so far, as (prior site, current site, kind).
    pub fn races(&self) -> &BTreeSet<RaceReport> {
        &self.races
    }

    /// The distinct racing site pairs (order-normalized), the measure used
    /// to compare detector variants.
    pub fn race_pairs(&self) -> BTreeSet<(InstId, InstId)> {
        self.races
            .iter()
            .map(|r| (r.prior.min(r.current), r.prior.max(r.current)))
            .collect()
    }

    /// Work counters.
    pub fn counters(&self) -> DetectorCounters {
        self.counters
    }

    /// Processes a read of `x` by `t` at `site`.
    pub fn read(&mut self, t: ThreadId, x: Addr, site: InstId) {
        self.counters.reads += 1;
        self.ensure_thread(t);
        let ct = &self.threads[t.index()];
        let epoch = ct.epoch(t);
        let var = self.vars.get_mut(x);

        // Same-epoch fast path.
        if let ReadState::Excl(e, _) = var.read {
            if e == epoch {
                self.counters.read_fast_path += 1;
                return;
            }
        }
        // Write-read race?
        if !var.write.leq(ct) {
            self.races.insert(RaceReport {
                prior: var.write_site,
                current: site,
                kind: RaceKind::WriteRead,
            });
        }
        match &mut var.read {
            ReadState::Excl(e, s) => {
                if e.leq(ct) {
                    // Still exclusive.
                    *e = epoch;
                    *s = site;
                } else {
                    // Becomes shared.
                    let mut vc = VectorClock::new();
                    vc.set(e.tid, e.clock);
                    vc.set(t, epoch.clock);
                    let mut sites = HashMap::new();
                    sites.insert(e.tid, *s);
                    sites.insert(t, site);
                    var.read = ReadState::Shared(vc, sites);
                }
            }
            ReadState::Shared(vc, sites) => {
                vc.set(t, epoch.clock);
                sites.insert(t, site);
            }
        }
    }

    /// Processes a write to `x` by `t` at `site`.
    pub fn write(&mut self, t: ThreadId, x: Addr, site: InstId) {
        self.counters.writes += 1;
        self.ensure_thread(t);
        let ct = &self.threads[t.index()];
        let epoch = ct.epoch(t);
        let var = self.vars.get_mut(x);

        if var.write == epoch {
            self.counters.write_fast_path += 1;
            return;
        }
        if !var.write.leq(ct) {
            self.races.insert(RaceReport {
                prior: var.write_site,
                current: site,
                kind: RaceKind::WriteWrite,
            });
        }
        match &var.read {
            ReadState::Excl(e, s) => {
                if !e.leq(ct) {
                    self.races.insert(RaceReport {
                        prior: *s,
                        current: site,
                        kind: RaceKind::ReadWrite,
                    });
                }
            }
            ReadState::Shared(vc, sites) => {
                if !vc.leq(ct) {
                    // Report each unordered reader.
                    for (u, c) in vc.nonzero() {
                        if c > ct.get(u) {
                            if let Some(&s) = sites.get(&u) {
                                self.races.insert(RaceReport {
                                    prior: s,
                                    current: site,
                                    kind: RaceKind::ReadWrite,
                                });
                            }
                        }
                    }
                }
            }
        }
        var.write = epoch;
        var.write_site = site;
        // Shared read information is obsolete after an ordered write.
        if matches!(var.read, ReadState::Shared(..)) {
            var.read = ReadState::Excl(Epoch::BOTTOM, InstId::new(u32::MAX));
        }
    }

    /// Lock acquire: `t` inherits the release clock of `m`, joined in
    /// place — no clone (joining the empty clock of a never-released
    /// lock is a no-op).
    pub fn acquire(&mut self, t: ThreadId, m: Addr) {
        self.counters.sync_ops += 1;
        self.ensure_thread(t);
        let lm = self.locks.get(m);
        self.threads[t.index()].join(lm);
    }

    /// Lock release: `m` remembers `t`'s clock; `t` advances. The clock
    /// is copied into the lock's slot in place, reusing its allocation.
    pub fn release(&mut self, t: ThreadId, m: Addr) {
        self.counters.sync_ops += 1;
        self.ensure_thread(t);
        let ct = &self.threads[t.index()];
        self.locks.get_mut(m).copy_from(ct);
        self.threads[t.index()].tick(t);
    }

    /// Thread creation: the child inherits the parent's clock.
    pub fn fork(&mut self, parent: ThreadId, child: ThreadId) {
        let cp = self.thread(parent);
        let cc = self.thread_mut(child);
        cc.join(&cp);
        cc.tick(child);
        self.thread_mut(parent).tick(parent);
    }

    /// Join: the parent inherits the child's clock.
    pub fn join(&mut self, parent: ThreadId, child: ThreadId) {
        let cc = self.thread(child);
        self.thread_mut(parent).join(&cc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_interp::ObjId;

    fn addr(o: u32) -> Addr {
        Addr::new(ObjId(o), 0)
    }

    fn site(n: u32) -> InstId {
        InstId::new(n)
    }

    #[test]
    fn unordered_writes_race() {
        let mut d = Detector::new();
        d.fork(ThreadId(0), ThreadId(1));
        d.fork(ThreadId(0), ThreadId(2));
        d.write(ThreadId(1), addr(0), site(10));
        d.write(ThreadId(2), addr(0), site(20));
        let races = d.races();
        assert_eq!(races.len(), 1);
        let r = races.iter().next().unwrap();
        assert_eq!(
            (r.prior, r.current, r.kind),
            (site(10), site(20), RaceKind::WriteWrite)
        );
    }

    #[test]
    fn lock_ordering_suppresses_races() {
        let mut d = Detector::new();
        d.fork(ThreadId(0), ThreadId(1));
        let m = addr(9);
        // t0: lock; write; unlock. t1: lock; write; unlock (after t0).
        d.acquire(ThreadId(0), m);
        d.write(ThreadId(0), addr(0), site(1));
        d.release(ThreadId(0), m);
        d.acquire(ThreadId(1), m);
        d.write(ThreadId(1), addr(0), site(2));
        d.release(ThreadId(1), m);
        assert!(d.races().is_empty());
    }

    #[test]
    fn fork_join_ordering_suppresses_races() {
        let mut d = Detector::new();
        d.write(ThreadId(0), addr(0), site(1));
        d.fork(ThreadId(0), ThreadId(1));
        d.write(ThreadId(1), addr(0), site(2)); // after fork: ordered
        d.join(ThreadId(0), ThreadId(1));
        d.write(ThreadId(0), addr(0), site(3)); // after join: ordered
        assert!(d.races().is_empty());
    }

    #[test]
    fn read_write_races_detected_in_both_directions() {
        let mut d = Detector::new();
        d.fork(ThreadId(0), ThreadId(1));
        d.read(ThreadId(0), addr(0), site(1));
        d.write(ThreadId(1), addr(0), site(2));
        assert!(d
            .races()
            .iter()
            .any(|r| r.kind == RaceKind::ReadWrite && r.prior == site(1)));

        let mut d = Detector::new();
        d.fork(ThreadId(0), ThreadId(1));
        d.write(ThreadId(1), addr(0), site(2));
        d.read(ThreadId(0), addr(0), site(1));
        assert!(d
            .races()
            .iter()
            .any(|r| r.kind == RaceKind::WriteRead && r.current == site(1)));
    }

    #[test]
    fn shared_reads_promote_to_vector_clocks() {
        let mut d = Detector::new();
        d.fork(ThreadId(0), ThreadId(1));
        d.fork(ThreadId(0), ThreadId(2));
        // Both children read (no race among reads)…
        d.read(ThreadId(1), addr(0), site(1));
        d.read(ThreadId(2), addr(0), site(2));
        assert!(d.races().is_empty());
        // …then an unordered write races with *both* readers.
        d.write(ThreadId(0), addr(0), site(3));
        let racy_priors: Vec<InstId> = d.races().iter().map(|r| r.prior).collect();
        assert!(racy_priors.contains(&site(1)));
        assert!(racy_priors.contains(&site(2)));
    }

    #[test]
    fn same_epoch_fast_path_taken() {
        let mut d = Detector::new();
        d.write(ThreadId(0), addr(0), site(1));
        d.write(ThreadId(0), addr(0), site(1));
        d.read(ThreadId(0), addr(0), site(2));
        d.read(ThreadId(0), addr(0), site(2));
        let c = d.counters();
        assert_eq!(c.writes, 2);
        assert_eq!(c.write_fast_path, 1);
        assert!(c.read_fast_path >= 1);
        assert!(d.races().is_empty());
    }

    #[test]
    fn distinct_variables_do_not_interact() {
        let mut d = Detector::new();
        d.fork(ThreadId(0), ThreadId(1));
        d.write(ThreadId(0), addr(0), site(1));
        d.write(ThreadId(1), addr(1), site(2));
        assert!(d.races().is_empty());
    }
}
