//! The on-disk store: versioned headers, checksums, atomic writes,
//! corruption-as-miss.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic[8] = "OHASTORE"
//! version  : u32      — FORMAT_VERSION at write time
//! kind     : u8       — ArtifactKind tag
//! length   : u64      — payload byte count
//! payload  : [u8; length]
//! checksum : [u8; 16] — 128-bit FNV-1a fingerprint of the payload
//! ```
//!
//! Every anomaly — short file, bad magic, version mismatch, kind
//! mismatch, length mismatch, checksum mismatch, undecodable payload —
//! is accounted in [`StoreStats`] and reported to the caller as a *miss*:
//! the pipeline re-analyzes and overwrites. Nothing here panics on
//! hostile bytes, and a corrupt entry is never served.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use oha_faults::{sites, FaultPlan};
use oha_ir::Fingerprint;

use crate::artifacts::{
    ArtifactKey, ArtifactKind, OptFtArtifact, OptSliceArtifact, ProfileArtifact,
};

/// Bump when the header or any artifact wire layout changes. Old files
/// then read as misses and are overwritten by the re-analysis.
/// v2: `PtStats` gained the sharded-solver counters.
/// v3: the corpus half of every key is the machine-config/patience
/// header combined with the corpus's content fingerprint.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"OHASTORE";
/// magic + version + kind + length.
const HEADER_LEN: usize = 8 + 4 + 1 + 8;
const CHECKSUM_LEN: usize = 16;

/// Cumulative store counters. All atomic: the store is shared across the
/// daemon's worker threads behind an `Arc`.
#[derive(Debug, Default)]
pub struct StoreStats {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corruptions: AtomicU64,
    version_mismatches: AtomicU64,
    invalidations: AtomicU64,
    stale_tmp_cleaned: AtomicU64,
}

/// A point-in-time copy of [`StoreStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStatsSnapshot {
    /// Artifacts served from disk.
    pub hits: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Artifacts written.
    pub writes: u64,
    /// Entries rejected as corrupt (truncated, bit-flipped, undecodable).
    pub corruptions: u64,
    /// Entries rejected for a format-version mismatch.
    pub version_mismatches: u64,
    /// Entries explicitly invalidated (rollback on a warm hit).
    pub invalidations: u64,
    /// Temp files left by dead writers (crashed between temp-write and
    /// rename) that [`Store::open`] swept away.
    pub stale_tmp_cleaned: u64,
}

impl StoreStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy for reporting.
    pub fn snapshot(&self) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            version_mismatches: self.version_mismatches.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            stale_tmp_cleaned: self.stale_tmp_cleaned.load(Ordering::Relaxed),
        }
    }
}

impl StoreStatsSnapshot {
    /// Publishes the counters under `<prefix>.` in an observability
    /// registry (`store.hits`, `store.misses`, …).
    pub fn record(&self, registry: &oha_obs::MetricsRegistry, prefix: &str) {
        registry.set_gauge(&format!("{prefix}.hits"), self.hits as f64);
        registry.set_gauge(&format!("{prefix}.misses"), self.misses as f64);
        registry.set_gauge(&format!("{prefix}.writes"), self.writes as f64);
        registry.set_gauge(&format!("{prefix}.corruptions"), self.corruptions as f64);
        registry.set_gauge(
            &format!("{prefix}.version_mismatches"),
            self.version_mismatches as f64,
        );
        registry.set_gauge(
            &format!("{prefix}.invalidations"),
            self.invalidations as f64,
        );
        registry.set_gauge(
            &format!("{prefix}.stale_tmp_cleaned"),
            self.stale_tmp_cleaned as f64,
        );
    }
}

/// Temp-file sequence, process-wide: two `Store` handles over the same
/// directory (two pipelines, or a store plus a daemon, in one process)
/// must not both claim `pid-0.tmp`.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A content-addressed, persistent artifact store rooted at one
/// directory, with one subdirectory per [`ArtifactKind`].
///
/// Thread-safe: all methods take `&self`, counters are atomic, and writes
/// are atomic renames — concurrent writers of the same key race benignly
/// (equal keys imply equal artifacts, so either rename wins and the file
/// is whole either way).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    stats: StoreStats,
    faults: FaultPlan,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`, honoring the
    /// `OHA_FAULTS` fault-injection override (disabled when unset).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directories cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(root, FaultPlan::from_env())
    }

    /// Opens a store with an explicit fault plan (tests and the daemon
    /// share one plan across the whole serving path).
    ///
    /// Opening also sweeps the temp directory: a writer that died between
    /// its temp write and the rename (the crash-consistency window)
    /// leaves a `pid-n.tmp` file behind, and any such file whose writing
    /// process no longer exists is deleted here — it can never be
    /// renamed into place, and the half-written bytes must not
    /// accumulate. Temp files of *live* writers (a second daemon sharing
    /// this directory) are left alone.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directories cannot be
    /// created.
    pub fn open_with(root: impl Into<PathBuf>, faults: FaultPlan) -> io::Result<Self> {
        let root = root.into();
        for kind in ArtifactKind::ALL {
            fs::create_dir_all(root.join(kind.dir_name()))?;
        }
        fs::create_dir_all(root.join("tmp"))?;
        let store = Self {
            root,
            stats: StoreStats::default(),
            faults,
        };
        store.sweep_stale_tmp();
        Ok(store)
    }

    /// Removes temp files whose writer process is dead. Best-effort: any
    /// I/O error (or an unreadable temp directory) just leaves files in
    /// place for a later open.
    fn sweep_stale_tmp(&self) {
        let Ok(entries) = fs::read_dir(self.root.join("tmp")) else {
            return;
        };
        let own_pid = std::process::id();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".tmp")) else {
                continue;
            };
            let Some(pid) = stem.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
                continue;
            };
            if pid == own_pid || writer_is_alive(pid) {
                continue;
            }
            if fs::remove_file(entry.path()).is_ok() {
                StoreStats::bump(&self.stats.stale_tmp_cleaned);
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The cumulative counters.
    pub fn stats(&self) -> StoreStatsSnapshot {
        self.stats.snapshot()
    }

    /// The fault plan this store rolls against (disabled by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    fn path_for(&self, kind: ArtifactKind, key: &ArtifactKey) -> PathBuf {
        self.root
            .join(kind.dir_name())
            .join(format!("{}.oha", key.file_stem()))
    }

    /// Whether an entry exists on disk (no validation; for tests and
    /// diagnostics).
    pub fn contains(&self, kind: ArtifactKind, key: &ArtifactKey) -> bool {
        self.path_for(kind, key).exists()
    }

    /// Loads and validates an entry's payload. Any anomaly is a `None`
    /// plus the matching counter; corrupt files are additionally deleted
    /// so the follow-up write starts clean.
    pub fn load(&self, kind: ArtifactKind, key: &ArtifactKey) -> Option<Vec<u8>> {
        let path = self.path_for(kind, key);
        if self.faults.should_inject(sites::STORE_READ_ERROR) {
            StoreStats::bump(&self.stats.misses);
            return None;
        }
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                StoreStats::bump(&self.stats.misses);
                return None;
            }
        };
        if !bytes.is_empty() && self.faults.should_inject(sites::STORE_READ_CORRUPT) {
            // Bit rot on the read path: flip one payload-region bit and
            // let the checksum discipline below prove it is caught.
            let at = bytes.len() / 2;
            bytes[at] ^= 0x40;
        }
        match validate(&bytes, kind) {
            Ok(payload) => {
                StoreStats::bump(&self.stats.hits);
                Some(payload.to_vec())
            }
            Err(Anomaly::VersionMismatch) => {
                StoreStats::bump(&self.stats.version_mismatches);
                StoreStats::bump(&self.stats.misses);
                None
            }
            Err(Anomaly::Corrupt) => {
                StoreStats::bump(&self.stats.corruptions);
                StoreStats::bump(&self.stats.misses);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Writes an entry atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers treat a failed write as
    /// "cache disabled for this artifact" and carry on.
    pub fn save(&self, kind: ArtifactKind, key: &ArtifactKey, payload: &[u8]) -> io::Result<()> {
        if self.faults.should_inject(sites::STORE_WRITE_ERROR) {
            return Err(injected(sites::STORE_WRITE_ERROR));
        }
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(kind.tag());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&Fingerprint::of_bytes(payload).to_le_bytes());
        if self.faults.should_inject(sites::STORE_WRITE_SHORT) {
            // A lying disk: the write "succeeds" but half the bytes are
            // gone. The torn entry reaches the final path and must be
            // caught (checksum), dropped, and recomputed on next load.
            bytes.truncate(bytes.len() / 2);
        }

        let tmp = self.root.join("tmp").join(format!(
            "{}-{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, &bytes)?;
        if self.faults.should_inject(sites::STORE_CRASH_BEFORE_RENAME) {
            // The crash-consistency window: die like `kill -9` (no
            // destructors, no flushing) with the temp written and the
            // rename not yet issued. A restart on the same directory
            // must sweep the orphan and recompute.
            std::process::abort();
        }
        if self.faults.should_inject(sites::STORE_RENAME_DELAY) {
            std::thread::sleep(self.faults.delay());
        }
        if self.faults.should_inject(sites::STORE_RENAME_ERROR) {
            let _ = fs::remove_file(&tmp);
            return Err(injected(sites::STORE_RENAME_ERROR));
        }
        let path = self.path_for(kind, key);
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                StoreStats::bump(&self.stats.writes);
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Removes an entry (e.g. after a rollback proved its predicate
    /// violated). Returns whether a file was deleted.
    pub fn invalidate(&self, kind: ArtifactKind, key: &ArtifactKey) -> bool {
        let removed = fs::remove_file(self.path_for(kind, key)).is_ok();
        if removed {
            StoreStats::bump(&self.stats.invalidations);
        }
        removed
    }

    /// Typed load: a profile artifact, or `None` on any miss/corruption.
    pub fn load_profile(&self, key: &ArtifactKey) -> Option<ProfileArtifact> {
        self.load_typed(ArtifactKind::Profile, key, ProfileArtifact::decode)
    }

    /// Typed save of a profile artifact.
    pub fn save_profile(&self, key: &ArtifactKey, artifact: &ProfileArtifact) -> io::Result<()> {
        self.save(ArtifactKind::Profile, key, &artifact.encode())
    }

    /// Typed load: an OptFT static-phase artifact.
    pub fn load_optft(&self, key: &ArtifactKey) -> Option<OptFtArtifact> {
        self.load_typed(ArtifactKind::OptFt, key, OptFtArtifact::decode)
    }

    /// Typed save of an OptFT static-phase artifact.
    pub fn save_optft(&self, key: &ArtifactKey, artifact: &OptFtArtifact) -> io::Result<()> {
        self.save(ArtifactKind::OptFt, key, &artifact.encode())
    }

    /// Typed load: an OptSlice static-phase artifact.
    pub fn load_optslice(&self, key: &ArtifactKey) -> Option<OptSliceArtifact> {
        self.load_typed(ArtifactKind::OptSlice, key, OptSliceArtifact::decode)
    }

    /// Typed save of an OptSlice static-phase artifact.
    pub fn save_optslice(&self, key: &ArtifactKey, artifact: &OptSliceArtifact) -> io::Result<()> {
        self.save(ArtifactKind::OptSlice, key, &artifact.encode())
    }

    fn load_typed<T, E>(
        &self,
        kind: ArtifactKind,
        key: &ArtifactKey,
        decode: impl FnOnce(&[u8]) -> Result<T, E>,
    ) -> Option<T> {
        let payload = self.load(kind, key)?;
        match decode(&payload) {
            Ok(artifact) => Some(artifact),
            Err(_) => {
                // Header and checksum were fine but the payload is not a
                // faithful encoding (e.g. written by a buggy build):
                // account it as corruption, drop the file, miss.
                StoreStats::bump(&self.stats.corruptions);
                StoreStats::bump(&self.stats.misses);
                // The hit recorded by `load` was premature; it is left in
                // place — `hits` counts checksum-valid reads, and the
                // corruption counter flags the decode failure.
                let _ = fs::remove_file(self.path_for(kind, key));
                None
            }
        }
    }
}

/// An injected I/O error, clearly labelled so logs distinguish chaos
/// from genuine disk trouble.
fn injected(site: &str) -> io::Error {
    io::Error::other(format!("injected fault: {site}"))
}

/// Whether the process that owns a temp file still exists. On Linux,
/// `/proc/<pid>` answers directly; where `/proc` is absent the check
/// errs on the side of "alive" (the file is kept for a later sweep).
fn writer_is_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

enum Anomaly {
    Corrupt,
    VersionMismatch,
}

fn validate(bytes: &[u8], kind: ArtifactKind) -> Result<&[u8], Anomaly> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(Anomaly::Corrupt);
    }
    if &bytes[..8] != MAGIC {
        return Err(Anomaly::Corrupt);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(Anomaly::VersionMismatch);
    }
    if bytes[12] != kind.tag() {
        return Err(Anomaly::Corrupt);
    }
    let length = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
    let expected = (bytes.len() - HEADER_LEN - CHECKSUM_LEN) as u64;
    if length != expected {
        return Err(Anomaly::Corrupt);
    }
    let payload = &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN];
    let trailer: [u8; 16] = bytes[bytes.len() - CHECKSUM_LEN..]
        .try_into()
        .expect("16 bytes");
    if Fingerprint::of_bytes(payload) != Fingerprint::from_le_bytes(trailer) {
        return Err(Anomaly::Corrupt);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_invariants::InvariantSet;

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oha-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u8) -> ArtifactKey {
        ArtifactKey::new(Fingerprint::of_bytes(&[n]), Fingerprint::of_bytes(&[n, n]))
    }

    #[test]
    fn save_load_round_trip_and_counters() {
        let store = Store::open(tmp_root("roundtrip")).unwrap();
        let k = key(1);
        assert!(store.load(ArtifactKind::Profile, &k).is_none());
        assert_eq!(store.stats().misses, 1);

        store.save(ArtifactKind::Profile, &k, b"payload").unwrap();
        assert_eq!(store.load(ArtifactKind::Profile, &k).unwrap(), b"payload");
        let s = store.stats();
        assert_eq!((s.hits, s.writes), (1, 1));
        assert_eq!(s.corruptions, 0);

        // Persistence across handles (a fresh `Store` over the same root).
        let reopened = Store::open(store.root().to_path_buf()).unwrap();
        assert_eq!(
            reopened.load(ArtifactKind::Profile, &k).unwrap(),
            b"payload"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn kinds_do_not_collide() {
        let store = Store::open(tmp_root("kinds")).unwrap();
        let k = key(2);
        store.save(ArtifactKind::Profile, &k, b"profile").unwrap();
        assert!(store.load(ArtifactKind::OptFt, &k).is_none());
        assert_eq!(store.load(ArtifactKind::Profile, &k).unwrap(), b"profile");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let store = Store::open(tmp_root("invalidate")).unwrap();
        let k = key(3);
        store.save(ArtifactKind::OptFt, &k, b"x").unwrap();
        assert!(store.invalidate(ArtifactKind::OptFt, &k));
        assert!(!store.invalidate(ArtifactKind::OptFt, &k), "already gone");
        assert_eq!(store.stats().invalidations, 1);
        assert!(store.load(ArtifactKind::OptFt, &k).is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn undecodable_payload_is_corruption_not_panic() {
        let store = Store::open(tmp_root("undecodable")).unwrap();
        let k = key(4);
        // Checksum-valid file whose payload is not a ProfileArtifact.
        store
            .save(ArtifactKind::Profile, &k, b"not an artifact")
            .unwrap();
        assert!(store.load_profile(&k).is_none());
        assert_eq!(store.stats().corruptions, 1);
        assert!(!store.contains(ArtifactKind::Profile, &k), "dropped");
        // The slot is clean for an overwrite.
        let artifact = ProfileArtifact {
            invariants: InvariantSet::default(),
            runs_used: 2,
            profile_ns: 5,
        };
        store.save_profile(&k, &artifact).unwrap();
        assert_eq!(store.load_profile(&k).unwrap(), artifact);
        let _ = fs::remove_dir_all(store.root());
    }
}
