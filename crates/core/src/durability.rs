//! Durable resident maintenance: a write-ahead update log plus
//! checksummed snapshots, with crash-consistent recovery.
//!
//! PR 7 made each maintenance batch atomic *in memory* (epochs,
//! rollback journal); this module makes the resident state survive the
//! process. The discipline is classic write-ahead logging, adapted to
//! the delta engine's epoch machinery:
//!
//! * **WAL** — every committed update epoch appends one CRC32-framed,
//!   length-prefixed record of its signed triple batch to `wal.log`,
//!   *inside* the epoch (via the `delta` commit hook): the append runs
//!   after the batch body succeeded but before the epoch commits, so a
//!   failed append rolls the in-memory batch back with it. A batch is
//!   committed **iff** its WAL record is fully on disk.
//! * **Snapshots** — every N batches (or on demand) the full resident
//!   state is serialized into `snapshot-<epoch>.snap`: graph triples
//!   and vocabulary, the SOI, the solver configuration, χ under its
//!   resolved backend, the support-counter slabs including
//!   deferred/lazy-seed status and sparse-spill state, and the
//!   cumulative `SolveStats` (robustness counters included). Snapshots
//!   are written to a temp file, fsynced, and atomically renamed; the
//!   newest [`DurabilityOptions::keep_snapshots`] snapshots are
//!   retained (older ones are garbage-collected after each successful
//!   write) so a corrupted newest snapshot degrades to a retained
//!   older one plus a longer WAL replay, never to data loss.
//! * **Recovery** — [`recover`] loads the newest snapshot whose
//!   checksum verifies, replays the WAL records past its epoch id
//!   through the ordinary `apply_insertions`/`apply_deletions` paths
//!   (deterministic, so the recovered χ and logical `SolveStats` are
//!   bit-identical to an uninterrupted run), silently truncates a torn
//!   final record, and resumes warm.
//!
//! Every fallible I/O step carries a failpoint site
//! ([`crate::failpoints::DURABILITY_SITES`]) so the chaos proptests
//! can kill the process mid-write at every point of the format.

use crate::delta::{DeltaSolver, EngineState, SlabState};
use crate::failpoints;
use crate::incremental::IncrementalDualSim;
use crate::soi::{Inequality, PatternEdge, SimulationKind, Soi, SoiVar};
use crate::solver::{
    DrainStrategy, EvalStrategy, FixpointMode, IneqOrdering, InitMode, Solution, SolveStats,
    SolverConfig,
};
use crate::MaintainError;
use dualsim_bitmatrix::{ChiBackend, ChiVec, KernelBackend, SlabBackend};
use dualsim_graph::{GraphDb, GraphDbBuilder, NodeKind, Triple};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic + version framing of the two on-disk formats.
const WAL_MAGIC: &[u8; 4] = b"DWAL";
const SNAP_MAGIC: &[u8; 4] = b"DSNP";
/// v2 added the kernel-backend tag to the encoded [`SolverConfig`].
const FORMAT_VERSION: u32 = 2;
/// WAL header: magic + version.
const WAL_HEADER_LEN: u64 = 8;
/// Per-record frame: payload length (u32) + CRC32 of the payload (u32).
const FRAME_LEN: usize = 8;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven — the container has no checksum
// crate, and eight lines of const eval are cheaper than a dependency.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `data` — the checksum framing every WAL record and
/// snapshot payload.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Little-endian encode/decode helpers. Decoding never panics: every
// read is bounds-checked and surfaces `MaintainError::Corrupt`.

fn corrupt(detail: impl Into<String>) -> MaintainError {
    MaintainError::Corrupt {
        detail: detail.into(),
    }
}

fn io_err(op: &'static str, e: std::io::Error) -> MaintainError {
    MaintainError::Io {
        op,
        message: e.to_string(),
    }
}

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Dec { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MaintainError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| corrupt(format!("{}: truncated at byte {}", self.what, self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, MaintainError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, MaintainError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(corrupt(format!("{}: bad bool tag {v}", self.what))),
        }
    }

    fn u32(&mut self) -> Result<u32, MaintainError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, MaintainError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, MaintainError> {
        usize::try_from(self.u64()?)
            .map_err(|_| corrupt(format!("{}: length overflows usize", self.what)))
    }

    /// A length read that will be used to reserve or loop: bounded by
    /// the bytes actually remaining, so a corrupted length cannot
    /// trigger an absurd allocation before the element reads fail.
    fn count(&mut self) -> Result<usize, MaintainError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(corrupt(format!(
                "{}: element count {n} exceeds remaining payload",
                self.what
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, MaintainError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(format!("{}: invalid UTF-8 string", self.what)))
    }

    fn done(&self) -> Result<(), MaintainError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{}: {} trailing bytes after payload",
                self.what,
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Options and handles.

/// Where and how to persist a resident [`IncrementalDualSim`].
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding `wal.log` and `snapshot-<epoch>.snap` files.
    pub dir: PathBuf,
    /// Write a snapshot automatically after every N committed batches
    /// (`None`: only the initial snapshot and explicit
    /// [`IncrementalDualSim::snapshot_now`] calls).
    pub snapshot_every: Option<u64>,
    /// Fsync the WAL after every append and snapshots before their
    /// rename (the crash-consistency guarantee). Benches may disable
    /// this to measure the pure serialization overhead.
    pub fsync: bool,
    /// Opaque caller metadata stored in every snapshot (the CLI stores
    /// the query text and union-branch index here); recovery hands it
    /// back verbatim.
    pub meta: String,
    /// Snapshot retention: after every successful snapshot write, only
    /// the newest `keep_snapshots` snapshot files are kept and older
    /// ones are garbage-collected (`0` disables pruning and keeps every
    /// snapshot forever). The default keeps 2, so recovery can still
    /// fall back across one corrupted newest snapshot to an older one
    /// plus a longer WAL replay.
    pub keep_snapshots: usize,
}

impl DurabilityOptions {
    /// Options with defaults: fsync on, no automatic snapshots, empty
    /// metadata, two retained snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            snapshot_every: None,
            fsync: true,
            meta: String::new(),
            keep_snapshots: 2,
        }
    }
}

/// What [`recover`] reports about how it reconstructed the resident
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch id of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Snapshots that failed checksum/format validation and were
    /// skipped in favour of an older one.
    pub snapshots_skipped: usize,
    /// WAL records replayed past the snapshot's epoch.
    pub records_replayed: usize,
    /// Bytes of a torn (or corrupt) WAL tail that were truncated.
    pub torn_bytes: u64,
    /// The recovered engine's epoch (snapshot epoch + records replayed).
    pub epoch: u64,
}

/// A recovered resident instance: the engine (durability re-attached,
/// resumed warm), the reconstructed database, the snapshot's caller
/// metadata, and the [`RecoveryReport`].
#[derive(Debug)]
pub struct Recovered {
    /// The recovered maintenance instance, ready for further updates.
    pub sim: IncrementalDualSim,
    /// The database as of the recovered epoch.
    pub db: GraphDb,
    /// The snapshot's opaque caller metadata.
    pub meta: String,
    /// How recovery got here.
    pub report: RecoveryReport,
}

/// The open durability handle an [`IncrementalDualSim`] carries: the
/// WAL file positioned at its committed end, plus the snapshot policy.
#[derive(Debug)]
pub(crate) struct Durability {
    dir: PathBuf,
    wal: File,
    /// End offset of the last fully committed WAL record. The file is
    /// truncated back to this offset before every append, so a torn
    /// tail left by an earlier in-process append failure can never
    /// corrupt the framing of later records.
    committed_len: u64,
    snapshot_every: Option<u64>,
    fsync: bool,
    meta: String,
    keep_snapshots: usize,
}

impl Durability {
    /// Creates a fresh durability directory: any existing WAL and
    /// snapshots in `dir` are removed (this starts a **new** resident
    /// instance; use [`recover`] to resume an old one), and an empty
    /// WAL with a header is written and synced.
    pub(crate) fn create(opts: &DurabilityOptions) -> Result<Self, MaintainError> {
        fs::create_dir_all(&opts.dir).map_err(|e| io_err("durability dir create", e))?;
        for entry in fs::read_dir(&opts.dir).map_err(|e| io_err("durability dir scan", e))? {
            let entry = entry.map_err(|e| io_err("durability dir scan", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snapshot-") && (name.ends_with(".snap") || name.ends_with(".tmp"))
            {
                fs::remove_file(entry.path()).map_err(|e| io_err("stale snapshot remove", e))?;
            }
        }
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(wal_path(&opts.dir))
            .map_err(|e| io_err("wal create", e))?;
        wal.write_all(WAL_MAGIC).map_err(|e| io_err("wal create", e))?;
        wal.write_all(&FORMAT_VERSION.to_le_bytes())
            .map_err(|e| io_err("wal create", e))?;
        if opts.fsync {
            wal.sync_data().map_err(|e| io_err("wal create", e))?;
        }
        Ok(Durability {
            dir: opts.dir.clone(),
            wal,
            committed_len: WAL_HEADER_LEN,
            snapshot_every: opts.snapshot_every,
            fsync: opts.fsync,
            meta: opts.meta.clone(),
            keep_snapshots: opts.keep_snapshots,
        })
    }

    /// Re-opens the WAL of a recovered instance for appending.
    /// `committed_len` is the verified end offset the recovery scan
    /// established (the file was already truncated there). A missing
    /// WAL file (never created, or lost with its directory entry) is
    /// recreated empty.
    fn open_for_append(opts: &DurabilityOptions, committed_len: u64) -> Result<Self, MaintainError> {
        let path = wal_path(&opts.dir);
        if !path.exists() {
            return Self::create(opts);
        }
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("wal open", e))?;
        Ok(Durability {
            dir: opts.dir.clone(),
            wal,
            committed_len,
            snapshot_every: opts.snapshot_every,
            fsync: opts.fsync,
            meta: opts.meta.clone(),
            keep_snapshots: opts.keep_snapshots,
        })
    }

    pub(crate) fn snapshot_every(&self) -> Option<u64> {
        self.snapshot_every
    }

    pub(crate) fn meta(&self) -> &str {
        &self.meta
    }

    /// Appends one update record to the WAL and (configurably) fsyncs
    /// it. Run as the epoch commit hook: an `Err` here rolls the
    /// in-memory batch back, so the update is committed iff its record
    /// is durable. A partial write left behind by an earlier failure is
    /// truncated away first; a failure of *this* append leaves
    /// `committed_len` unchanged, so the next append (or the recovery
    /// scan) discards the torn bytes.
    pub(crate) fn append(
        &mut self,
        epoch: u64,
        insert: bool,
        batch: &[Triple],
    ) -> Result<(), MaintainError> {
        failpoints::check("wal-append")?;
        let end = self
            .wal
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("wal append", e))?;
        if end != self.committed_len {
            self.wal
                .set_len(self.committed_len)
                .map_err(|e| io_err("wal append", e))?;
            self.wal
                .seek(SeekFrom::Start(self.committed_len))
                .map_err(|e| io_err("wal append", e))?;
        }
        let mut enc = Enc::default();
        enc.u64(epoch);
        enc.bool(insert);
        enc.u32(batch.len() as u32);
        for t in batch {
            enc.u32(t.s);
            enc.u32(t.p);
            enc.u32(t.o);
        }
        let payload = enc.buf;
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        // The torn-write failpoint models a crash mid-record: half the
        // frame reaches the disk, the rest never does. The partial
        // bytes are deliberately left in place — recovery (and the
        // next in-process append) must prove they discard them.
        if let Err(fail) = failpoints::check("wal-tear") {
            let half = frame.len() / 2;
            let _ = self.wal.write_all(&frame[..half]);
            let _ = self.wal.flush();
            return Err(fail);
        }
        self.wal
            .write_all(&frame)
            .map_err(|e| io_err("wal append", e))?;
        // Past this point the record is fully framed on disk. If the
        // process dies before the fsync completes the record may or
        // may not survive — both outcomes are consistent: recovery
        // lands on the longest fully-framed record prefix.
        failpoints::check("wal-fsync")?;
        if self.fsync {
            self.wal.sync_data().map_err(|e| io_err("wal fsync", e))?;
        }
        self.committed_len = end.max(self.committed_len) + frame.len() as u64;
        // `end` can only exceed committed_len transiently (torn bytes
        // truncated above), so recompute from the authoritative base:
        self.committed_len = self.committed_len.min(
            self.wal
                .stream_position()
                .map_err(|e| io_err("wal append", e))?,
        );
        Ok(())
    }

    /// Serializes and atomically installs a snapshot of the full
    /// resident state: temp file → fsync → rename → directory fsync.
    /// After a successful install, snapshots older than the newest
    /// [`DurabilityOptions::keep_snapshots`] are garbage-collected
    /// (best-effort — a failed unlink never fails the batch); the
    /// retained ones stay in place as recovery fallbacks.
    pub(crate) fn write_snapshot(&mut self, state: &SnapshotState<'_>) -> Result<(), MaintainError> {
        failpoints::check("snapshot-write")?;
        let payload = encode_snapshot(state);
        let tmp = self.dir.join(format!("snapshot-{:020}.tmp", state.epoch));
        let final_path = snapshot_path(&self.dir, state.epoch);
        let mut frame = Vec::with_capacity(16 + payload.len());
        frame.extend_from_slice(SNAP_MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut f = File::create(&tmp).map_err(|e| io_err("snapshot write", e))?;
        // Torn snapshot write: half the frame lands in the temp file,
        // which is never renamed — recovery ignores `.tmp` files, so a
        // crash here costs nothing but the orphaned temp.
        if let Err(fail) = failpoints::check("snapshot-tear") {
            let half = frame.len() / 2;
            let _ = f.write_all(&frame[..half]);
            let _ = f.flush();
            return Err(fail);
        }
        f.write_all(&frame).map_err(|e| io_err("snapshot write", e))?;
        failpoints::check("snapshot-fsync")?;
        if self.fsync {
            f.sync_data().map_err(|e| io_err("snapshot fsync", e))?;
        }
        drop(f);
        failpoints::check("snapshot-rename")?;
        fs::rename(&tmp, &final_path).map_err(|e| io_err("snapshot rename", e))?;
        if self.fsync {
            // Make the rename itself durable.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        if self.keep_snapshots > 0 {
            if let Ok(snapshots) = list_snapshots(&self.dir) {
                // `list_snapshots` returns newest-first; everything past
                // the retention window is pruned best-effort.
                for (_, path) in snapshots.into_iter().skip(self.keep_snapshots) {
                    let _ = fs::remove_file(path);
                }
            }
        }
        Ok(())
    }
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch:020}.snap"))
}

// ---------------------------------------------------------------------
// Snapshot serialization.

/// Borrowed view of everything a snapshot records. Exactly one of
/// `engine` / `solution` is `Some`, mirroring the two
/// [`FixpointMode`]s.
pub(crate) struct SnapshotState<'a> {
    pub(crate) epoch: u64,
    pub(crate) meta: &'a str,
    pub(crate) config: &'a SolverConfig,
    pub(crate) db: &'a GraphDb,
    pub(crate) soi: &'a Soi,
    pub(crate) warm: bool,
    /// Resident delta engine state ([`FixpointMode::DeltaCounting`]).
    pub(crate) engine: Option<EngineState>,
    /// Solution snapshot ([`FixpointMode::Reevaluate`]).
    pub(crate) solution: Option<(&'a [ChiVec], &'a SolveStats)>,
}

/// Owned, decoded snapshot contents.
struct DecodedSnapshot {
    epoch: u64,
    meta: String,
    config: SolverConfig,
    db: GraphDb,
    soi: Soi,
    warm: bool,
    engine: Option<EngineState>,
    solution: Option<(Vec<ChiVec>, SolveStats)>,
}

fn chi_backend_tag(b: ChiBackend) -> u8 {
    match b {
        ChiBackend::Dense => 0,
        ChiBackend::Rle => 1,
        ChiBackend::Auto => 2,
    }
}

fn chi_backend_from(tag: u8, what: &str) -> Result<ChiBackend, MaintainError> {
    match tag {
        0 => Ok(ChiBackend::Dense),
        1 => Ok(ChiBackend::Rle),
        2 => Ok(ChiBackend::Auto),
        v => Err(corrupt(format!("{what}: bad χ backend tag {v}"))),
    }
}

fn slab_backend_tag(b: SlabBackend) -> u8 {
    match b {
        SlabBackend::Dense => 0,
        SlabBackend::Sparse => 1,
        SlabBackend::Auto => 2,
    }
}

fn slab_backend_from(tag: u8, what: &str) -> Result<SlabBackend, MaintainError> {
    match tag {
        0 => Ok(SlabBackend::Dense),
        1 => Ok(SlabBackend::Sparse),
        2 => Ok(SlabBackend::Auto),
        v => Err(corrupt(format!("{what}: bad slab backend tag {v}"))),
    }
}

fn kernel_backend_tag(b: KernelBackend) -> u8 {
    match b {
        KernelBackend::Scalar => 0,
        KernelBackend::Unrolled => 1,
        KernelBackend::Simd => 2,
        KernelBackend::Auto => 3,
    }
}

fn kernel_backend_from(tag: u8, what: &str) -> Result<KernelBackend, MaintainError> {
    match tag {
        0 => Ok(KernelBackend::Scalar),
        1 => Ok(KernelBackend::Unrolled),
        2 => Ok(KernelBackend::Simd),
        3 => Ok(KernelBackend::Auto),
        v => Err(corrupt(format!("{what}: bad kernel backend tag {v}"))),
    }
}

fn encode_config(enc: &mut Enc, c: &SolverConfig) {
    enc.u8(match c.strategy {
        EvalStrategy::RowWise => 0,
        EvalStrategy::ColumnWise => 1,
        EvalStrategy::Adaptive => 2,
    });
    enc.u8(match c.ordering {
        IneqOrdering::QueryOrder => 0,
        IneqOrdering::SparsityFirst => 1,
    });
    enc.u8(match c.init {
        InitMode::AllOnes => 0,
        InitMode::Summaries => 1,
    });
    enc.u8(match c.fixpoint {
        FixpointMode::Reevaluate => 0,
        FixpointMode::DeltaCounting => 1,
    });
    match c.drain {
        DrainStrategy::Sequential => {
            enc.u8(0);
            enc.u64(0);
        }
        DrainStrategy::Sharded { threads } => {
            enc.u8(1);
            enc.usize(threads);
        }
    }
    enc.usize(c.drain_inline_below);
    enc.u8(chi_backend_tag(c.chi_backend));
    enc.u8(slab_backend_tag(c.slab_backend));
    enc.usize(c.seed_threads);
    enc.bool(c.early_exit);
    match c.drain_budget {
        None => {
            enc.u8(0);
            enc.u64(0);
        }
        Some(b) => {
            enc.u8(1);
            enc.usize(b);
        }
    }
    enc.bool(c.journal);
    enc.u8(kernel_backend_tag(c.kernel_backend));
}

fn decode_config(dec: &mut Dec<'_>) -> Result<SolverConfig, MaintainError> {
    let strategy = match dec.u8()? {
        0 => EvalStrategy::RowWise,
        1 => EvalStrategy::ColumnWise,
        2 => EvalStrategy::Adaptive,
        v => return Err(corrupt(format!("config: bad strategy tag {v}"))),
    };
    let ordering = match dec.u8()? {
        0 => IneqOrdering::QueryOrder,
        1 => IneqOrdering::SparsityFirst,
        v => return Err(corrupt(format!("config: bad ordering tag {v}"))),
    };
    let init = match dec.u8()? {
        0 => InitMode::AllOnes,
        1 => InitMode::Summaries,
        v => return Err(corrupt(format!("config: bad init tag {v}"))),
    };
    let fixpoint = match dec.u8()? {
        0 => FixpointMode::Reevaluate,
        1 => FixpointMode::DeltaCounting,
        v => return Err(corrupt(format!("config: bad fixpoint tag {v}"))),
    };
    let drain = match (dec.u8()?, dec.usize()?) {
        (0, _) => DrainStrategy::Sequential,
        (1, threads) => DrainStrategy::Sharded { threads },
        (v, _) => return Err(corrupt(format!("config: bad drain tag {v}"))),
    };
    let drain_inline_below = dec.usize()?;
    let chi_backend = chi_backend_from(dec.u8()?, "config")?;
    let slab_backend = slab_backend_from(dec.u8()?, "config")?;
    let seed_threads = dec.usize()?;
    let early_exit = dec.bool()?;
    let drain_budget = match (dec.u8()?, dec.usize()?) {
        (0, _) => None,
        (1, b) => Some(b),
        (v, _) => return Err(corrupt(format!("config: bad budget tag {v}"))),
    };
    let journal = dec.bool()?;
    let kernel_backend = kernel_backend_from(dec.u8()?, "config")?;
    Ok(SolverConfig {
        strategy,
        ordering,
        init,
        fixpoint,
        drain,
        drain_inline_below,
        chi_backend,
        slab_backend,
        seed_threads,
        early_exit,
        drain_budget,
        journal,
        kernel_backend,
    })
}

fn encode_db(enc: &mut Enc, db: &GraphDb) {
    enc.usize(db.num_nodes());
    for v in 0..db.num_nodes() {
        enc.str(db.node_name(v as u32));
        enc.u8(match db.node_kind(v as u32) {
            NodeKind::Iri => 0,
            NodeKind::Literal => 1,
        });
    }
    enc.usize(db.num_labels());
    for a in 0..db.num_labels() {
        enc.str(db.label_name(a as u32));
    }
    enc.usize(db.num_triples());
    for t in db.triples() {
        enc.u32(t.s);
        enc.u32(t.p);
        enc.u32(t.o);
    }
}

fn decode_db(dec: &mut Dec<'_>) -> Result<GraphDb, MaintainError> {
    let mut b = GraphDbBuilder::new();
    let nodes = dec.count()?;
    for i in 0..nodes {
        let name = dec.str()?;
        let kind = match dec.u8()? {
            0 => NodeKind::Iri,
            1 => NodeKind::Literal,
            v => return Err(corrupt(format!("graph: bad node kind tag {v}"))),
        };
        let id = b
            .add_node(&name, kind)
            .map_err(|e| corrupt(format!("graph: node {i}: {e}")))?;
        if id as usize != i {
            return Err(corrupt(format!(
                "graph: node {name:?} interned as {id}, expected {i}"
            )));
        }
    }
    let labels = dec.count()?;
    for i in 0..labels {
        let name = dec.str()?;
        let id = b.intern_label(&name);
        if id as usize != i {
            return Err(corrupt(format!(
                "graph: label {name:?} interned as {id}, expected {i}"
            )));
        }
    }
    let triples = dec.count()?;
    for _ in 0..triples {
        let (s, p, o) = (dec.u32()?, dec.u32()?, dec.u32()?);
        b.add_triple_ids(s, p, o)
            .map_err(|e| corrupt(format!("graph: triple ({s},{p},{o}): {e}")))?;
    }
    Ok(b.finish())
}

fn encode_soi(enc: &mut Enc, soi: &Soi) {
    enc.usize(soi.vars.len());
    for var in &soi.vars {
        enc.str(&var.name);
        match &var.origin {
            None => enc.u8(0),
            Some(o) => {
                enc.u8(1);
                enc.str(o);
            }
        }
        enc.bool(var.mandatory);
        match var.pinned {
            None => enc.u8(0),
            Some(None) => enc.u8(1),
            Some(Some(id)) => {
                enc.u8(2);
                enc.u32(id);
            }
        }
    }
    enc.usize(soi.ineqs.len());
    for ineq in &soi.ineqs {
        match *ineq {
            Inequality::Edge {
                target,
                source,
                label,
                forward,
            } => {
                enc.u8(0);
                enc.usize(target);
                enc.usize(source);
                match label {
                    None => enc.u8(0),
                    Some(a) => {
                        enc.u8(1);
                        enc.u32(a);
                    }
                }
                enc.bool(forward);
            }
            Inequality::Subset { sub, sup } => {
                enc.u8(1);
                enc.usize(sub);
                enc.usize(sup);
            }
        }
    }
    enc.usize(soi.edges.len());
    for e in &soi.edges {
        enc.usize(e.src);
        match e.label {
            None => enc.u8(0),
            Some(a) => {
                enc.u8(1);
                enc.u32(a);
            }
        }
        enc.usize(e.dst);
    }
    enc.usize(soi.scope.len());
    for (key, vars) in &soi.scope {
        enc.str(key);
        enc.usize(vars.len());
        for &v in vars {
            enc.usize(v);
        }
    }
    enc.u8(match soi.kind {
        SimulationKind::Dual => 0,
        SimulationKind::Forward => 1,
    });
}

fn decode_soi(dec: &mut Dec<'_>) -> Result<Soi, MaintainError> {
    let nv = dec.count()?;
    let mut vars = Vec::with_capacity(nv);
    for _ in 0..nv {
        let name = dec.str()?;
        let origin = match dec.u8()? {
            0 => None,
            1 => Some(dec.str()?),
            v => return Err(corrupt(format!("soi: bad origin tag {v}"))),
        };
        let mandatory = dec.bool()?;
        let pinned = match dec.u8()? {
            0 => None,
            1 => Some(None),
            2 => Some(Some(dec.u32()?)),
            v => return Err(corrupt(format!("soi: bad pin tag {v}"))),
        };
        vars.push(SoiVar {
            name,
            origin,
            mandatory,
            pinned,
        });
    }
    let ni = dec.count()?;
    let mut ineqs = Vec::with_capacity(ni);
    for _ in 0..ni {
        let ineq = match dec.u8()? {
            0 => {
                let target = dec.usize()?;
                let source = dec.usize()?;
                let label = match dec.u8()? {
                    0 => None,
                    1 => Some(dec.u32()?),
                    v => return Err(corrupt(format!("soi: bad label tag {v}"))),
                };
                let forward = dec.bool()?;
                Inequality::Edge {
                    target,
                    source,
                    label,
                    forward,
                }
            }
            1 => Inequality::Subset {
                sub: dec.usize()?,
                sup: dec.usize()?,
            },
            v => return Err(corrupt(format!("soi: bad inequality tag {v}"))),
        };
        ineqs.push(ineq);
    }
    let ne = dec.count()?;
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let src = dec.usize()?;
        let label = match dec.u8()? {
            0 => None,
            1 => Some(dec.u32()?),
            v => return Err(corrupt(format!("soi: bad edge label tag {v}"))),
        };
        let dst = dec.usize()?;
        edges.push(PatternEdge { src, label, dst });
    }
    let ns = dec.count()?;
    let mut scope = BTreeMap::new();
    for _ in 0..ns {
        let key = dec.str()?;
        let n = dec.count()?;
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(dec.usize()?);
        }
        scope.insert(key, vs);
    }
    let kind = match dec.u8()? {
        0 => SimulationKind::Dual,
        1 => SimulationKind::Forward,
        v => return Err(corrupt(format!("soi: bad kind tag {v}"))),
    };
    // Index sanity: every variable reference must be in range, or the
    // restored engine would index out of bounds.
    let in_range = |v: usize| v < nv;
    let ineqs_ok = ineqs.iter().all(|i| match *i {
        Inequality::Edge { target, source, .. } => in_range(target) && in_range(source),
        Inequality::Subset { sub, sup } => in_range(sub) && in_range(sup),
    });
    let edges_ok = edges.iter().all(|e| in_range(e.src) && in_range(e.dst));
    let scope_ok = scope.values().all(|vs| vs.iter().all(|&v| in_range(v)));
    if !(ineqs_ok && edges_ok && scope_ok) {
        return Err(corrupt("soi: variable index out of range"));
    }
    Ok(Soi {
        vars,
        ineqs,
        edges,
        scope,
        kind,
    })
}

fn encode_stats(enc: &mut Enc, s: &SolveStats) {
    for v in [
        s.iterations,
        s.evaluations,
        s.updates,
        s.rowwise,
        s.colwise,
        s.rows_ored,
        s.bits_probed,
        s.counter_inits,
        s.counter_decrements,
        s.counter_increments,
        s.reactivations,
        s.row_lookups,
        s.delta_removals,
        s.drain_rounds,
        s.shard_units,
        s.seeds_deferred,
        s.lazy_seeds,
        s.initial_candidates,
        s.final_candidates,
        s.chi_peak_words,
        s.slab_peak_words,
        s.rollbacks,
        s.poisonings,
        s.budget_aborts,
        s.journal_entries,
    ] {
        enc.usize(v);
    }
    enc.bool(s.emptied_mandatory);
}

fn decode_stats(dec: &mut Dec<'_>) -> Result<SolveStats, MaintainError> {
    let mut s = SolveStats::default();
    for field in [
        &mut s.iterations,
        &mut s.evaluations,
        &mut s.updates,
        &mut s.rowwise,
        &mut s.colwise,
        &mut s.rows_ored,
        &mut s.bits_probed,
        &mut s.counter_inits,
        &mut s.counter_decrements,
        &mut s.counter_increments,
        &mut s.reactivations,
        &mut s.row_lookups,
        &mut s.delta_removals,
        &mut s.drain_rounds,
        &mut s.shard_units,
        &mut s.seeds_deferred,
        &mut s.lazy_seeds,
        &mut s.initial_candidates,
        &mut s.final_candidates,
        &mut s.chi_peak_words,
        &mut s.slab_peak_words,
        &mut s.rollbacks,
        &mut s.poisonings,
        &mut s.budget_aborts,
        &mut s.journal_entries,
    ] {
        *field = dec.usize()?;
    }
    s.emptied_mandatory = dec.bool()?;
    Ok(s)
}

fn encode_chi(enc: &mut Enc, chi: &[ChiVec]) {
    enc.usize(chi.len());
    for c in chi {
        enc.u8(chi_backend_tag(c.backend()));
        enc.usize(c.len());
        let ones = c.to_indices();
        enc.usize(ones.len());
        for w in ones {
            enc.u32(w);
        }
    }
}

fn decode_chi(dec: &mut Dec<'_>) -> Result<Vec<ChiVec>, MaintainError> {
    let n = dec.count()?;
    let mut chi = Vec::with_capacity(n);
    for i in 0..n {
        let backend = chi_backend_from(dec.u8()?, "χ")?;
        if backend == ChiBackend::Auto {
            return Err(corrupt(format!("χ[{i}]: Auto is never a resolved backend")));
        }
        let len = dec.usize()?;
        let k = dec.count()?;
        let mut ones = Vec::with_capacity(k);
        for _ in 0..k {
            let w = dec.u32()?;
            if w as usize >= len {
                return Err(corrupt(format!("χ[{i}]: index {w} out of bounds {len}")));
            }
            ones.push(w);
        }
        if !ones.windows(2).all(|p| p[0] < p[1]) {
            return Err(corrupt(format!("χ[{i}]: indices not strictly ascending")));
        }
        chi.push(ChiVec::from_indices(len, &ones, backend));
    }
    Ok(chi)
}

fn encode_engine(enc: &mut Enc, e: &EngineState) {
    encode_chi(enc, &e.chi);
    enc.usize(e.slabs.len());
    for s in &e.slabs {
        enc.u8(slab_backend_tag(s.backend));
        match &s.seeded {
            None => enc.u8(0),
            Some((dim, spilled, entries)) => {
                enc.u8(1);
                enc.usize(*dim);
                enc.bool(*spilled);
                enc.usize(entries.len());
                for &(w, c) in entries {
                    enc.u32(w);
                    enc.u32(c);
                }
            }
        }
    }
    enc.bool(e.run_aware);
    encode_stats(enc, &e.stats);
    enc.bool(e.dead);
    enc.bool(e.poisoned);
}

fn decode_engine(dec: &mut Dec<'_>) -> Result<EngineState, MaintainError> {
    let chi = decode_chi(dec)?;
    let n = dec.count()?;
    let mut slabs = Vec::with_capacity(n);
    for i in 0..n {
        let backend = slab_backend_from(dec.u8()?, "slab")?;
        if backend == SlabBackend::Auto {
            return Err(corrupt(format!(
                "slab[{i}]: Auto is never a resolved backend"
            )));
        }
        let seeded = match dec.u8()? {
            0 => None,
            1 => {
                let dim = dec.usize()?;
                let spilled = dec.bool()?;
                let k = dec.count()?;
                let mut entries = Vec::with_capacity(k);
                for _ in 0..k {
                    let w = dec.u32()?;
                    let c = dec.u32()?;
                    if w as usize >= dim {
                        return Err(corrupt(format!(
                            "slab[{i}]: column {w} out of bounds {dim}"
                        )));
                    }
                    entries.push((w, c));
                }
                if !entries.windows(2).all(|p| p[0].0 < p[1].0) {
                    return Err(corrupt(format!("slab[{i}]: columns not strictly ascending")));
                }
                Some((dim, spilled, entries))
            }
            v => return Err(corrupt(format!("slab[{i}]: bad seeded tag {v}"))),
        };
        slabs.push(SlabState { backend, seeded });
    }
    let run_aware = dec.bool()?;
    let stats = decode_stats(dec)?;
    let dead = dec.bool()?;
    let poisoned = dec.bool()?;
    Ok(EngineState {
        chi,
        slabs,
        run_aware,
        stats,
        dead,
        poisoned,
    })
}

fn encode_snapshot(state: &SnapshotState<'_>) -> Vec<u8> {
    let mut enc = Enc::default();
    enc.u64(state.epoch);
    enc.str(state.meta);
    encode_config(&mut enc, state.config);
    encode_db(&mut enc, state.db);
    encode_soi(&mut enc, state.soi);
    enc.bool(state.warm);
    match (&state.engine, &state.solution) {
        (Some(e), _) => {
            enc.u8(1);
            encode_engine(&mut enc, e);
        }
        (None, Some((chi, stats))) => {
            enc.u8(0);
            encode_chi(&mut enc, chi);
            encode_stats(&mut enc, stats);
        }
        (None, None) => {
            debug_assert!(false, "snapshot state carries neither engine nor solution");
            enc.u8(0);
            encode_chi(&mut enc, &[]);
            encode_stats(&mut enc, &SolveStats::default());
        }
    }
    enc.buf
}

fn decode_snapshot(payload: &[u8]) -> Result<DecodedSnapshot, MaintainError> {
    let mut dec = Dec::new(payload, "snapshot");
    let epoch = dec.u64()?;
    let meta = dec.str()?;
    let config = decode_config(&mut dec)?;
    let db = decode_db(&mut dec)?;
    let soi = decode_soi(&mut dec)?;
    let warm = dec.bool()?;
    let (engine, solution) = match dec.u8()? {
        1 => (Some(decode_engine(&mut dec)?), None),
        0 => {
            let chi = decode_chi(&mut dec)?;
            let stats = decode_stats(&mut dec)?;
            (None, Some((chi, stats)))
        }
        v => return Err(corrupt(format!("snapshot: bad mode tag {v}"))),
    };
    dec.done()?;
    // Cross-checks against the database and SOI dimensions.
    let nv = soi.vars.len();
    let chi_ref: &[ChiVec] = match (&engine, &solution) {
        (Some(e), _) => &e.chi,
        (None, Some((chi, _))) => chi,
        (None, None) => &[],
    };
    if chi_ref.len() != nv {
        return Err(corrupt(format!(
            "snapshot: {} χ vectors for {nv} SOI variables",
            chi_ref.len()
        )));
    }
    if chi_ref.iter().any(|c| c.len() != db.num_nodes()) {
        return Err(corrupt("snapshot: χ dimension differs from node count"));
    }
    if soi
        .ineqs
        .iter()
        .any(|i| matches!(i, Inequality::Edge { label: Some(a), .. } if *a as usize >= db.num_labels()))
    {
        return Err(corrupt("snapshot: inequality label outside alphabet"));
    }
    Ok(DecodedSnapshot {
        epoch,
        meta,
        config,
        db,
        soi,
        warm,
        engine,
        solution,
    })
}

fn load_snapshot(path: &Path) -> Result<DecodedSnapshot, MaintainError> {
    let bytes = fs::read(path).map_err(|e| io_err("snapshot read", e))?;
    let name = path.display();
    if bytes.len() < 16 {
        return Err(corrupt(format!("{name}: shorter than the header")));
    }
    if &bytes[0..4] != SNAP_MAGIC {
        return Err(corrupt(format!("{name}: bad magic")));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != FORMAT_VERSION {
        return Err(corrupt(format!("{name}: unsupported version {version}")));
    }
    let len = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let Some(payload) = usize::try_from(len)
        .ok()
        .and_then(|len| bytes.get(20..20 + len))
    else {
        return Err(corrupt(format!("{name}: truncated payload")));
    };
    if bytes.len() != 20 + payload.len() {
        return Err(corrupt(format!("{name}: trailing bytes after payload")));
    }
    let crc = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    if crc32(payload) != crc {
        return Err(corrupt(format!("{name}: checksum mismatch")));
    }
    decode_snapshot(payload)
}

// ---------------------------------------------------------------------
// WAL scan + recovery.

/// One decoded WAL record: a signed triple batch committed as `epoch`.
#[derive(Debug, Clone)]
struct WalRecord {
    epoch: u64,
    insert: bool,
    batch: Vec<Triple>,
}

/// The verified prefix of a WAL file: its records, the end offset of
/// the last fully valid record, and the file's physical length.
struct WalScan {
    records: Vec<WalRecord>,
    valid_end: u64,
    file_len: u64,
}

/// Reads the longest valid record prefix of the WAL. The scan stops at
/// the first torn or corrupt record (incomplete frame, bad CRC,
/// malformed payload) — everything after it is unreachable, because
/// record framing cannot be trusted past a bad frame.
fn scan_wal(path: &Path) -> Result<WalScan, MaintainError> {
    if !path.exists() {
        return Ok(WalScan {
            records: Vec::new(),
            valid_end: 0,
            file_len: 0,
        });
    }
    let bytes = fs::read(path).map_err(|e| io_err("wal read", e))?;
    let file_len = bytes.len() as u64;
    if bytes.len() < WAL_HEADER_LEN as usize
        || &bytes[0..4] != WAL_MAGIC
        || u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != FORMAT_VERSION
    {
        // A torn-or-corrupted header invalidates the whole log; the
        // records are unrecoverable, the snapshot is authoritative.
        return Ok(WalScan {
            records: Vec::new(),
            valid_end: 0,
            file_len,
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut valid_end = pos as u64;
    while pos + FRAME_LEN <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let Some(payload) = bytes.get(pos + FRAME_LEN..pos + FRAME_LEN + len) else {
            break; // torn final record
        };
        if crc32(payload) != crc {
            break; // corrupt record: stop at the last trustworthy frame
        }
        let mut dec = Dec::new(payload, "wal record");
        let Ok(record) = (|| -> Result<WalRecord, MaintainError> {
            let epoch = dec.u64()?;
            let insert = dec.bool()?;
            let n = dec.u32()? as usize;
            if payload.len() != 13 + 12 * n {
                return Err(corrupt("wal record: length mismatch"));
            }
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(Triple::new(dec.u32()?, dec.u32()?, dec.u32()?));
            }
            Ok(WalRecord {
                epoch,
                insert,
                batch,
            })
        })() else {
            break;
        };
        records.push(record);
        pos += FRAME_LEN + len;
        valid_end = pos as u64;
    }
    Ok(WalScan {
        records,
        valid_end,
        file_len,
    })
}

/// The snapshot files of a durability directory, newest epoch first.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, MaintainError> {
    let mut snaps = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => return Err(io_err("durability dir scan", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("durability dir scan", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let Some(stem) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".snap"))
        else {
            continue;
        };
        let Ok(epoch) = stem.parse::<u64>() else {
            continue;
        };
        snaps.push((epoch, entry.path()));
    }
    snaps.sort_unstable_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    Ok(snaps)
}

/// Recovers a resident [`IncrementalDualSim`] from a durability
/// directory: loads the newest snapshot whose checksum verifies (older
/// ones are fallbacks), truncates any torn WAL tail, replays the WAL
/// records past the snapshot's epoch through the ordinary maintenance
/// paths, and re-attaches the WAL for further durable updates. The
/// replay is deterministic, so the recovered χ and logical
/// [`SolveStats`] are bit-identical to an uninterrupted run over the
/// same committed prefix.
pub(crate) fn recover(opts: &DurabilityOptions) -> Result<Recovered, MaintainError> {
    let scan = scan_wal(&wal_path(&opts.dir))?;
    let torn_bytes = scan.file_len.saturating_sub(scan.valid_end);
    let snapshots = list_snapshots(&opts.dir)?;
    if snapshots.is_empty() {
        return Err(corrupt(format!(
            "{}: no snapshot files; nothing to recover",
            opts.dir.display()
        )));
    }
    let mut skipped = 0usize;
    let mut last_err: Option<MaintainError> = None;
    for (snap_epoch, path) in &snapshots {
        let decoded = match load_snapshot(path) {
            Ok(d) => d,
            Err(e) => {
                skipped += 1;
                last_err = Some(e);
                continue;
            }
        };
        if decoded.epoch != *snap_epoch {
            skipped += 1;
            last_err = Some(corrupt(format!(
                "{}: payload epoch {} does not match file name",
                path.display(),
                decoded.epoch
            )));
            continue;
        }
        // The replayable tail must extend this snapshot gap-free.
        let tail: Vec<&WalRecord> = scan
            .records
            .iter()
            .filter(|r| r.epoch > decoded.epoch)
            .collect();
        let sequential = tail
            .iter()
            .enumerate()
            .all(|(i, r)| r.epoch == decoded.epoch + 1 + i as u64);
        if !sequential {
            skipped += 1;
            last_err = Some(corrupt(format!(
                "{}: wal records do not extend snapshot epoch {} gap-free",
                path.display(),
                decoded.epoch
            )));
            continue;
        }
        // Truncate the torn tail before replaying, so a recovered
        // engine appends cleanly after the last valid record.
        if torn_bytes > 0 && scan.file_len > 0 {
            let wal = OpenOptions::new()
                .write(true)
                .open(wal_path(&opts.dir))
                .map_err(|e| io_err("wal truncate", e))?;
            wal.set_len(scan.valid_end.max(WAL_HEADER_LEN))
                .map_err(|e| io_err("wal truncate", e))?;
        }
        return replay(opts, decoded, &tail, skipped, torn_bytes, &scan);
    }
    Err(last_err.unwrap_or_else(|| corrupt("no usable snapshot")))
}

/// Reconstructs the engine from a decoded snapshot and replays the WAL
/// tail through the ordinary maintenance paths.
fn replay(
    opts: &DurabilityOptions,
    decoded: DecodedSnapshot,
    tail: &[&WalRecord],
    snapshots_skipped: usize,
    torn_bytes: u64,
    scan: &WalScan,
) -> Result<Recovered, MaintainError> {
    let DecodedSnapshot {
        epoch: snapshot_epoch,
        meta,
        config,
        db,
        soi,
        warm,
        engine,
        solution,
    } = decoded;
    let engine = engine.map(|e| DeltaSolver::from_state(&soi, e)).transpose()?;
    let solution = match (&engine, solution) {
        (Some(e), _) => e.solution(),
        (None, Some((chi, stats))) => Solution { chi, stats },
        (None, None) => return Err(corrupt("snapshot carries neither engine nor solution")),
    };
    let mut sim =
        IncrementalDualSim::from_restored(soi, config, engine, solution, warm, snapshot_epoch);
    let mut db = db;
    for record in tail {
        db.apply(record.insert, &record.batch)
            .map_err(|e| corrupt(format!("wal replay epoch {}: {e}", record.epoch)))?;
        if record.insert {
            sim.apply_insertions(&db, &record.batch)?;
        } else {
            sim.apply_deletions(&db, &record.batch)?;
        }
    }
    let epoch = sim.epoch();
    debug_assert_eq!(epoch, snapshot_epoch + tail.len() as u64);
    let committed_len = if scan.file_len == 0 {
        WAL_HEADER_LEN // the WAL will be recreated on attach
    } else {
        scan.valid_end.max(WAL_HEADER_LEN)
    };
    sim.attach_recovered(Durability::open_for_append(opts, committed_len)?);
    Ok(Recovered {
        sim,
        db,
        meta,
        report: RecoveryReport {
            snapshot_epoch,
            snapshots_skipped,
            records_replayed: tail.len(),
            torn_bytes,
            epoch,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn enc_dec_round_trip_primitives() {
        let mut enc = Enc::default();
        enc.u8(7);
        enc.bool(true);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.usize(42);
        enc.str("héllo");
        let mut dec = Dec::new(&enc.buf, "test");
        assert_eq!(dec.u8().unwrap(), 7);
        assert!(dec.bool().unwrap());
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.usize().unwrap(), 42);
        assert_eq!(dec.str().unwrap(), "héllo");
        assert!(dec.done().is_ok());
    }

    #[test]
    fn dec_reports_truncation_and_trailing_bytes() {
        let mut dec = Dec::new(&[1, 2], "test");
        assert!(matches!(dec.u32(), Err(MaintainError::Corrupt { .. })));
        let mut dec = Dec::new(&[1, 2], "test");
        assert_eq!(dec.u8().unwrap(), 1);
        assert!(matches!(dec.done(), Err(MaintainError::Corrupt { .. })));
    }

    #[test]
    fn config_round_trips_through_the_wire_format() {
        let configs = [
            SolverConfig::default(),
            SolverConfig {
                strategy: EvalStrategy::RowWise,
                ordering: IneqOrdering::QueryOrder,
                init: InitMode::AllOnes,
                fixpoint: FixpointMode::DeltaCounting,
                drain: DrainStrategy::Sharded { threads: 7 },
                drain_inline_below: 3,
                chi_backend: ChiBackend::Rle,
                slab_backend: SlabBackend::Sparse,
                seed_threads: 4,
                early_exit: false,
                drain_budget: Some(123_456),
                journal: false,
                kernel_backend: KernelBackend::Unrolled,
            },
        ];
        for config in configs {
            let mut enc = Enc::default();
            encode_config(&mut enc, &config);
            let mut dec = Dec::new(&enc.buf, "test");
            assert_eq!(decode_config(&mut dec).unwrap(), config);
            assert!(dec.done().is_ok());
        }
    }

    #[test]
    fn stats_round_trip_bit_for_bit() {
        let s = SolveStats {
            iterations: 3,
            counter_inits: 99,
            journal_entries: 1234,
            emptied_mandatory: true,
            ..Default::default()
        };
        let mut enc = Enc::default();
        encode_stats(&mut enc, &s);
        let mut dec = Dec::new(&enc.buf, "test");
        assert_eq!(decode_stats(&mut dec).unwrap(), s);
        assert!(dec.done().is_ok());
    }

    #[test]
    fn chi_round_trips_both_backends() {
        let chi = vec![
            ChiVec::from_indices(130, &[0, 1, 64, 129], ChiBackend::Dense),
            ChiVec::from_indices(130, &[5, 6, 7], ChiBackend::Rle),
            ChiVec::zeros(10, ChiBackend::Rle),
        ];
        let mut enc = Enc::default();
        encode_chi(&mut enc, &chi);
        let mut dec = Dec::new(&enc.buf, "test");
        let back = decode_chi(&mut dec).unwrap();
        assert!(dec.done().is_ok());
        assert_eq!(back.len(), chi.len());
        for (a, b) in chi.iter().zip(&back) {
            assert_eq!(a, b);
            assert_eq!(a.backend(), b.backend(), "backend preserved exactly");
        }
    }

    #[test]
    fn wal_scan_of_a_missing_file_is_empty() {
        let scan = scan_wal(Path::new("/nonexistent/definitely/wal.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.file_len, 0);
    }
}
