//! Crash-safe checkpoint files (format `FDCP1`).
//!
//! A checkpoint captures everything a resumed run needs to continue
//! *exactly* where an interrupted one stopped: the gate cursor, the phase,
//! the EWMA monitor, the persisted run statistics, the sampling RNG
//! position — and the state itself, in whichever representation was live.
//! The DD phase reuses the compact QDDV1 serializer (a regular state is
//! kilobytes on disk); the flat phase writes the raw amplitude array in
//! chunks.
//!
//! ## Byte layout (little-endian; see DESIGN.md §10)
//!
//! ```text
//! magic "FDCP1\0" | u32 version (=2)
//! u32 header_len | header bytes          | u32 CRC32(header bytes)
//! u8 payload kind (0=dd, 1=flat)
//! u64 payload_len | payload bytes        | u32 CRC32(payload bytes)
//! ```
//!
//! Header fields, in order: `u64 circuit_hash`, `u64 config_fingerprint`,
//! `u32 n`, `u64 gate_cursor`, `u8 phase`, `u8 conversion_blocked`,
//! EWMA state (`f64 v`, `u8 seeded`, `u64 observations`), `u64 rng_seed`,
//! `u64 rng_pos`, then the persisted [`FlatDdStats`] subset (14 fields).
//! Version 2 appended the approximation-rung fields
//! (`u64 approx_truncations`, `f64 fidelity`) so a resume preserves the
//! cumulative fidelity product; version-1 files are rejected as an
//! unsupported format version.
//!
//! ## Atomic installation
//!
//! A write has two halves. [`stage_checkpoint`] encodes and checksums the
//! checkpoint into a staging file (`<path>.tmp`, or `<path>.1.tmp` while
//! the other is being installed) with no `fsync`; [`Staged::install`]
//! fsyncs it, renames it over `<path>` and fsyncs the parent directory, so
//! `<path>` always holds either the previous complete checkpoint or the
//! new complete one — a crash mid-write can never leave a half-written
//! file under the real name. A synchronous write is the two halves back to
//! back; a served job's periodic checkpoints are installed on an installer
//! thread, handed over through an [`InstallMailbox`]. Every structural
//! defect a torn or bit-flipped file *can* exhibit is detected at load
//! time by the section CRCs and bounds checks and surfaced as
//! [`FlatDdError::CorruptCheckpoint`], never a panic.

use crate::error::FlatDdError;
use crate::ewma::EwmaState;
use crate::faults;
use crate::sim::{FlatDdStats, Phase};
use qcircuit::{Circuit, Complex64};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

const MAGIC: &[u8; 6] = b"FDCP1\0";
const VERSION: u32 = 2;
/// Serialized header size for format version 2 (v1 + the two
/// approximation-rung stats fields).
const HEADER_LEN_V2: usize = 8 + 8 + 4 + 8 + 1 + 1 + (8 + 1 + 8) + 8 + 8 + 14 * 8;
/// Amplitudes per chunk when writing/reading the flat payload.
const FLAT_CHUNK: usize = 1 << 15;

/// When the simulator writes checkpoints, and where.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Installed checkpoint file (the `*.tmp` staging siblings are
    /// transient).
    pub path: PathBuf,
    /// Write a checkpoint every this many applied gates (`None` = only on
    /// breach/signal).
    pub every_gates: Option<usize>,
    /// Write a checkpoint when a resumable budget breach (memory/deadline)
    /// or a polled signal ends the run.
    pub on_breach: bool,
    /// Sampling RNG seed to persist, so a resumed run's measurement draws
    /// match the uninterrupted run's.
    pub rng_seed: u64,
    /// Extra attempts after a failed (or verification-rejected) periodic
    /// checkpoint write. `0` restores the old single-best-effort behavior.
    pub write_retries: u32,
    /// Backoff before the first retry, doubling per attempt (capped at
    /// [`CheckpointPolicy::MAX_RETRY_BACKOFF_MS`]).
    pub retry_backoff_ms: u64,
    /// Whether a run that completes returns only once its newest periodic
    /// checkpoint is installed (the default). A caller that deletes the
    /// file when the run completes (the daemon, on `done`) clears it: the
    /// run then drops a checkpoint still waiting for its install, and only
    /// the one in flight finishes.
    pub install_on_completion: bool,
}

impl CheckpointPolicy {
    /// Ceiling for the doubling retry backoff.
    pub const MAX_RETRY_BACKOFF_MS: u64 = 200;

    /// Policy writing to `path` on breaches/signals only.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every_gates: None,
            on_breach: true,
            rng_seed: 0,
            write_retries: 2,
            retry_backoff_ms: 10,
            install_on_completion: true,
        }
    }

    /// Adds a periodic trigger.
    pub fn every(mut self, gates: usize) -> Self {
        self.every_gates = (gates > 0).then_some(gates);
        self
    }

    /// Overrides the periodic-write retry budget.
    pub fn retries(mut self, attempts: u32, backoff_ms: u64) -> Self {
        self.write_retries = attempts;
        self.retry_backoff_ms = backoff_ms;
        self
    }
}

/// The parsed checkpoint header.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointHeader {
    /// FNV-1a fingerprint of the circuit (qubits + every gate).
    pub circuit_hash: u64,
    /// FNV-1a fingerprint of the result-relevant config (conversion,
    /// caching, fusion policies — thread count deliberately excluded).
    pub config_fingerprint: u64,
    /// Qubit count.
    pub n: u32,
    /// Gates already applied when the checkpoint was taken.
    pub gate_cursor: u64,
    /// Phase the state payload is in.
    pub phase: Phase,
    /// Whether conversion had been refused and blocked.
    pub conversion_blocked: bool,
    /// EWMA monitor state at the cursor.
    pub ewma: EwmaState,
    /// Sampling RNG seed (from [`CheckpointPolicy::rng_seed`]).
    pub rng_seed: u64,
    /// Reserved RNG stream position (0 until sampling mid-run exists).
    pub rng_pos: u64,
    /// Persisted run statistics (the compute-table delta fields are
    /// re-baselined on resume and intentionally not stored).
    pub stats: FlatDdStats,
}

/// The state payload of a loaded checkpoint.
#[derive(Debug)]
pub enum CheckpointState {
    /// QDDV1 bytes (DD phase) — deserialize with
    /// `qdd::serialize::vector_dd_from_bytes` into the resuming package.
    Dd(Vec<u8>),
    /// The flat amplitude array (DMAV phase).
    Flat(Vec<Complex64>),
}

/// The state payload to write (borrowed; nothing is copied up front).
pub enum CheckpointPayload<'a> {
    /// QDDV1 bytes.
    Dd(&'a [u8]),
    /// Flat amplitudes, written as one chunked little-endian stream under
    /// one running CRC. Nothing of the writer's shard geometry reaches the
    /// file, so a resume is valid under a different `--flat-shards` value.
    Flat {
        /// The amplitude vector.
        amps: &'a [Complex64],
    },
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected), slicing-by-16 over const-built tables — no
// dependencies. A flat checkpoint is 16 bytes per amplitude, so the digest
// must run near the speed of the write and the read it guards: the bytewise
// loop (kept as the test reference) managed 0.37 GB/s.

/// Bytes one step of [`Crc32::update`] folds in.
const SLICES: usize = 16;

/// `CRC_TABLES[0]` is the bytewise table: the CRC of byte `i` alone.
/// `CRC_TABLES[k][i]` is that byte followed by `k` zero bytes, so the
/// bytes of one 16-byte step are looked up independently and combined.
const fn crc32_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; SLICES] = crc32_tables();

/// Incremental CRC32 (IEEE 802.3 polynomial).
#[derive(Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh digest.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feeds `bytes` into the digest: 16 bytes per step, the running CRC
    /// folded into the first four, then the tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut steps = bytes.chunks_exact(SLICES);
        for s in &mut steps {
            let mut x: [u8; SLICES] = s.try_into().expect("a whole step");
            let head = c ^ u32::from_le_bytes([x[0], x[1], x[2], x[3]]);
            x[..4].copy_from_slice(&head.to_le_bytes());
            c = (0..SLICES).fold(0, |acc, k| acc ^ t[SLICES - 1 - k][x[k] as usize]);
        }
        for &b in steps.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// FNV-1a fingerprints.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Content fingerprint of a circuit: qubit count plus the `Debug` rendering
/// of every gate (which covers kind, targets, controls, and parameters).
pub fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(circuit.num_qubits() as u64).to_le_bytes());
    h = fnv1a(h, &(circuit.gates().len() as u64).to_le_bytes());
    let mut buf = String::new();
    for g in circuit.iter() {
        use std::fmt::Write as _;
        buf.clear();
        let _ = write!(buf, "{g:?}");
        h = fnv1a(h, buf.as_bytes());
        h = fnv1a(h, b";");
    }
    h
}

/// Fingerprint of the result-relevant simulator configuration. Thread
/// and shard counts, trace/telemetry flags, and governor budgets are
/// excluded: they change performance, not the final state (bit for bit on
/// an unfused run, to 1e-12 on a fused one; DESIGN.md §6), so a resume may
/// legitimately use different values (e.g. a larger memory budget after a
/// breach).
/// `CostModel` stands where the retired kernel policy was rendered, so
/// files written under its default still resume.
pub fn config_fingerprint(cfg: &crate::sim::FlatDdConfig) -> u64 {
    let s = format!("{:?}|CostModel|{:?}", cfg.conversion, cfg.fusion);
    fnv1a(FNV_OFFSET, s.as_bytes())
}

// ---------------------------------------------------------------------------
// Write path.

fn corrupt(detail: impl Into<String>) -> FlatDdError {
    FlatDdError::CorruptCheckpoint {
        detail: detail.into(),
    }
}

fn encode_header(h: &CheckpointHeader) -> Vec<u8> {
    let mut b = Vec::with_capacity(HEADER_LEN_V2);
    b.extend_from_slice(&h.circuit_hash.to_le_bytes());
    b.extend_from_slice(&h.config_fingerprint.to_le_bytes());
    b.extend_from_slice(&h.n.to_le_bytes());
    b.extend_from_slice(&h.gate_cursor.to_le_bytes());
    b.push(match h.phase {
        Phase::Dd => 0,
        Phase::Dmav => 1,
    });
    b.push(h.conversion_blocked as u8);
    b.extend_from_slice(&h.ewma.v.to_le_bytes());
    b.push(h.ewma.seeded as u8);
    b.extend_from_slice(&(h.ewma.observations as u64).to_le_bytes());
    b.extend_from_slice(&h.rng_seed.to_le_bytes());
    b.extend_from_slice(&h.rng_pos.to_le_bytes());
    let s = &h.stats;
    b.extend_from_slice(&(s.gates_dd as u64).to_le_bytes());
    b.extend_from_slice(&(s.gates_dmav as u64).to_le_bytes());
    b.extend_from_slice(&s.converted_at.map_or(0u64, |g| g as u64 + 1).to_le_bytes());
    b.extend_from_slice(&s.conversion_seconds.to_le_bytes());
    b.extend_from_slice(&(s.cached_dmavs as u64).to_le_bytes());
    b.extend_from_slice(&(s.uncached_dmavs as u64).to_le_bytes());
    b.extend_from_slice(&(s.cache_hits as u64).to_le_bytes());
    b.extend_from_slice(&(s.fused_matrices as u64).to_le_bytes());
    b.extend_from_slice(&s.modeled_cost.to_le_bytes());
    b.extend_from_slice(&(s.peak_state_dd_size as u64).to_le_bytes());
    b.extend_from_slice(&(s.conversion_refusals as u64).to_le_bytes());
    b.extend_from_slice(&(s.pressure_gcs as u64).to_le_bytes());
    b.extend_from_slice(&(s.approx_truncations as u64).to_le_bytes());
    b.extend_from_slice(&s.fidelity.to_le_bytes());
    debug_assert_eq!(b.len(), HEADER_LEN_V2);
    b
}

/// Writes a checkpoint to `path` with atomic installation, probing the
/// process-global fault registry. Returns the installed file's size in
/// bytes.
pub fn write_checkpoint(
    path: &Path,
    header: &CheckpointHeader,
    payload: CheckpointPayload<'_>,
) -> Result<u64, FlatDdError> {
    stage_checkpoint(path, 0, header, payload)?.install(&faults::fires)
}

/// A checkpoint encoded, checksummed and written into one of its path's
/// two staging files, with no `fsync` yet: [`Staged::install`] makes it
/// durable and installs it, [`Staged::discard`] drops it.
pub struct Staged {
    path: PathBuf,
    tmp: PathBuf,
    slot: usize,
    file: File,
    bytes: u64,
}

/// Staging file `slot` (0 or 1) of `path`: `<path>.tmp` or
/// `<path>.1.tmp`. Both end in `.tmp`, so [`sweep_stale_tmp`] finds them.
fn staging_path(path: &Path, slot: usize) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(if slot == 0 { ".tmp" } else { ".1.tmp" });
    PathBuf::from(os)
}

/// Removes the checkpoint at `path` and both its staging files, whichever
/// exist.
pub fn remove_checkpoint(path: &Path) {
    for p in [
        path.to_path_buf(),
        staging_path(path, 0),
        staging_path(path, 1),
    ] {
        let _ = std::fs::remove_file(p);
    }
}

/// The stage half of a write: encodes `header` and `payload`, checksums
/// them and `write(2)`s them into staging file `slot` of `path`. Nothing is
/// synced, so the bytes sit in the page cache until the install.
pub fn stage_checkpoint(
    path: &Path,
    slot: usize,
    header: &CheckpointHeader,
    payload: CheckpointPayload<'_>,
) -> Result<Staged, FlatDdError> {
    let tmp = staging_path(path, slot);
    let file = File::create(&tmp).map_err(FlatDdError::Io)?;
    let empty = Staged {
        path: path.to_path_buf(),
        tmp,
        slot,
        file,
        bytes: 0,
    };
    empty.restage(header, payload)
}

impl Staged {
    /// Size of the staged file in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Stages a newer checkpoint of the same path over this one, in place:
    /// the file is rewritten from its start and cut to the new length, so
    /// replacing a checkpoint nobody installed costs no file creation.
    pub fn restage(
        mut self,
        header: &CheckpointHeader,
        payload: CheckpointPayload<'_>,
    ) -> Result<Staged, FlatDdError> {
        let written = (&self.file)
            .seek(SeekFrom::Start(0))
            .and_then(|_| write_tmp(&self.file, header, payload))
            .and_then(|bytes| {
                if bytes < self.bytes {
                    self.file.set_len(bytes)?;
                }
                Ok(bytes)
            });
        match written {
            Ok(bytes) => {
                self.bytes = bytes;
                Ok(self)
            }
            Err(e) => {
                self.discard();
                Err(FlatDdError::Io(e))
            }
        }
    }

    /// The install half of a write: `fsync` of the staged file, the
    /// corruption and ENOSPC fault hooks, `rename(2)` over the path and
    /// `fsync` of its directory, so the path always holds the previous
    /// complete checkpoint or this one. Returns the installed size; on an
    /// error the staging file is gone.
    pub fn install(
        self,
        probe: &dyn Fn(&str) -> Option<faults::FaultAction>,
    ) -> Result<u64, FlatDdError> {
        let Staged {
            path,
            tmp,
            file,
            bytes,
            ..
        } = self;
        let installed = install_tmp(&path, &tmp, file, bytes, probe);
        if installed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        installed
    }

    /// [`Self::install`] under `ctx`'s fault registry, timed from the
    /// `fsync` to the installed header into `sim.ckpt_install_us`. With
    /// `verify` the installed header is read back first, so a torn write
    /// the install reported as done fails here.
    pub fn install_with(self, ctx: &crate::RunContext, verify: bool) -> Result<u64, FlatDdError> {
        let started = std::time::Instant::now();
        let path = self.path.clone();
        let bytes = self.install(&|site| ctx.fires(site))?;
        if verify {
            read_header(&path)?;
        }
        ctx.metrics()
            .histogram("sim.ckpt_install_us")
            .observe(started.elapsed().as_micros() as u64);
        Ok(bytes)
    }

    /// Drops the staged checkpoint unused, with its staging file.
    pub fn discard(self) {
        let _ = std::fs::remove_file(&self.tmp);
    }
}

fn install_tmp(
    path: &Path,
    tmp: &Path,
    file: File,
    bytes: u64,
    probe: &dyn Fn(&str) -> Option<faults::FaultAction>,
) -> Result<u64, FlatDdError> {
    file.sync_all().map_err(FlatDdError::Io)?;
    drop(file);
    // Deterministic corruption hooks: damage the fully-written temp file
    // exactly where a torn write or a flipped medium bit would, then let
    // the normal installation proceed — the *loader* must catch it.
    if let Some(faults::FaultAction::Truncate(len)) = probe(faults::SITE_CKPT_TRUNCATE) {
        let f = OpenOptions::new()
            .write(true)
            .open(tmp)
            .map_err(FlatDdError::Io)?;
        f.set_len(len.min(bytes)).map_err(FlatDdError::Io)?;
        f.sync_all().map_err(FlatDdError::Io)?;
    }
    if let Some(faults::FaultAction::BitFlip(bit)) = probe(faults::SITE_CKPT_BITFLIP) {
        flip_bit(tmp, bit).map_err(FlatDdError::Io)?;
    }
    // Disk-full at installation time: the temp file exists but the rename
    // is denied. The temp is removed (as a real ENOSPC cleanup would) so
    // the previously installed checkpoint — if any — stays the valid one.
    // The `panic` action instead models the process dying at the install
    // point (the seam the serve crash-loop quarantine is tested through).
    if let Some(action) = probe(faults::SITE_CKPT_ENOSPC) {
        let _ = std::fs::remove_file(tmp);
        if action == faults::FaultAction::Panic {
            panic!("fault injection: crash installing checkpoint");
        }
        return Err(FlatDdError::Io(io::Error::new(
            io::ErrorKind::StorageFull,
            format!(
                "injected ENOSPC installing checkpoint {} (fault site {})",
                path.display(),
                faults::SITE_CKPT_ENOSPC
            ),
        )));
    }
    std::fs::rename(tmp, path).map_err(FlatDdError::Io)?;
    sync_parent_dir(path);
    Ok(std::fs::metadata(path).map(|m| m.len()).unwrap_or(bytes))
}

/// The newest-wins hand-off between a job thread, which stages its
/// periodic checkpoints, and an installer thread running [`Self::serve`],
/// which installs them one at a time (DESIGN.md §10.2). It holds at most
/// one pending checkpoint, which a newer one replaces; with the one in
/// flight that makes at most two staging files per path, one per slot.
#[derive(Default)]
pub struct InstallMailbox {
    mail: Mutex<Mail>,
    cv: Condvar,
}

/// One periodic install's outcome: the installed size, or why it failed.
pub(crate) type InstallOutcome = Result<u64, FlatDdError>;

#[derive(Default)]
struct Mail {
    pending: Option<Staged>,
    /// Staging slot of the checkpoint being installed.
    in_flight: Option<usize>,
    /// Outcomes the job thread has not read yet, oldest first.
    outcomes: Vec<InstallOutcome>,
    /// Set by the job side: install what is pending, then leave.
    closed: bool,
    /// Set once the installer has left [`InstallMailbox::serve`], also by
    /// a panic.
    gone: bool,
}

impl InstallMailbox {
    fn lock(&self) -> MutexGuard<'_, Mail> {
        self.mail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock for the job side, which must not wait on an installer that
    /// died: a panic there (say the `checkpoint.enospc:panic` fault)
    /// becomes a panic of the job thread too.
    fn lock_live(&self) -> MutexGuard<'_, Mail> {
        let mail = self.lock();
        if mail.gone && !mail.closed {
            drop(mail);
            panic!("the checkpoint installer died");
        }
        mail
    }

    /// The installer loop: takes the pending checkpoint, installs it and
    /// reads its header back under `ctx`'s fault registry, posts the
    /// outcome, and returns once the mailbox is closed and empty.
    pub fn serve(&self, ctx: &crate::RunContext) {
        struct Gone<'a>(&'a InstallMailbox);
        impl Drop for Gone<'_> {
            fn drop(&mut self) {
                let mut mail = self.0.lock();
                mail.gone = true;
                mail.in_flight = None;
                drop(mail);
                self.0.cv.notify_all();
            }
        }
        let _gone = Gone(self);
        loop {
            let staged = {
                let mut mail = self.lock();
                loop {
                    if let Some(staged) = mail.pending.take() {
                        mail.in_flight = Some(staged.slot);
                        break staged;
                    }
                    if mail.closed {
                        return;
                    }
                    mail = self.cv.wait(mail).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let outcome = staged.install_with(ctx, true);
            let mut mail = self.lock();
            mail.in_flight = None;
            mail.outcomes.push(outcome);
            drop(mail);
            self.cv.notify_all();
        }
    }

    /// Closes the mailbox: the installer installs what is pending and
    /// leaves [`Self::serve`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Takes the pending checkpoint back — the job thread restages over it
    /// or discards it — and names the staging slot free for the next one:
    /// the pending one's, else the one not in flight.
    pub(crate) fn take_pending(&self) -> (Option<Staged>, usize) {
        let mut mail = self.lock_live();
        let pending = mail.pending.take();
        let slot = match &pending {
            Some(staged) => staged.slot,
            None => mail.in_flight.map_or(0, |s| 1 - s),
        };
        (pending, slot)
    }

    /// Hands `staged` to the installer (staged into the slot
    /// [`Self::take_pending`] named).
    pub(crate) fn post(&self, staged: Staged) {
        let mut mail = self.lock_live();
        debug_assert!(mail.pending.is_none() && mail.in_flight != Some(staged.slot));
        mail.pending = Some(staged);
        drop(mail);
        self.cv.notify_all();
    }

    /// The outcomes posted since the last read, and whether the installer
    /// is idle (nothing pending, nothing in flight). With `wait`, first
    /// blocks until it is.
    pub(crate) fn outcomes(&self, wait: bool) -> (Vec<InstallOutcome>, bool) {
        let mut mail = self.lock_live();
        loop {
            let idle = mail.pending.is_none() && mail.in_flight.is_none();
            if idle || !wait {
                return (std::mem::take(&mut mail.outcomes), idle);
            }
            if mail.gone {
                drop(mail);
                panic!("the checkpoint installer died");
            }
            mail = self.cv.wait(mail).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Deletes stale `*.tmp` checkpoint files under `dir`, returning the
/// removed paths. A crash between `write_tmp` and the atomic rename can
/// orphan a temp file; the installed checkpoint (if any) is untouched, so
/// the orphan is pure garbage. Only files that are recognizably checkpoint
/// temps — empty, or starting with the `FDCP1` magic — are removed; other
/// people's `*.tmp` files are left alone. One line per removal is logged
/// to stderr.
pub fn sweep_stale_tmp(dir: &Path) -> Vec<PathBuf> {
    let mut removed = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return removed,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("tmp") {
            continue;
        }
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let mut magic = [0u8; 6];
        let is_ckpt_tmp = match File::open(&path) {
            Ok(mut f) => match f.read_exact(&mut magic) {
                Ok(()) => &magic == MAGIC,
                // Shorter than the magic (including empty): a torn first
                // write of a checkpoint temp.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => true,
                Err(_) => false,
            },
            Err(_) => false,
        };
        if is_ckpt_tmp && std::fs::remove_file(&path).is_ok() {
            eprintln!("[flatdd] removed stale checkpoint temp {}", path.display());
            removed.push(path);
        }
    }
    removed
}

/// Decodes one chunk of LE `(re, im)` f64 pairs into `dst`; returns `false`
/// when any amplitude is non-finite.
fn decode_flat_chunk(bytes: &[u8], dst: &mut [Complex64]) -> bool {
    debug_assert_eq!(bytes.len(), dst.len() * 16);
    let mut ok = true;
    for (i, a) in dst.iter_mut().enumerate() {
        let off = i * 16;
        let re = f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let im = f64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
        ok &= re.is_finite() && im.is_finite();
        *a = Complex64::new(re, im);
    }
    ok
}

fn encode_flat_chunk(block: &[Complex64], out: &mut [u8]) {
    debug_assert_eq!(out.len(), block.len() * 16);
    for (a, dst) in block.iter().zip(out.chunks_exact_mut(16)) {
        dst[..8].copy_from_slice(&a.re.to_le_bytes());
        dst[8..].copy_from_slice(&a.im.to_le_bytes());
    }
}

/// Writes the whole file from `file`'s current position; returns its
/// length.
fn write_tmp(
    file: &File,
    header: &CheckpointHeader,
    payload: CheckpointPayload<'_>,
) -> io::Result<u64> {
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;

    let hb = encode_header(header);
    w.write_all(&(hb.len() as u32).to_le_bytes())?;
    w.write_all(&hb)?;
    w.write_all(&crc32(&hb).to_le_bytes())?;

    let mut crc = Crc32::new();
    let payload_len = match payload {
        CheckpointPayload::Dd(bytes) => {
            w.write_all(&[0u8])?;
            w.write_all(&(bytes.len() as u64).to_le_bytes())?;
            crc.update(bytes);
            w.write_all(bytes)?;
            bytes.len()
        }
        CheckpointPayload::Flat { amps } => {
            w.write_all(&[1u8])?;
            w.write_all(&((amps.len() * 16) as u64).to_le_bytes())?;
            let mut chunk = vec![0u8; FLAT_CHUNK.min(amps.len()) * 16];
            for block in amps.chunks(FLAT_CHUNK) {
                let bytes = &mut chunk[..block.len() * 16];
                encode_flat_chunk(block, bytes);
                crc.update(bytes);
                w.write_all(bytes)?;
            }
            amps.len() * 16
        }
    };
    w.write_all(&crc.finish().to_le_bytes())?;
    w.flush()?;
    Ok((MAGIC.len() + 4 + 4 + hb.len() + 4 + 1 + 8 + payload_len + 4) as u64)
}

fn sync_parent_dir(path: &Path) {
    // Durability of the rename itself; best-effort (some filesystems refuse
    // to open directories for sync — the rename atomicity still holds).
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

fn flip_bit(path: &Path, bit: u64) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let byte_index = (bit / 8) % len;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(byte_index))?;
    f.read_exact(&mut b)?;
    b[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(byte_index))?;
    f.write_all(&b)?;
    f.sync_all()
}

// ---------------------------------------------------------------------------
// Read path.

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FlatDdError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| corrupt("header shorter than its declared fields"))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FlatDdError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, FlatDdError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, FlatDdError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, FlatDdError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn decode_header(bytes: &[u8]) -> Result<CheckpointHeader, FlatDdError> {
    let mut c = Cursor { b: bytes, pos: 0 };
    let circuit_hash = c.u64()?;
    let config_fingerprint = c.u64()?;
    let n = c.u32()?;
    if n == 0 || n > 64 {
        return Err(corrupt(format!("implausible qubit count {n}")));
    }
    let gate_cursor = c.u64()?;
    let phase = match c.u8()? {
        0 => Phase::Dd,
        1 => Phase::Dmav,
        k => return Err(corrupt(format!("unknown phase tag {k}"))),
    };
    let conversion_blocked = match c.u8()? {
        0 => false,
        1 => true,
        k => return Err(corrupt(format!("bad conversion_blocked flag {k}"))),
    };
    let ewma_v = c.f64()?;
    if !ewma_v.is_finite() {
        return Err(corrupt("non-finite EWMA value"));
    }
    let ewma_seeded = match c.u8()? {
        0 => false,
        1 => true,
        k => return Err(corrupt(format!("bad ewma seeded flag {k}"))),
    };
    let ewma_obs = c.u64()?;
    let rng_seed = c.u64()?;
    let rng_pos = c.u64()?;
    let stats = FlatDdStats {
        gates_dd: c.u64()? as usize,
        gates_dmav: c.u64()? as usize,
        converted_at: match c.u64()? {
            0 => None,
            g => Some((g - 1) as usize),
        },
        conversion_seconds: c.f64()?,
        cached_dmavs: c.u64()? as usize,
        uncached_dmavs: c.u64()? as usize,
        cache_hits: c.u64()? as usize,
        fused_matrices: c.u64()? as usize,
        modeled_cost: c.f64()?,
        peak_state_dd_size: c.u64()? as usize,
        conversion_refusals: c.u64()? as usize,
        pressure_gcs: c.u64()? as usize,
        approx_truncations: c.u64()? as usize,
        fidelity: c.f64()?,
        ..FlatDdStats::default()
    };
    if !(stats.fidelity.is_finite() && stats.fidelity > 0.0 && stats.fidelity <= 1.0) {
        return Err(corrupt(format!(
            "fidelity product {} outside (0, 1]",
            stats.fidelity
        )));
    }
    if c.pos != bytes.len() {
        return Err(corrupt("trailing bytes after header fields"));
    }
    Ok(CheckpointHeader {
        circuit_hash,
        config_fingerprint,
        n,
        gate_cursor,
        phase,
        conversion_blocked,
        ewma: EwmaState {
            v: ewma_v,
            seeded: ewma_seeded,
            observations: ewma_obs as usize,
        },
        rng_seed,
        rng_pos,
        stats,
    })
}

fn read_exactly(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), FlatDdError> {
    r.read_exact(buf)
        .map_err(|_| corrupt(format!("truncated while reading {what}")))
}

/// Reads and validates only the header of a checkpoint file — cheap even
/// for multi-gigabyte flat checkpoints (the payload is not touched).
pub fn read_header(path: &Path) -> Result<CheckpointHeader, FlatDdError> {
    let file = File::open(path).map_err(FlatDdError::Io)?;
    let mut r = BufReader::new(file);
    read_header_from(&mut r).map(|(h, _)| h)
}

/// Parses magic, version, and the checksummed header; returns the header
/// and the total prefix length consumed.
fn read_header_from(r: &mut impl Read) -> Result<(CheckpointHeader, u64), FlatDdError> {
    let mut magic = [0u8; 6];
    read_exactly(r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(corrupt("not a FlatDD checkpoint (bad magic)"));
    }
    let mut v4 = [0u8; 4];
    read_exactly(r, &mut v4, "version")?;
    let version = u32::from_le_bytes(v4);
    if version != VERSION {
        return Err(corrupt(format!("unsupported format version {version}")));
    }
    read_exactly(r, &mut v4, "header length")?;
    let hlen = u32::from_le_bytes(v4) as usize;
    if hlen != HEADER_LEN_V2 {
        return Err(corrupt(format!(
            "header length {hlen} does not match format version 2 ({HEADER_LEN_V2})"
        )));
    }
    let mut hb = vec![0u8; hlen];
    read_exactly(r, &mut hb, "header")?;
    read_exactly(r, &mut v4, "header checksum")?;
    if u32::from_le_bytes(v4) != crc32(&hb) {
        return Err(corrupt("header checksum mismatch"));
    }
    let header = decode_header(&hb)?;
    Ok((header, (6 + 4 + 4 + hlen + 4) as u64))
}

/// Reads and fully validates a checkpoint file: magic, version, both CRCs,
/// and every structural bound. Corruption of any kind comes back as
/// [`FlatDdError::CorruptCheckpoint`] — never a panic or OOM (payload
/// lengths are validated against the actual file size before allocating).
pub fn read_checkpoint(path: &Path) -> Result<(CheckpointHeader, CheckpointState), FlatDdError> {
    let file = File::open(path).map_err(FlatDdError::Io)?;
    let file_len = file.metadata().map_err(FlatDdError::Io)?.len();
    let mut r = BufReader::new(file);
    let (header, prefix) = read_header_from(&mut r)?;

    let mut k = [0u8; 1];
    read_exactly(&mut r, &mut k, "payload kind")?;
    let mut l8 = [0u8; 8];
    read_exactly(&mut r, &mut l8, "payload length")?;
    let plen = u64::from_le_bytes(l8);
    // The payload must account for every remaining byte except its CRC —
    // checked against the real file size so a corrupted length can neither
    // truncate the read nor demand an absurd allocation.
    let expected = file_len
        .checked_sub(prefix + 1 + 8 + 4)
        .ok_or_else(|| corrupt("file too short for a payload section"))?;
    if plen != expected {
        return Err(corrupt(format!(
            "payload length {plen} does not match file size (expected {expected})"
        )));
    }

    let mut crc = Crc32::new();
    let state = match k[0] {
        0 => {
            let mut bytes = Vec::new();
            bytes
                .try_reserve_exact(plen as usize)
                .map_err(|_| corrupt("DD payload too large to allocate"))?;
            bytes.resize(plen as usize, 0);
            read_exactly(&mut r, &mut bytes, "DD payload")?;
            crc.update(&bytes);
            CheckpointState::Dd(bytes)
        }
        1 => {
            if plen % 16 != 0 {
                return Err(corrupt("flat payload length not a multiple of 16"));
            }
            let count = (plen / 16) as usize;
            let dim = 1u64.checked_shl(header.n).unwrap_or(0);
            if count as u64 != dim {
                return Err(corrupt(format!(
                    "flat payload holds {count} amplitudes, expected 2^{}",
                    header.n
                )));
            }
            let mut amps = qarray::try_zeroed_state(count)
                .map_err(|_| corrupt("flat payload too large to allocate"))?;
            let mut buf = vec![0u8; FLAT_CHUNK.min(count) * 16];
            for block in amps.chunks_mut(FLAT_CHUNK) {
                let bytes = &mut buf[..block.len() * 16];
                read_exactly(&mut r, bytes, "flat payload")?;
                crc.update(bytes);
                if !decode_flat_chunk(bytes, block) {
                    return Err(corrupt("non-finite amplitude in flat payload"));
                }
            }
            CheckpointState::Flat(amps)
        }
        k => return Err(corrupt(format!("unknown payload kind {k}"))),
    };
    let mut c4 = [0u8; 4];
    read_exactly(&mut r, &mut c4, "payload checksum")?;
    if u32::from_le_bytes(c4) != crc.finish() {
        return Err(corrupt("payload checksum mismatch"));
    }
    Ok((header, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(phase: Phase) -> CheckpointHeader {
        CheckpointHeader {
            circuit_hash: 0xDEAD_BEEF_1234_5678,
            config_fingerprint: 42,
            n: 3,
            gate_cursor: 7,
            phase,
            conversion_blocked: false,
            ewma: EwmaState {
                v: 12.5,
                seeded: true,
                observations: 7,
            },
            rng_seed: 99,
            rng_pos: 0,
            stats: FlatDdStats {
                gates_dd: 5,
                gates_dmav: 2,
                converted_at: Some(5),
                conversion_seconds: 0.25,
                peak_state_dd_size: 31,
                ..FlatDdStats::default()
            },
        }
    }

    fn tmp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("flatdd_ckpt_test_{}_{name}", std::process::id()))
    }

    #[test]
    fn crc32_known_vector() {
        // The classic "123456789" check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table loop, the reference the slicing digest is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &CRC_TABLES[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_crc_matches_the_bytewise_reference() {
        // Random lengths 0-4 KiB at every alignment of the start within a
        // step, as one call and split at a random point into two (the flat
        // writer feeds chunk by chunk).
        let mut rng = qcircuit::rng::Rng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..4096 + SLICES).map(|_| rng.next_u64() as u8).collect();
        for _ in 0..200 {
            let len = rng.range(0..4097);
            for at in 0..SLICES {
                let bytes = &buf[at..at + len];
                let want = crc32_bytewise(bytes);
                assert_eq!(crc32(bytes), want, "len {len} at {at}");
                let cut = rng.range(0..len + 1);
                let mut split = Crc32::new();
                split.update(&bytes[..cut]);
                split.update(&bytes[cut..]);
                assert_eq!(split.finish(), want, "len {len} at {at} cut {cut}");
            }
        }
    }

    #[test]
    fn header_encode_decode_round_trips() {
        for phase in [Phase::Dd, Phase::Dmav] {
            let h = header(phase);
            let b = encode_header(&h);
            assert_eq!(b.len(), HEADER_LEN_V2);
            assert_eq!(decode_header(&b).unwrap(), h);
        }
    }

    #[test]
    fn fidelity_fields_round_trip_and_are_validated() {
        let mut h = header(Phase::Dd);
        h.stats.approx_truncations = 3;
        h.stats.fidelity = 0.912345678901234;
        let b = encode_header(&h);
        let d = decode_header(&b).unwrap();
        assert_eq!(d.stats.approx_truncations, 3);
        assert_eq!(d.stats.fidelity, 0.912345678901234, "bit-exact product");

        // A fidelity outside (0, 1] can only come from corruption.
        for bad in [0.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
            h.stats.fidelity = bad;
            let b = encode_header(&h);
            assert!(
                matches!(
                    decode_header(&b),
                    Err(FlatDdError::CorruptCheckpoint { .. })
                ),
                "fidelity {bad} must be rejected"
            );
        }
    }

    #[test]
    fn version_1_files_are_rejected_as_unsupported() {
        let path = tmp_file("v1");
        write_checkpoint(&path, &header(Phase::Dd), CheckpointPayload::Dd(b"x")).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Overwrite the version word (right after the 6-byte magic).
        bytes[6..10].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_checkpoint(&path) {
            Err(FlatDdError::CorruptCheckpoint { detail }) => {
                assert!(detail.contains("version"), "got: {detail}");
            }
            other => panic!("expected corrupt-checkpoint error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_checkpoint_round_trips() {
        let path = tmp_file("flat");
        let amps: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new(i as f64 * 0.25, -(i as f64)))
            .collect();
        let bytes = write_checkpoint(
            &path,
            &header(Phase::Dmav),
            CheckpointPayload::Flat { amps: &amps },
        )
        .unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert!(
            !staging_path(&path, 0).exists(),
            "tmp file must be renamed away"
        );
        let (h, state) = read_checkpoint(&path).unwrap();
        assert_eq!(h, header(Phase::Dmav));
        match state {
            CheckpointState::Flat(v) => assert_eq!(v, amps),
            _ => panic!("expected flat payload"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_checkpoint_bytes_identical_for_every_shard_count() {
        // Big enough for several FLAT_CHUNK chunks; the writer sees the
        // sharded state only as a slice, so its geometry cannot reach the
        // file.
        let n = 17u32;
        let amps: Vec<Complex64> = (0..1usize << n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos() * 0.5))
            .collect();
        let mut h = header(Phase::Dmav);
        h.n = n;
        let mut reference: Option<Vec<u8>> = None;
        for shards in [1usize, 2, 4, 16] {
            let path = tmp_file(&format!("flat-shards-{shards}"));
            let state = qarray::ShardedState::from_vec(amps.clone(), shards);
            write_checkpoint(&path, &h, CheckpointPayload::Flat { amps: &state }).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            // The file's bytes, pinned across digest implementations.
            assert_eq!(crc32(&bytes), 0xF011_2881, "shards={shards}");
            match &reference {
                None => reference = Some(bytes),
                Some(want) => assert_eq!(&bytes, want, "shards={shards}"),
            }
            let (_, state) = read_checkpoint(&path).unwrap();
            match state {
                CheckpointState::Flat(v) => assert_eq!(v, amps, "shards={shards}"),
                _ => panic!("expected flat payload"),
            }
            std::fs::remove_file(&path).ok();
        }
        // A supremacy state checkpointed while the flat phase holds qubits
        // out (the first layer's √Y turns |+> into |1>, and the CZs after
        // the conversion only add phases): the writer spreads them back in,
        // so its payload — everything after the header, whose statistics
        // carry timings — is the one the full-width state gives under every
        // shard count, and the one a resume of it (at full width, under
        // another shard count) writes again.
        let payload_of = |path: &std::path::Path| {
            let bytes = std::fs::read(path).unwrap();
            std::fs::remove_file(path).ok();
            let header_len = u32::from_le_bytes(bytes[10..14].try_into().unwrap()) as usize;
            bytes[14 + header_len + 4..].to_vec()
        };
        let c = qcircuit::generators::supremacy_n(12, 5, 1);
        let cfg = |shards| crate::FlatDdConfig {
            threads: 1,
            flat_shards: shards,
            conversion: crate::ConversionPolicy::AtGate(24),
            ..crate::FlatDdConfig::default()
        };
        let ctx = crate::RunContext::isolated();
        let mut sim = crate::FlatDdSimulator::try_new_with(12, cfg(1), ctx).unwrap();
        let held_path = tmp_file("flat-held-out");
        sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&held_path)));
        sim.run_prefix(&c, 30).unwrap();
        let metrics = sim.context().metrics();
        assert!(metrics.gauge("sim.active_qubits").get() < 12.0);
        assert_eq!(metrics.counter("sim.widenings").get(), 0);
        sim.save_checkpoint().unwrap();
        let full = sim.amplitudes();
        let held = payload_of(&held_path);
        assert_eq!(held.len(), 1 + 8 + (16 << 12) + 4);
        h.n = 12;
        for shards in [1usize, 2, 4] {
            let path = tmp_file(&format!("flat-full-{shards}"));
            let state = qarray::ShardedState::from_vec(full.clone(), shards);
            write_checkpoint(&path, &h, CheckpointPayload::Flat { amps: &state }).unwrap();
            assert!(payload_of(&path) == held, "full width, shards={shards}");
            if shards > 1 {
                let path = tmp_file(&format!("flat-held-out-{shards}"));
                sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
                sim.save_checkpoint().unwrap();
                let (mut resumed, _) =
                    crate::FlatDdSimulator::resume_from(&path, cfg(shards), &c).unwrap();
                resumed.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
                resumed.save_checkpoint().unwrap();
                assert!(payload_of(&path) == held, "resumed, shards={shards}");
            }
        }
    }

    #[test]
    fn dd_checkpoint_round_trips() {
        let path = tmp_file("dd");
        let payload = b"pretend-qddv1-bytes".to_vec();
        write_checkpoint(&path, &header(Phase::Dd), CheckpointPayload::Dd(&payload)).unwrap();
        let (h, state) = read_checkpoint(&path).unwrap();
        assert_eq!(h.phase, Phase::Dd);
        match state {
            CheckpointState::Dd(b) => assert_eq!(b, payload),
            _ => panic!("expected dd payload"),
        }
        // Header-only peek agrees and is cheap.
        assert_eq!(read_header(&path).unwrap(), h);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_and_bitflip_is_rejected_without_panic() {
        let path = tmp_file("corrupt");
        let amps: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new(1.0 / (i + 1) as f64, 0.0))
            .collect();
        write_checkpoint(
            &path,
            &header(Phase::Dmav),
            CheckpointPayload::Flat { amps: &amps },
        )
        .unwrap();
        let good = std::fs::read(&path).unwrap();

        let damaged = tmp_file("damaged");
        for len in 0..good.len() {
            std::fs::write(&damaged, &good[..len]).unwrap();
            assert!(
                matches!(
                    read_checkpoint(&damaged),
                    Err(FlatDdError::CorruptCheckpoint { .. })
                ),
                "truncation to {len} bytes must be CorruptCheckpoint"
            );
        }
        for i in 0..good.len() {
            let mut bytes = good.clone();
            bytes[i] ^= 0x10;
            std::fs::write(&damaged, &bytes).unwrap();
            assert!(
                matches!(
                    read_checkpoint(&damaged),
                    Err(FlatDdError::CorruptCheckpoint { .. })
                ),
                "bit flip at byte {i} must be CorruptCheckpoint"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&damaged).ok();
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let e = read_checkpoint(Path::new("/nonexistent/flatdd.ckpt")).unwrap_err();
        assert!(matches!(e, FlatDdError::Io(_)));
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        use qcircuit::generators;
        let a = generators::ghz(6);
        let b = generators::ghz(6);
        let c = generators::ghz(7);
        let d = generators::qft(6);
        assert_eq!(circuit_fingerprint(&a), circuit_fingerprint(&b));
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&c));
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&d));

        let base = crate::sim::FlatDdConfig::default();
        let mut other_threads = base;
        other_threads.threads = 1;
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&other_threads),
            "thread count must not affect the fingerprint"
        );
        let mut other_shards = base;
        other_shards.flat_shards = 8;
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&other_shards),
            "shard count must not affect the fingerprint (resume may re-shard)"
        );
        let mut other_policy = base;
        other_policy.conversion = crate::sim::ConversionPolicy::Never;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_policy));
        let mut other_floor = base;
        other_floor.governor.approx_fidelity_floor = Some(0.9);
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&other_floor),
            "the approx floor must not affect the fingerprint (a breached \
             run may resume with the floor newly armed)"
        );
    }

    /// The values written by every release that had a kernel policy (under
    /// its default), so their FDCP1 files and spooled checkpoints resume.
    #[test]
    fn config_fingerprints_keep_their_recorded_values() {
        use crate::sim::{ConversionPolicy, FlatDdConfig, FusionPolicy};
        let fused_at_12 = FlatDdConfig {
            conversion: ConversionPolicy::AtGate(12),
            fusion: FusionPolicy::DmavAware,
            ..FlatDdConfig::default()
        };
        for (cfg, want) in [
            (FlatDdConfig::default(), 0xd1b09eec55633a0c),
            (fused_at_12, 0xbf0db32205ec6521),
        ] {
            assert_eq!(config_fingerprint(&cfg), want, "{cfg:?}");
        }
    }

    /// A family, its parameters and a seed name one circuit everywhere,
    /// because `qcircuit::rng` is pinned: the recorded numbers' instances.
    #[test]
    fn seeded_families_generate_the_recorded_instances() {
        use qcircuit::generators as g;
        for (c, gates, want) in [
            (g::supremacy_n(12, 10, 1), 176, 0x530a30fd2956e114),
            (g::dnn(10, 3, 1), 121, 0x6aefed15977f7b24),
            (g::vqe(10, 3, 1), 97, 0xaaa5c8d64ff4ce76),
            (g::knn(6, 1), 38, 0xed93edb9d15a271b),
            (g::random_circuit(7, 40, 1), 40, 0xcfa28e11266708fe),
        ] {
            assert_eq!(c.num_gates(), gates, "{}", c.name());
            assert_eq!(circuit_fingerprint(&c), want, "{}", c.name());
        }
    }
}
