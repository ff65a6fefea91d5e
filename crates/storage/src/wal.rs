//! The binary redo log behind the engine's group commit (ISSUE 9).
//!
//! # Format
//!
//! A log file is the 8-byte magic [`MAGIC`] followed by a sequence of
//! *records*, each framed as
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload: len bytes]
//! ```
//!
//! where `crc` is the IEEE CRC-32 of the payload. The payload's first
//! byte is a tag:
//!
//! * `1` — **epoch begin** `{epoch: u64}`: the group-commit daemon opened
//!   durability epoch `epoch`.
//! * `2` — **commit** `{lsn: u64, tx: u32, count: u32, count × (item: u32,
//!   value)}`: one committed transaction's applied write set (writes
//!   discarded by the Thomas rule are *not* logged — they were never
//!   applied). LSNs are assigned under the epoch buffer's lock in apply
//!   order, so replaying commits in LSN order reproduces the store.
//! * `3` — **epoch seal** `{epoch: u64, commits: u64}`: the epoch's frame
//!   is complete; `commits` is the number of distinct commit records it
//!   carries.
//!
//! An epoch is **durable** only when its seal record survives intact: the
//! daemon acknowledges waiting committers strictly after the fsync that
//! covers the seal, so any unsealed or torn tail belongs to transactions
//! that were never acknowledged and is safe to discard. [`scan`] enforces
//! exactly that: it stops at the first truncated or CRC-damaged record
//! and reports how many bytes it refused.
//!
//! Values are serialized through [`WalValue`] — fixed little-endian
//! encodings, implemented here for `i64` (the engine's bench/test value
//! type).

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use mdts_model::{ItemId, TxId};

/// File magic: "MDTSWAL1" — format version 1.
pub const MAGIC: [u8; 8] = *b"MDTSWAL1";

/// Payload tag of an epoch-begin record.
pub const TAG_EPOCH_BEGIN: u8 = 1;
/// Payload tag of a commit record.
pub const TAG_COMMIT: u8 = 2;
/// Payload tag of an epoch-seal record.
pub const TAG_EPOCH_SEAL: u8 = 3;

/// Payloads larger than this are treated as corruption by [`scan`] (no
/// legitimate record comes close; a damaged length header must not make
/// the scanner swallow the rest of the file as one giant record).
const MAX_PAYLOAD: usize = 1 << 28;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected) — no external dependency.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the checksum protecting every record payload).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Value serialization
// ---------------------------------------------------------------------

/// Fixed-size value serialization for WAL commit records.
pub trait WalValue: Sized {
    /// Appends this value's encoding to `out` (must not fail).
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `bytes`, advancing it past the
    /// consumed encoding. `None` means the bytes are malformed/truncated.
    fn decode(bytes: &mut &[u8]) -> Option<Self>;
}

impl WalValue for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let head: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        *bytes = &bytes[8..];
        Some(i64::from_le_bytes(head))
    }
}

// ---------------------------------------------------------------------
// Record framing (encode side)
// ---------------------------------------------------------------------

/// Reserves a frame header in `buf` and returns the payload start offset.
fn open_frame(buf: &mut Vec<u8>) -> usize {
    buf.extend_from_slice(&[0u8; 8]);
    buf.len()
}

/// Backfills the `[len][crc]` header for the payload at `payload_start..`.
fn close_frame(buf: &mut [u8], payload_start: usize) {
    let len = (buf.len() - payload_start) as u32;
    let crc = crc32(&buf[payload_start..]);
    buf[payload_start - 8..payload_start - 4].copy_from_slice(&len.to_le_bytes());
    buf[payload_start - 4..payload_start].copy_from_slice(&crc.to_le_bytes());
}

/// Appends an epoch-begin record to `buf`.
pub fn encode_epoch_begin(buf: &mut Vec<u8>, epoch: u64) {
    let start = open_frame(buf);
    buf.push(TAG_EPOCH_BEGIN);
    buf.extend_from_slice(&epoch.to_le_bytes());
    close_frame(buf, start);
}

/// Appends a commit record for `tx` to `buf`. Writes whose item appears
/// in `skip` (the Thomas-ignored set) are not logged; later writes of an
/// item shadow earlier ones on replay, matching the engine's
/// last-write-wins workspace. Returns the number of writes logged.
pub fn encode_commit<V: WalValue>(
    buf: &mut Vec<u8>,
    lsn: u64,
    tx: TxId,
    writes: &[(ItemId, V)],
    skip: &[ItemId],
) -> usize {
    let start = open_frame(buf);
    buf.push(TAG_COMMIT);
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.extend_from_slice(&tx.0.to_le_bytes());
    let count_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    let mut count = 0u32;
    for (item, value) in writes {
        if skip.contains(item) {
            continue;
        }
        buf.extend_from_slice(&item.0.to_le_bytes());
        value.encode(buf);
        count += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    close_frame(buf, start);
    count as usize
}

/// Appends an epoch-seal record to `buf` and returns the seal frame's
/// length in bytes (the suffix a mid-epoch crash never writes).
pub fn encode_epoch_seal(buf: &mut Vec<u8>, epoch: u64, commits: u64) -> usize {
    let before = buf.len();
    let start = open_frame(buf);
    buf.push(TAG_EPOCH_SEAL);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&commits.to_le_bytes());
    close_frame(buf, start);
    buf.len() - before
}

// ---------------------------------------------------------------------
// Decode side
// ---------------------------------------------------------------------

/// One decoded record payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalPayload<V> {
    /// Durability epoch `epoch` opened.
    EpochBegin {
        /// The epoch number.
        epoch: u64,
    },
    /// One committed transaction's applied writes.
    Commit {
        /// Log sequence number (apply order across the whole log).
        lsn: u64,
        /// The committed transaction.
        tx: TxId,
        /// Applied writes in workspace order.
        writes: Vec<(ItemId, V)>,
    },
    /// Durability epoch `epoch` sealed with `commits` commit records.
    EpochSeal {
        /// The epoch number.
        epoch: u64,
        /// Distinct commit records the epoch carries.
        commits: u64,
    },
}

fn decode_payload<V: WalValue>(mut payload: &[u8]) -> Option<WalPayload<V>> {
    let take_u32 = |b: &mut &[u8]| -> Option<u32> {
        let head: [u8; 4] = b.get(..4)?.try_into().ok()?;
        *b = &b[4..];
        Some(u32::from_le_bytes(head))
    };
    let take_u64 = |b: &mut &[u8]| -> Option<u64> {
        let head: [u8; 8] = b.get(..8)?.try_into().ok()?;
        *b = &b[8..];
        Some(u64::from_le_bytes(head))
    };
    let (&tag, rest) = payload.split_first()?;
    payload = rest;
    let decoded = match tag {
        TAG_EPOCH_BEGIN => WalPayload::EpochBegin { epoch: take_u64(&mut payload)? },
        TAG_COMMIT => {
            let lsn = take_u64(&mut payload)?;
            let tx = TxId(take_u32(&mut payload)?);
            let count = take_u32(&mut payload)?;
            let mut writes = Vec::with_capacity(count.min(1 << 16) as usize);
            for _ in 0..count {
                let item = ItemId(take_u32(&mut payload)?);
                let value = V::decode(&mut payload)?;
                writes.push((item, value));
            }
            WalPayload::Commit { lsn, tx, writes }
        }
        TAG_EPOCH_SEAL => {
            let epoch = take_u64(&mut payload)?;
            let commits = take_u64(&mut payload)?;
            WalPayload::EpochSeal { epoch, commits }
        }
        _ => return None,
    };
    // A payload with trailing garbage fails its frame contract.
    payload.is_empty().then_some(decoded)
}

/// What [`scan`] saw, torn tail included.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ScanReport {
    /// Records decoded cleanly before the scan stopped.
    pub records: usize,
    /// Bytes refused at the tail (truncated frame, CRC mismatch, or a
    /// malformed payload) — everything from the first damaged record on.
    pub torn_bytes: u64,
    /// Whether the scan stopped before the end of the file.
    pub torn: bool,
}

/// Scans a log file into records, stopping at the first damaged frame.
///
/// Everything before the first truncated/CRC-damaged/malformed record is
/// returned; everything from it on is counted as torn tail. A missing
/// file reads as an empty log (recovery from nothing is a fresh start).
pub fn scan<V: WalValue>(path: &Path) -> io::Result<(Vec<WalPayload<V>>, ScanReport)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() {
        return Ok((Vec::new(), ScanReport::default()));
    }
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not an mdts WAL (bad magic)", path.display()),
        ));
    }
    let mut records = Vec::new();
    let mut at = MAGIC.len();
    let mut report = ScanReport::default();
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            break;
        }
        let torn = 'frame: {
            if rest.len() < 8 {
                break 'frame true;
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
            if len > MAX_PAYLOAD || rest.len() - 8 < len {
                break 'frame true;
            }
            let payload = &rest[8..8 + len];
            if crc32(payload) != crc {
                break 'frame true;
            }
            let Some(decoded) = decode_payload::<V>(payload) else {
                break 'frame true;
            };
            records.push(decoded);
            at += 8 + len;
            false
        };
        if torn {
            report.torn = true;
            report.torn_bytes = (bytes.len() - at) as u64;
            break;
        }
    }
    report.records = records.len();
    Ok((records, report))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Crash-injection sites for the durability tests (ISSUE 9's injection
/// matrix). The armed writer simulates the corresponding kill the first
/// time an epoch is appended, then refuses all further work — exactly the
/// observable behavior of a process that died at that point.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// No injection (production behavior).
    #[default]
    None,
    /// Die mid-record: a prefix of the epoch frame that ends inside a
    /// record's bytes reaches the file — the torn-write case CRC framing
    /// exists for.
    MidRecord,
    /// Die mid-epoch: the epoch's commit records reach the file but the
    /// seal (and the fsync) never happens — a clean-boundary unsealed
    /// tail.
    MidEpoch,
    /// Die after the fsync but before acknowledging waiters: the epoch is
    /// fully durable, yet no committer in it ever learned so.
    PostFsyncPreAck,
}

/// Appends framed epochs to a log file, fsyncing each one.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    crash: CrashPoint,
    crashed: bool,
}

impl WalWriter {
    /// Creates (truncating) a log at `path` and writes the file magic.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(&MAGIC)?;
        file.sync_data()?;
        Ok(WalWriter { file, crash: CrashPoint::None, crashed: false })
    }

    /// Arms a crash-injection site (tests only; the default is none).
    pub fn set_crash_point(&mut self, crash: CrashPoint) {
        self.crash = crash;
    }

    /// Whether an armed crash point has fired (the writer is dead).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Appends one fully framed epoch (begin + commits + seal, with the
    /// seal occupying the trailing `seal_len` bytes) and fsyncs it.
    ///
    /// Returns `Ok(true)` when the epoch is durable and may be
    /// acknowledged; `Ok(false)` when an armed [`CrashPoint`] fired —
    /// the caller must treat the writer as dead and never acknowledge
    /// the epoch (for `PostFsyncPreAck` the bytes *are* durable; the
    /// acknowledgment is what the simulated kill loses).
    pub fn append_epoch(&mut self, frames: &[u8], seal_len: usize) -> io::Result<bool> {
        assert!(seal_len <= frames.len(), "seal frame is a suffix of the epoch");
        if self.crashed {
            return Ok(false);
        }
        let written = match self.crash {
            CrashPoint::None | CrashPoint::PostFsyncPreAck => frames,
            // Tear the tail three bytes short: guaranteed inside the seal
            // record (every frame is ≥ 8 header bytes + 1 payload byte).
            CrashPoint::MidRecord => &frames[..frames.len().saturating_sub(3)],
            CrashPoint::MidEpoch => &frames[..frames.len() - seal_len],
        };
        self.file.write_all(written)?;
        // The torn prefix is flushed too: a torn *durable* tail is the
        // adversarial case recovery must reject by CRC, not by luck.
        self.file.sync_data()?;
        if self.crash != CrashPoint::None {
            self.crashed = true;
            return Ok(false);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::type_complexity)]
    fn frame_epoch(epoch: u64, commits: &[(u64, u32, Vec<(u32, i64)>)]) -> (Vec<u8>, usize) {
        let mut buf = Vec::new();
        encode_epoch_begin(&mut buf, epoch);
        for (lsn, tx, writes) in commits {
            let writes: Vec<(ItemId, i64)> = writes.iter().map(|&(i, v)| (ItemId(i), v)).collect();
            encode_commit(&mut buf, *lsn, TxId(*tx), &writes, &[]);
        }
        let seal = encode_epoch_seal(&mut buf, epoch, commits.len() as u64);
        (buf, seal)
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_an_epoch() {
        let dir = std::env::temp_dir().join(format!("mdts-wal-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path).unwrap();
        let (frames, seal) =
            frame_epoch(0, &[(0, 1, vec![(7, 42)]), (1, 2, vec![(7, 43), (9, -1)])]);
        assert!(w.append_epoch(&frames, seal).unwrap());
        let (records, report) = scan::<i64>(&path).unwrap();
        assert!(!report.torn);
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], WalPayload::EpochBegin { epoch: 0 });
        assert_eq!(
            records[2],
            WalPayload::Commit {
                lsn: 1,
                tx: TxId(2),
                writes: vec![(ItemId(7), 43), (ItemId(9), -1)],
            }
        );
        assert_eq!(records[3], WalPayload::EpochSeal { epoch: 0, commits: 2 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thomas_ignored_writes_are_not_logged() {
        let mut buf = Vec::new();
        let writes = vec![(ItemId(1), 10i64), (ItemId(2), 20), (ItemId(3), 30)];
        let logged = encode_commit(&mut buf, 0, TxId(5), &writes, &[ItemId(2)]);
        assert_eq!(logged, 2);
        let payload = &buf[8..];
        match decode_payload::<i64>(payload).unwrap() {
            WalPayload::Commit { writes, .. } => {
                assert_eq!(writes, vec![(ItemId(1), 10), (ItemId(3), 30)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_file_scans_empty() {
        let path = std::env::temp_dir().join("mdts-wal-definitely-missing.log");
        let (records, report) = scan::<i64>(&path).unwrap();
        assert!(records.is_empty());
        assert!(!report.torn);
    }
}
