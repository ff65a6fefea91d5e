//! Crash recovery: rebuild a [`Store`] from a redo log (ISSUE 9).
//!
//! Replay is prefix-shaped by construction. [`wal::scan`] already stops
//! at the first damaged frame; on top of that, this module applies only
//! **sealed** epochs — an epoch counts if and only if its begin record,
//! every commit record, and a seal whose commit count matches all
//! survived intact. Everything after the last sealed epoch (an unsealed
//! tail, a torn record, a commit the seal does not cover) belongs to
//! transactions the group-commit daemon had not yet acknowledged, so
//! dropping it loses nothing a client was ever promised.
//!
//! Commits replay in LSN order through the deferred two-phase-commit
//! [`WriteBuffer`] — the same stage-then-apply discipline the engine
//! uses — and every apply's return value is checked: a commit record
//! whose writes were never staged would previously vanish into
//! `WriteBuffer::apply`'s silent no-op (the ISSUE 9 satellite bugfix).
//!
//! Replay is one serial loop: partitioning the sealed epochs over a
//! thread pool with a last-writer merge measured 0.87 × of it on the
//! bench host (DESIGN.md §10), so there is no pool.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use mdts_model::TxId;

use crate::twophase::WriteBuffer;
use crate::wal::{self, ScanReport, WalPayload, WalValue};
use crate::Store;

/// Accounting for one recovery pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// Sealed epochs replayed.
    pub sealed_epochs: u64,
    /// Commit records applied (duplicates excluded).
    pub replayed_commits: u64,
    /// Exact byte-level duplicate commit records skipped (replay is
    /// idempotent: a re-delivered record changes nothing).
    pub duplicate_commits: u64,
    /// Commit records discarded with an unsealed or damaged tail.
    pub dropped_commits: u64,
    /// Whether the log ended in an unsealed (never-acknowledged) epoch.
    pub unsealed_tail: bool,
    /// Whether replay stopped at a structurally malformed record run
    /// (seal/commit mismatch, stray record) before the end of the scan.
    pub malformed: bool,
    /// What the byte-level scan saw (torn tail included).
    pub scan: ScanReport,
}

/// The state a redo-log replay rebuilds.
#[derive(Clone, Debug)]
pub struct Recovered<V> {
    /// The store, as of the last sealed epoch.
    pub store: Store<V>,
    /// Transactions whose commits are durable (in the replayed prefix).
    pub committed: BTreeSet<TxId>,
    /// The last sealed (durable) epoch, if any epoch sealed at all.
    pub last_epoch: Option<u64>,
    /// Highest applied log sequence number.
    pub last_lsn: u64,
    /// Highest transaction id seen anywhere in the log — the restart
    /// floor for the engine's id allocator (covers unacknowledged tail
    /// transactions too, so no recovered-run id ever collides).
    pub max_tx: u32,
    /// What happened during replay.
    pub report: RecoveryReport,
}

/// Scans `path` and replays every sealed epoch, in log order, into a
/// fresh store.
pub fn recover<V: WalValue + Clone>(path: &Path) -> io::Result<Recovered<V>> {
    let (records, scan) = wal::scan::<V>(path)?;
    let mut out = Recovered {
        store: Store::new(),
        committed: BTreeSet::new(),
        last_epoch: None,
        last_lsn: 0,
        max_tx: 0,
        report: RecoveryReport { scan, ..RecoveryReport::default() },
    };

    // The open (begun, not yet sealed) epoch's buffered commits.
    #[allow(clippy::type_complexity)]
    let mut open: Option<(u64, Vec<(u64, TxId, Vec<(mdts_model::ItemId, V)>)>)> = None;
    let mut seen_lsns: BTreeSet<u64> = BTreeSet::new();
    for record in records {
        match record {
            WalPayload::EpochBegin { epoch } => {
                if let Some((_, pending)) = open.take() {
                    // A begin inside an open epoch means the previous
                    // epoch never sealed; its commits were never
                    // acknowledged.
                    out.report.dropped_commits += pending.len() as u64;
                    out.report.unsealed_tail = true;
                }
                if out.last_epoch.is_some_and(|last| epoch <= last) {
                    // Epochs are strictly monotone; a regression means
                    // the log is not a single writer's history. Stop.
                    out.report.malformed = true;
                    break;
                }
                open = Some((epoch, Vec::new()));
            }
            WalPayload::Commit { lsn, tx, writes } => {
                out.max_tx = out.max_tx.max(tx.0);
                let Some((_, pending)) = open.as_mut() else {
                    // A commit outside any epoch frame: structural damage.
                    out.report.malformed = true;
                    break;
                };
                if !seen_lsns.insert(lsn) {
                    // Re-delivered record: replay is idempotent.
                    out.report.duplicate_commits += 1;
                    continue;
                }
                pending.push((lsn, tx, writes));
            }
            WalPayload::EpochSeal { epoch, commits } => {
                let Some((open_epoch, mut pending)) = open.take() else {
                    out.report.malformed = true;
                    break;
                };
                if open_epoch != epoch || pending.len() as u64 != commits {
                    // The seal does not cover what the frame carries —
                    // nothing at or past this point can be trusted.
                    out.report.dropped_commits += pending.len() as u64;
                    out.report.malformed = true;
                    break;
                }
                pending.sort_unstable_by_key(|&(lsn, _, _)| lsn);
                for (lsn, tx, writes) in pending {
                    out.committed.insert(tx);
                    out.last_lsn = out.last_lsn.max(lsn);
                    out.report.replayed_commits += 1;
                    if !writes.is_empty() {
                        // Stage-then-apply through the two-phase write
                        // buffer; the apply must find the staged workspace
                        // (satellite bugfix: a silent no-op here would
                        // lose the whole commit).
                        let mut wb = WriteBuffer::new();
                        for (item, value) in writes {
                            wb.write(tx, item, value);
                        }
                        assert!(
                            wb.apply(tx, &mut out.store),
                            "replay of {tx:?} found no staged write buffer"
                        );
                    }
                }
                out.last_epoch = Some(epoch);
                out.report.sealed_epochs += 1;
            }
        }
    }
    if let Some((_, pending)) = open {
        out.report.dropped_commits += pending.len() as u64;
        out.report.unsealed_tail = true;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use mdts_model::ItemId;

    use super::*;
    use crate::wal::{encode_commit, encode_epoch_begin, encode_epoch_seal, CrashPoint, WalWriter};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mdts-recovery-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[allow(clippy::type_complexity)]
    fn epoch_frames(epoch: u64, commits: &[(u64, u32, &[(u32, i64)])]) -> (Vec<u8>, usize) {
        let mut buf = Vec::new();
        encode_epoch_begin(&mut buf, epoch);
        for &(lsn, tx, writes) in commits {
            let writes: Vec<(ItemId, i64)> = writes.iter().map(|&(i, v)| (ItemId(i), v)).collect();
            encode_commit(&mut buf, lsn, TxId(tx), &writes, &[]);
        }
        let seal = encode_epoch_seal(&mut buf, epoch, commits.len() as u64);
        (buf, seal)
    }

    #[test]
    fn empty_log_recovers_to_empty_store() {
        let path = tmp("empty.log");
        WalWriter::create(&path).unwrap();
        let r = recover::<i64>(&path).unwrap();
        assert!(r.store.is_empty());
        assert!(r.committed.is_empty());
        assert_eq!(r.last_epoch, None);
        assert!(!r.report.scan.torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sealed_epochs_replay_in_lsn_order() {
        let path = tmp("sealed.log");
        let mut w = WalWriter::create(&path).unwrap();
        let (f0, s0) = epoch_frames(0, &[(0, 1, &[(5, 10)]), (1, 2, &[(5, 20), (6, 1)])]);
        assert!(w.append_epoch(&f0, s0).unwrap());
        let (f1, s1) = epoch_frames(1, &[(2, 3, &[(5, 30)])]);
        assert!(w.append_epoch(&f1, s1).unwrap());
        let r = recover::<i64>(&path).unwrap();
        assert_eq!(r.store.get(ItemId(5)), Some(&30));
        assert_eq!(r.store.get(ItemId(6)), Some(&1));
        assert_eq!(r.committed.len(), 3);
        assert_eq!(r.last_epoch, Some(1));
        assert_eq!(r.last_lsn, 2);
        assert_eq!(r.max_tx, 3);
        assert_eq!(r.report.sealed_epochs, 2);
        assert_eq!(r.report.replayed_commits, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsealed_tail_is_dropped_whole() {
        let path = tmp("midepoch.log");
        let mut w = WalWriter::create(&path).unwrap();
        let (f0, s0) = epoch_frames(0, &[(0, 1, &[(5, 10)])]);
        assert!(w.append_epoch(&f0, s0).unwrap());
        w.set_crash_point(CrashPoint::MidEpoch);
        let (f1, s1) = epoch_frames(1, &[(1, 2, &[(5, 99), (6, 99)])]);
        assert!(!w.append_epoch(&f1, s1).unwrap());
        assert!(w.crashed());
        let r = recover::<i64>(&path).unwrap();
        assert_eq!(r.store.get(ItemId(5)), Some(&10), "unsealed write must not apply");
        assert_eq!(r.store.get(ItemId(6)), None);
        assert!(r.report.unsealed_tail);
        assert_eq!(r.report.dropped_commits, 1);
        assert_eq!(r.max_tx, 2, "tail tx ids still raise the restart floor");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_record_is_rejected_by_crc_framing() {
        let path = tmp("midrecord.log");
        let mut w = WalWriter::create(&path).unwrap();
        let (f0, s0) = epoch_frames(0, &[(0, 1, &[(5, 10)])]);
        assert!(w.append_epoch(&f0, s0).unwrap());
        w.set_crash_point(CrashPoint::MidRecord);
        let (f1, s1) = epoch_frames(1, &[(1, 2, &[(5, 99)])]);
        assert!(!w.append_epoch(&f1, s1).unwrap());
        let r = recover::<i64>(&path).unwrap();
        assert_eq!(r.store.get(ItemId(5)), Some(&10));
        assert!(r.report.scan.torn, "the three missing bytes must read as a torn record");
        assert!(r.report.unsealed_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn post_fsync_pre_ack_epoch_is_still_durable() {
        let path = tmp("preack.log");
        let mut w = WalWriter::create(&path).unwrap();
        w.set_crash_point(CrashPoint::PostFsyncPreAck);
        let (f0, s0) = epoch_frames(0, &[(0, 1, &[(5, 10)])]);
        // The writer reports "do not acknowledge" …
        assert!(!w.append_epoch(&f0, s0).unwrap());
        // … but the epoch is on disk and replays: recovering *more* than
        // was acknowledged is always safe.
        let r = recover::<i64>(&path).unwrap();
        assert_eq!(r.store.get(ItemId(5)), Some(&10));
        assert_eq!(r.report.sealed_epochs, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_commit_records_replay_idempotently() {
        let path = tmp("dup.log");
        let mut w = WalWriter::create(&path).unwrap();
        let mut buf = Vec::new();
        encode_epoch_begin(&mut buf, 0);
        let mut one = Vec::new();
        encode_commit(&mut one, 0, TxId(1), &[(ItemId(5), 10i64)], &[]);
        buf.extend_from_slice(&one);
        buf.extend_from_slice(&one); // exact byte-level re-delivery
        let seal = encode_epoch_seal(&mut buf, 0, 1);
        assert!(w.append_epoch(&buf, seal).unwrap());
        let r = recover::<i64>(&path).unwrap();
        assert_eq!(r.store.get(ItemId(5)), Some(&10));
        assert_eq!(r.report.replayed_commits, 1);
        assert_eq!(r.report.duplicate_commits, 1);
        assert!(!r.report.malformed);
        std::fs::remove_file(&path).ok();
    }
}

/// Property tests for the WAL framing / recovery contract (the ISSUE 9
/// durability invariants, driven over generated logs):
///
/// * **Truncation** — cutting the file anywhere recovers exactly the
///   sealed epochs wholly contained in the surviving prefix, never a
///   partial epoch, never a panic.
/// * **Bit flips** — flipping any single bit past the magic makes the
///   scan stop at the damaged frame, so the surviving records are a
///   strict prefix of the originals (CRC32 detects all 1-bit errors).
/// * **Duplicate re-delivery** — re-appending commit records changes
///   nothing: replay is LSN-idempotent and the seal counts unique
///   commits.
/// * **Empty logs** — any run of commit-free epochs (or a bare magic
///   header) recovers a clean empty store.
#[cfg(test)]
mod prop_tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use mdts_model::ItemId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::wal::{encode_commit, encode_epoch_begin, encode_epoch_seal, scan, MAGIC};

    static CASE: AtomicU64 = AtomicU64::new(0);

    /// A fresh per-case log path: property cases run back to back inside
    /// one test thread, but sibling property tests share the directory.
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdts-recovery-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", CASE.fetch_add(1, Ordering::Relaxed)))
    }

    /// A generated multi-epoch log: the raw bytes (magic included), the
    /// byte offset just past each epoch's seal, and each epoch's commits.
    struct Spec {
        bytes: Vec<u8>,
        epoch_ends: Vec<usize>,
        #[allow(clippy::type_complexity)]
        epochs: Vec<Vec<(u64, u32, Vec<(u32, i64)>)>>,
    }

    fn build(n_epochs: usize, commit_range: std::ops::Range<usize>, rng: &mut StdRng) -> Spec {
        let mut spec = Spec { bytes: MAGIC.to_vec(), epoch_ends: Vec::new(), epochs: Vec::new() };
        let (mut lsn, mut tx) = (0u64, 1u32);
        for epoch in 0..n_epochs as u64 {
            let mut frames = Vec::new();
            encode_epoch_begin(&mut frames, epoch);
            let mut commits = Vec::new();
            for _ in 0..rng.gen_range(commit_range.clone()) {
                let writes: Vec<(u32, i64)> = (0..rng.gen_range(1..4usize))
                    .map(|_| (rng.gen_range(0..16u32), rng.gen_range(-1000..1000i64)))
                    .collect();
                let framed: Vec<(ItemId, i64)> =
                    writes.iter().map(|&(i, v)| (ItemId(i), v)).collect();
                encode_commit(&mut frames, lsn, TxId(tx), &framed, &[]);
                commits.push((lsn, tx, writes));
                lsn += 1;
                tx += 1;
            }
            encode_epoch_seal(&mut frames, epoch, commits.len() as u64);
            spec.bytes.extend_from_slice(&frames);
            spec.epoch_ends.push(spec.bytes.len());
            spec.epochs.push(commits);
        }
        spec
    }

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (1usize..6, any::<u64>())
            .prop_map(|(n, seed)| build(n, 0..5, &mut StdRng::seed_from_u64(seed)))
    }

    /// The state a prefix of `sealed` whole epochs must rebuild.
    fn expected(spec: &Spec, sealed: usize) -> (BTreeMap<ItemId, i64>, BTreeSet<TxId>) {
        let mut store = BTreeMap::new();
        let mut committed = BTreeSet::new();
        for commits in &spec.epochs[..sealed] {
            for (_, tx, writes) in commits {
                committed.insert(TxId(*tx));
                for &(item, value) in writes {
                    store.insert(ItemId(item), value);
                }
            }
        }
        (store, committed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mid-record truncation (and every other cut point): recovery
        /// yields exactly the sealed epochs wholly inside the surviving
        /// prefix — never a partial epoch, never a structural error.
        #[test]
        fn truncation_recovers_exactly_the_contained_sealed_prefix(
            spec in arb_spec(),
            cut_at in any::<u64>(),
        ) {
            let span = spec.bytes.len() - MAGIC.len();
            let cut = MAGIC.len() + (cut_at as usize) % (span + 1);
            let path = tmp("truncate");
            std::fs::write(&path, &spec.bytes[..cut]).unwrap();
            let r = recover::<i64>(&path).unwrap();
            std::fs::remove_file(&path).ok();

            let sealed = spec.epoch_ends.iter().filter(|&&end| end <= cut).count();
            let (store, committed) = expected(&spec, sealed);
            prop_assert_eq!(r.report.sealed_epochs as usize, sealed);
            prop_assert!(!r.report.malformed);
            prop_assert_eq!(&r.committed, &committed);
            prop_assert_eq!(r.store.len(), store.len());
            for (item, value) in &store {
                prop_assert_eq!(r.store.get(*item), Some(value));
            }
            prop_assert_eq!(r.last_epoch, sealed.checked_sub(1).map(|e| e as u64));
            // A cut short of the full log either tears a frame or drops
            // an unsealed tail — unless it landed exactly on an epoch
            // boundary, where the prefix is simply a shorter valid log.
            if cut == spec.bytes.len() {
                prop_assert!(!r.report.scan.torn && !r.report.unsealed_tail);
            }
        }

        /// Any single flipped bit after the magic stops the scan at the
        /// damaged frame: the surviving records are a strict prefix of
        /// the clean log's, so recovery can only lose the tail, never
        /// apply a corrupted write.
        #[test]
        fn bit_flip_is_rejected_and_leaves_a_strict_record_prefix(
            seed in any::<u64>(),
            flip_at in any::<u64>(),
            flip_bit in 0u8..8,
        ) {
            // At least one commit per epoch so there is a payload to hit.
            let spec = build(3, 1..5, &mut StdRng::seed_from_u64(seed));
            let clean: Vec<WalPayload<i64>> = {
                let path = tmp("flip-clean");
                std::fs::write(&path, &spec.bytes).unwrap();
                let (records, report) = scan(&path).unwrap();
                std::fs::remove_file(&path).ok();
                prop_assert!(!report.torn);
                records
            };

            let mut bytes = spec.bytes.clone();
            let pos = MAGIC.len() + (flip_at as usize) % (bytes.len() - MAGIC.len());
            bytes[pos] ^= 1 << flip_bit;
            let path = tmp("flip");
            std::fs::write(&path, &bytes).unwrap();
            let (records, report) = scan::<i64>(&path).unwrap();
            let r = recover::<i64>(&path).unwrap();
            std::fs::remove_file(&path).ok();

            prop_assert!(report.torn, "a 1-bit flip at byte {} must tear the scan", pos);
            prop_assert!(records.len() < clean.len());
            prop_assert_eq!(&records[..], &clean[..records.len()]);
            // Recovery over the torn log is a subset of the clean replay.
            let (_, committed) = expected(&spec, spec.epochs.len());
            prop_assert!(r.committed.is_subset(&committed));
        }

        /// Re-delivered commit records (exact byte-level duplicates, the
        /// seal counting unique commits) replay idempotently: the store,
        /// committed set, and sealed-epoch count match the clean log's.
        #[test]
        fn duplicate_redelivery_replays_idempotently(
            spec in arb_spec(),
            dup_seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(dup_seed);
            let mut bytes = MAGIC.to_vec();
            let mut duplicates = 0u64;
            for (epoch, commits) in spec.epochs.iter().enumerate() {
                encode_epoch_begin(&mut bytes, epoch as u64);
                let mut frames: Vec<Vec<u8>> = Vec::new();
                for &(lsn, tx, ref writes) in commits {
                    let framed: Vec<(ItemId, i64)> =
                        writes.iter().map(|&(i, v)| (ItemId(i), v)).collect();
                    let mut one = Vec::new();
                    encode_commit(&mut one, lsn, TxId(tx), &framed, &[]);
                    bytes.extend_from_slice(&one);
                    frames.push(one);
                }
                // Re-deliver a random subset, after their originals.
                for one in &frames {
                    if rng.gen_bool(0.5) {
                        bytes.extend_from_slice(one);
                        duplicates += 1;
                    }
                }
                encode_epoch_seal(&mut bytes, epoch as u64, commits.len() as u64);
            }
            let path = tmp("dup");
            std::fs::write(&path, &bytes).unwrap();
            let r = recover::<i64>(&path).unwrap();
            std::fs::remove_file(&path).ok();

            let (store, committed) = expected(&spec, spec.epochs.len());
            prop_assert!(!r.report.malformed);
            prop_assert_eq!(r.report.duplicate_commits, duplicates);
            prop_assert_eq!(r.report.replayed_commits as usize, committed.len());
            prop_assert_eq!(&r.committed, &committed);
            prop_assert_eq!(r.store.len(), store.len());
            for (item, value) in &store {
                prop_assert_eq!(r.store.get(*item), Some(value));
            }
        }

        /// A log of commit-free epochs — the degenerate idle-heartbeat
        /// history — recovers a clean empty store, and every epoch still
        /// counts as sealed.
        #[test]
        fn empty_epochs_recover_to_an_empty_store(n_epochs in 0usize..8) {
            let mut bytes = MAGIC.to_vec();
            for epoch in 0..n_epochs as u64 {
                encode_epoch_begin(&mut bytes, epoch);
                encode_epoch_seal(&mut bytes, epoch, 0);
            }
            let path = tmp("empty");
            std::fs::write(&path, &bytes).unwrap();
            let r = recover::<i64>(&path).unwrap();
            std::fs::remove_file(&path).ok();

            prop_assert!(r.store.is_empty());
            prop_assert!(r.committed.is_empty());
            prop_assert_eq!(r.report.sealed_epochs as usize, n_epochs);
            prop_assert_eq!(r.last_epoch, n_epochs.checked_sub(1).map(|e| e as u64));
            prop_assert!(!r.report.scan.torn && !r.report.unsealed_tail && !r.report.malformed);
        }
    }
}
