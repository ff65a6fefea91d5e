//! Exhaustive interleaving models for the engine's three hand-rolled
//! lock-free protocols: the order-cache seqlock, the row table's chunk
//! publication / slot recycling / reclamation (with the references a
//! writer gives up when it installs its version) / index release, and the
//! `WakeSeq` eventcount — of the snapshot read bound against a writer's
//! validation and install under one chain-shard lock, driven through the
//! real `ConcurrentMvStore` shard and `SharedMtScheduler` calls the
//! engine makes, and of a statistics stripe handed from one owner thread
//! to the next through `stripe::claim`/`release`. Build and run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test --test loom_models --release
//! ```
//!
//! (`scripts/race.sh` and `scripts/verify.sh --full` do exactly that.)
//! Under `--cfg loom` the modules under test compile against the loom
//! shim's instrumented primitives via their `sync` layers (the MV store's
//! shard lock included), and the table
//! constants shrink (`ordercache::SLOTS = 1`, `rowtable::BASE = 2`) so
//! every model collision is forced and state spaces stay exhaustive.
//!
//! The suite includes seven deliberate failures, kept as `#[should_panic]`
//! witnesses that the models catch the bugs they guard against: the
//! seqlock writer ordering before its fix (no Release fence between the
//! version claim and the data stores), a row lookup that trusts a
//! recycled slot without re-checking whose it is, an install-time
//! release run before the install, a stamp-backed holder released
//! twice, a writer that checks the read bound outside the shard lock, a
//! snapshot reader that does not raise the bound, and a stripe given back
//! with a `Relaxed` release.

#![cfg(loom)]

use loom::model::Builder;
use loom::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use loom::sync::atomic::{fence, AtomicU64};
use loom::sync::{Arc, Mutex};
use loom::thread;

use mdts_core::{Decision, HolderPair, MtOptions, RowTable, SharedMtScheduler};
use mdts_engine::wakeseq::WakeSeq;
use mdts_model::{ItemId, OpKind, TxId};
use mdts_storage::ConcurrentMvStore;
use mdts_trace::event::AbortReason;
use mdts_trace::{TraceBuffer, TraceEvent, TraceSink};
use mdts_vector::{stripe, CmpResult, OrderCache, Stamp, TsVec};

/// A model with bounded preemptions: forced switches and weak-memory
/// read-from choices stay exhaustive, voluntary context switches are
/// capped (CHESS-style). Two preemptions suffice for every two-location
/// protocol here; the shim's litmus suite demonstrates the witness
/// interleavings are found within this bound.
fn model2(f: impl Fn() + Send + Sync + 'static) {
    let mut b = Builder::new();
    // LOOM_MAX_PREEMPTIONS (read by `Builder::new`) takes precedence, so
    // CI or a suspicious reviewer can rerun the suite with a larger
    // bound — or unbounded is a one-line edit here.
    b.preemption_bound = b.preemption_bound.or(Some(2));
    b.check(f);
}

// ---------------------------------------------------------------------------
// Order-cache seqlock
// ---------------------------------------------------------------------------

/// Lookup vs. colliding insert: under `cfg(loom)` the cache has a single
/// slot, so the pre-inserted pair (1,2) and the racing pair (3,4) fight
/// over it. Whatever interleaving the explorer picks, a lookup must
/// return either a miss or the exact verdict some completed insert
/// stored for *that* pair — never a verdict assembled from mixed slot
/// halves. This is the assertion the missing writer fence used to
/// violate.
#[test]
fn loom_ordercache_lookup_vs_insert() {
    model2(|| {
        let cache = Arc::new(OrderCache::new());
        let epoch = cache.epoch();
        cache.insert(epoch, 1, 2, CmpResult::Less { at: 0 });

        let c2 = Arc::clone(&cache);
        let inserter = thread::spawn(move || {
            c2.insert(epoch, 3, 4, CmpResult::Greater { at: 1 });
        });

        match cache.get(1, 2) {
            None | Some(CmpResult::Less { at: 0 }) => {}
            other => panic!("torn or wrong cached verdict for (1,2): {other:?}"),
        }
        match cache.get(3, 4) {
            None | Some(CmpResult::Greater { at: 1 }) => {}
            other => panic!("torn or wrong cached verdict for (3,4): {other:?}"),
        }

        inserter.join().unwrap();
    });
}

/// Lookup vs. insert vs. epoch flush (the III-D-4 invalidation): a
/// lookup that starts after the flusher's bump must never serve the
/// pre-flush verdict, and a stale-stamped insert must never resurface.
#[test]
fn loom_ordercache_insert_vs_epoch_flush() {
    model2(|| {
        let cache = Arc::new(OrderCache::new());
        let epoch = cache.epoch();

        let c2 = Arc::clone(&cache);
        let inserter = thread::spawn(move || {
            // Stamped with the pre-flush epoch: must be dropped or
            // hidden if the flush lands first.
            c2.insert(epoch, 1, 2, CmpResult::Less { at: 0 });
        });
        let c3 = Arc::clone(&cache);
        let flusher = thread::spawn(move || {
            c3.invalidate_all();
        });

        flusher.join().unwrap();
        inserter.join().unwrap();
        // The flush has certainly happened: the stale insert must be
        // invisible no matter how the race resolved.
        assert_eq!(cache.get(1, 2), None, "pre-flush verdict served after invalidation");
    });
}

/// The committed witness for the PR 4 bug: a miniature of the
/// order-cache slot with the *pre-fix* orderings — writer claims the
/// version with a CAS and then stores key/payload with no Release fence;
/// reader re-checks the version with a Relaxed load. The model finds a
/// reader that accepts a (key, payload) pair whose halves come from
/// different inserts. Flip either side to the fixed protocol (writer
/// `fence(Release)` — as `ordercache::insert` now has — or keep the
/// writer broken and it is still caught) and the torn outcome vanishes:
/// `loom_ordercache_lookup_vs_insert` above proves the fixed cache
/// clean.
#[test]
#[should_panic(expected = "seqlock accepted a torn pair")]
fn seqlock_unfenced_writer_is_torn() {
    loom::model(|| {
        // Slot pre-filled by insert #1: key 1, payload 10.
        let version = Arc::new(AtomicU64::new(2));
        let key = Arc::new(AtomicU64::new(1));
        let payload = Arc::new(AtomicU64::new(10));

        let (v2, k2, p2) = (Arc::clone(&version), Arc::clone(&key), Arc::clone(&payload));
        let writer = thread::spawn(move || {
            // Insert #2 (key 2, payload 20) with the PRE-FIX protocol:
            // no Release fence after the claim.
            let v = v2.load(Relaxed);
            if v & 1 == 0 && v2.compare_exchange(v, v + 1, Acquire, Relaxed).is_ok() {
                k2.store(2, Relaxed);
                p2.store(20, Relaxed);
                v2.store(v + 2, Release);
            }
        });

        // Reader with the pre-fix re-check (Relaxed second load).
        let v1 = version.load(Acquire);
        let k = key.load(Relaxed);
        let p = payload.load(Relaxed);
        fence(Acquire);
        let consistent = v1 & 1 == 0 && version.load(Relaxed) == v1;
        if consistent {
            assert!(
                (k, p) == (1, 10) || (k, p) == (2, 20),
                "seqlock accepted a torn pair: ({k}, {p})"
            );
        }
        writer.join().unwrap();
    });
}

// ---------------------------------------------------------------------------
// Row table
// ---------------------------------------------------------------------------

/// Chunk publish vs. read: two threads begin ids in the same index chunk
/// at once, so both may find the index chunk and the arena chunk unbuilt.
/// One builds each under the grow lock and publishes it (a Release
/// store); the other re-checks under the lock and must find that pointer
/// rather than build a second copy. Both rows must be reachable after
/// the join, and a third party's lock-free Acquire lookup (`slot`) must
/// see a built chunk or none. Under `cfg(loom)` `BASE = 2`, so ids 2 and
/// 3 share the index's *second* chunk — built inside the model, not at
/// construction.
#[test]
fn loom_rowtable_chunk_publication() {
    model2(|| {
        let table = Arc::new(RowTable::new());

        let t2 = Arc::clone(&table);
        let racer = thread::spawn(move || {
            t2.begin(3, || TsVec::undefined(1), || unreachable!());
        });

        table.begin(2, || TsVec::undefined(1), || unreachable!());
        if let Some(slot) = table.slot(3) {
            // A slot reached through a published link is initialized.
            assert_eq!(slot.refs().load(SeqCst), 0);
        }
        racer.join().unwrap();
        assert_eq!((table.resident_chunks(), table.arena_chunks()), (1, 1));
        for id in [2, 3] {
            let slot = table.slot(id).expect("both ids are linked");
            assert!(slot.read().is_some(), "joined writer's row must be visible");
        }
    });
}

/// The row `id` 1 held, as a late reader that does not pin it sees it.
/// With `recheck` the reader confirms under the slot's lock that the
/// slot is still 1's (`SharedMtScheduler::with_ts` does); without it, it
/// trusts the lookup.
fn late_read(table: &RowTable, recheck: bool) -> Option<TsVec> {
    let slot = table.slot(1)?;
    let row = slot.read();
    if recheck && !table.owns(1, slot) {
        return None;
    }
    row.clone()
}

/// Slot recycling vs. a late reader: transaction 1 is reclaimed and its
/// slot goes straight to transaction 2's `begin`, while a reader that
/// does not pin 1 looks its row up. Whatever the interleaving, the reader
/// sees 1's row or none — never 2's.
#[test]
fn loom_rowtable_recycled_slot_vs_late_reader() {
    recycled_slot_vs_late_reader(true);
}

/// The must-catch variant: without the ownership re-check the model
/// finds the reader that looked the slot up before the reclaim and read
/// it after 2 moved in.
#[test]
#[should_panic(expected = "read another transaction's row")]
fn late_reader_without_the_ownership_check_reads_a_recycled_row() {
    recycled_slot_vs_late_reader(false);
}

fn recycled_slot_vs_late_reader(recheck: bool) {
    model2(move || {
        let table = Arc::new(RowTable::new());
        let mine = TsVec::from_elems(&[Some(1)]);
        table.begin(1, || mine.clone(), || unreachable!());

        let t2 = Arc::clone(&table);
        let recycler = thread::spawn(move || {
            assert!(t2.reclaim(1, |_| true));
            let slot = t2.begin(2, || TsVec::from_elems(&[Some(2)]), || unreachable!());
            assert!(t2.owns(2, slot));
        });

        if let Some(row) = late_read(&table, recheck) {
            assert!(row == mine, "read another transaction's row: {row:?}");
        }
        recycler.join().unwrap();
        assert_eq!(table.arena_len(), 1, "the reclaimed slot was reused");
    });
}

/// The reclamation Dekker (III-D-6b, `shared.rs::finish`/`dec_ref`): the
/// finisher stores `finished` then loads `refs`; the last dereferencer
/// decrements `refs` then loads `finished` — all SeqCst. At least one of
/// the two must observe the other and reclaim the row; a missed reclaim
/// is a permanent leak. `RowTable::reclaim`'s re-check under the slot's
/// write lock keeps it exactly-once.
#[test]
fn loom_rowtable_reclaim_dekker() {
    model2(|| {
        let table = Arc::new(RowTable::new());
        table.begin(1, || TsVec::undefined(1), || unreachable!()).refs().store(1, SeqCst);

        // Mirrors `SharedMtScheduler::try_reclaim`.
        let try_reclaim = |table: &RowTable| {
            table.reclaim(1, |slot| slot.refs().load(SeqCst) == 0 && slot.finished().load(SeqCst))
        };

        let t2 = Arc::clone(&table);
        let finisher = thread::spawn(move || {
            // Mirrors `finish`: publish the flag, then check refs.
            let slot = t2.slot(1).expect("1 is live until it finishes");
            slot.finished().store(true, SeqCst);
            slot.refs().load(SeqCst) == 0 && try_reclaim(&t2)
        });
        let t3 = Arc::clone(&table);
        let dereferencer = thread::spawn(move || {
            // Mirrors `dec_ref`: drop the reference, then check the flag.
            let slot = t3.slot(1).expect("the reference pins 1");
            let prev = slot.refs().fetch_sub(1, SeqCst);
            assert_eq!(prev, 1);
            slot.finished().load(SeqCst) && try_reclaim(&t3)
        });

        let reclaims = [finisher.join().unwrap(), dereferencer.join().unwrap()];
        assert_eq!(reclaims.iter().filter(|&&r| r).count(), 1, "reclaimed {reclaims:?}");
        assert!(table.slot(1).is_none(), "both parties missed the reclaim: row leaked");
    });
}

/// How the install-time release is run in [`install_release`]: as the
/// engine runs it, or one of the two bugs the model must catch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum InstallRelease {
    /// Install, then release the entries naming the writer, in one
    /// critical section of the item (`commit_chains`).
    AtInstall,
    /// The release runs before the version is installed, in a critical
    /// section of its own.
    BeforeInstall,
    /// A displacement gives up the reference of a stamp-backed entry,
    /// which has none left: the entry is released twice.
    Twice,
}

/// One item's holder entries as the model keeps them: `RT` and `WT` by id,
/// and whether the writer's version is on the chain (which makes an
/// entry naming it stamp-backed).
struct Item {
    rt: usize,
    wt: usize,
    installed: bool,
}

/// Mirrors `SharedMtScheduler::dec_ref`: whether this call reclaimed the
/// row, or the fault when there was no reference to give up. (A model
/// thread must not panic while it holds a model lock, so faults are
/// returned and asserted once every thread is joined.)
fn dec_ref(table: &RowTable) -> Result<bool, &'static str> {
    let Some(slot) = table.slot(1) else {
        return Err("a reference outlived the row");
    };
    let prev = slot.refs().fetch_sub(1, SeqCst);
    if prev == 0 {
        return Err("refcount underflow");
    }
    Ok(prev == 1 && slot.finished().load(SeqCst) && try_reclaim(table))
}

/// Mirrors `SharedMtScheduler::try_reclaim`.
fn try_reclaim(table: &RowTable) -> bool {
    table.reclaim(1, |slot| slot.refs().load(SeqCst) == 0 && slot.finished().load(SeqCst))
}

/// Releasing a writer's references at install (III-D-6b with stamp-backed
/// holders, `version_installed`), against the writer's own `finish` and a
/// concurrent displacement of the same item's `RT`. Writer 1 read `x` and
/// `y` and wrote `x`: `RT(x)`, `WT(x)` and `RT(y)` name it, three
/// references. The writer installs its version of `x` and releases the
/// entries of `x` naming it, then finishes. One thread displaces `RT(x)`
/// under `x`'s lock — giving up a reference only while the entry is
/// row-backed — and another displaces `RT(y)`, which stays row-backed.
/// Whatever the interleaving, every reference is given up once and the
/// row is reclaimed exactly once.
#[test]
fn loom_rowtable_install_release() {
    install_release(InstallRelease::AtInstall);
}

/// The must-catch variant: a release outside the install's critical
/// section, before it, lets the displacement of `RT(x)` see a row-backed
/// entry whose reference is gone already.
#[test]
#[should_panic(expected = "reclaim broken")]
fn a_release_before_the_install_gives_a_reference_up_twice() {
    install_release(InstallRelease::BeforeInstall);
}

/// The must-catch variant: a displacement that gives up a stamp-backed
/// entry's reference.
#[test]
#[should_panic(expected = "reclaim broken")]
fn a_stamp_backed_holder_released_twice_is_caught() {
    install_release(InstallRelease::Twice);
}

fn install_release(release: InstallRelease) {
    model2(move || {
        let table = Arc::new(RowTable::new());
        table.begin(1, || TsVec::undefined(1), || unreachable!()).refs().store(3, SeqCst);
        let x = Arc::new(Mutex::new(Item { rt: 1, wt: 1, installed: false }));
        let y = Arc::new(Mutex::new(1usize));

        let (t2, x2) = (Arc::clone(&table), Arc::clone(&x));
        let displace_x = thread::spawn(move || {
            let mut x = x2.lock().unwrap();
            let prev = std::mem::replace(&mut x.rt, 2);
            let row_backed = !x.installed || release == InstallRelease::Twice;
            if prev == 1 && row_backed {
                dec_ref(&t2)
            } else {
                Ok(false)
            }
        });
        let (t3, y3) = (Arc::clone(&table), Arc::clone(&y));
        let displace_y = thread::spawn(move || {
            let prev = std::mem::replace(&mut *y3.lock().unwrap(), 3);
            if prev == 1 {
                dec_ref(&t3)
            } else {
                Ok(false)
            }
        });

        // The writer: its commit's critical section on `x`, then `finish`.
        let release_x = |x: &mut Item| -> Result<bool, &'static str> {
            let mut reclaimed = false;
            for holder in [x.rt, x.wt] {
                if holder == 1 {
                    reclaimed |= dec_ref(&table)?;
                }
            }
            Ok(reclaimed)
        };
        let released = if release == InstallRelease::BeforeInstall {
            let released = release_x(&mut x.lock().unwrap());
            x.lock().unwrap().installed = true;
            released
        } else {
            let mut x = x.lock().unwrap();
            x.installed = true;
            release_x(&mut x)
        };
        let writer = released.and_then(|reclaimed| {
            let slot = table.slot(1).ok_or("the row went before its finish")?;
            slot.finished().store(true, SeqCst);
            Ok(reclaimed || (slot.refs().load(SeqCst) == 0 && try_reclaim(&table)))
        });

        let parties = [writer, displace_x.join().unwrap(), displace_y.join().unwrap()];
        let reclaims = parties
            .iter()
            .map(|p| p.unwrap_or_else(|fault| panic!("reclaim broken: {fault} ({release:?})")))
            .filter(|&r| r)
            .count();
        assert!(reclaims == 1, "reclaim broken: reclaimed {reclaims} times ({release:?})");
        assert!(table.slot(1).is_none(), "reclaim broken: the row leaked");
    });
}

/// Release vs. reuse: ids 2 and 3 (index chunk 1, the first block the
/// sweep may pass under `cfg(loom)`'s `BASE = 2`) are reclaimed; then one
/// thread begins the fresh id 4, whose sweep passes their block, publishes
/// the cursor and stores `0` into both entries, while another begins 2
/// again. Whether the reuse reads 2's entry as `DEAD` or as released, it
/// must run `on_reuse` and keep its link, and no link may name a slot
/// whose row is not its id's.
#[test]
fn loom_rowtable_release_vs_reuse() {
    model2(|| {
        let table = Arc::new(RowTable::new());
        let row = |id: i64| move || TsVec::from_elems(&[Some(id)]);
        for id in [2, 3] {
            table.begin(id, row(id as i64), || unreachable!("fresh id"));
            assert!(table.reclaim(id, |_| true));
        }

        let t2 = Arc::clone(&table);
        let sweeper = thread::spawn(move || {
            t2.begin(4, row(4), || unreachable!("fresh id"));
        });

        let reused = std::cell::Cell::new(false);
        let slot = table.begin(2, row(22), || reused.set(true));
        assert!(reused.get(), "the reuse of a reclaimed id went unnoticed");
        assert!(table.owns(2, slot), "the reuse lost its link");
        sweeper.join().unwrap();

        // The sweep passes the block unless the reuse relinked 2 first.
        assert!(matches!(table.released_ids(), 0 | 2), "{}", table.released_ids());
        for (id, value) in [(2, 22), (4, 4)] {
            let slot = table.slot(id).expect("a begun id keeps its link");
            assert_eq!(slot.read().as_ref().and_then(|v| v.get(0)), Some(value));
        }
        assert!(table.slot(3).is_none(), "a reclaimed id regained a link");
    });
}

// ---------------------------------------------------------------------------
// Snapshot read bound vs. validation and install
// ---------------------------------------------------------------------------

/// How the parties of [`bound_vs_install`] keep the protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BoundRace {
    /// As the engine does: the reader raises the bound and reads under the
    /// shard lock, the writer validates and installs under it.
    Locked,
    /// The writer validates, releases the lock, and installs later.
    CheckOutsideTheLock,
    /// The reader raises a bound of its own instead of the shard's.
    ReaderRaisesNothing,
}

/// The engine's snapshot read: the shard's bound raised to `bound` and the
/// newest version below it served, under the shard lock, journaled as the
/// engine journals it.
fn bounded_read(
    store: &ConcurrentMvStore<Option<i64>, HolderPair>,
    sched: &SharedMtScheduler,
    trace: &TraceSink,
    reader: TxId,
    bound: i64,
    item: ItemId,
    raise: bool,
) {
    let mut shard = store.lock_shard(store.shard_index(item));
    let (read_bound, chain) = shard.read_bound_and_chain(item);
    let mut own = i64::MIN;
    let read_bound = if raise { read_bound } else { &mut own };
    let seen = sched.snapshot_visible(bound, read_bound, chain.len(), |i| &chain[i].stamp);
    let writer = seen.map_or(TxId::VIRTUAL, |i| chain[i].writer);
    trace.emit(|| TraceEvent::VersionRead { tx: reader, item, writer });
}

/// The engine's commit of a one-item write set: validation against the
/// holders and the shard's bound, then the stamp and the install — under
/// one hold of the shard lock, or (`split`) under two. Returns whether
/// the write committed; a refusal is journaled as the engine journals it.
fn validate_and_install(
    store: &ConcurrentMvStore<Option<i64>, HolderPair>,
    sched: &SharedMtScheduler,
    trace: &TraceSink,
    writer: TxId,
    item: ItemId,
    split: bool,
) -> bool {
    let idx = store.shard_index(item);
    let mut shard = store.lock_shard(idx);
    let bound = shard.read_bound();
    let (holders, chain) = shard.holders_and_chain(item);
    let stamps = |w| chain.iter().rev().find(|v| v.writer == w).map(|v| &v.stamp);
    if let Decision::Reject(reject) =
        sched.access_held(writer, item, OpKind::Write, holders, bound, stamps)
    {
        drop(shard);
        let reason = if reject.by_read_bound() {
            AbortReason::ReadBound
        } else {
            AbortReason::ValidationRejected
        };
        trace.emit(|| TraceEvent::EngineAbort { tx: writer, reason });
        sched.abort(writer);
        return false;
    }
    if split {
        drop(shard);
        shard = store.lock_shard(idx);
    }
    let stamp = Stamp::from(sched.stamp_commit(writer));
    let rt = shard.holders(item).rt();
    let keep = (!rt.is_virtual()).then_some(rt);
    let installed = |_seq| trace.emit(|| TraceEvent::VersionInstall { writer, item });
    shard.install(item, writer, stamp, Some(1), keep, drop, installed);
    sched.version_installed(writer, shard.holders(item));
    drop(shard);
    sched.commit_unjournaled(writer);
    trace.emit(|| TraceEvent::Commit { tx: writer });
    true
}

/// The real MV chain shard and scheduler, k = 1, one shard for items
/// `x`, `y`, `z`. Writer `W` reads `y`, defining its column 0; `T_z`
/// commits a write of `z` and publishes that column 0 as the maximum;
/// then snapshot reader `R` takes its position above `W`. Now `R` reads
/// `x` while `W` validates and installs its write of `x`. Kept as the
/// engine keeps it, every interleaving journals a history the auditor
/// certifies: `W` installs before the read, and `R` reads its version, or
/// `R` raises the bound first and `W` is refused. Each must-catch variant
/// has an interleaving whose journal the auditor refuses.
fn bound_vs_install(race: BoundRace) {
    let (x, y, z) = (ItemId(0), ItemId(1), ItemId(2));
    let (w, t_z, r) = (TxId(1), TxId(2), TxId(3));
    model2(move || {
        let buffer = TraceBuffer::journal();
        let trace = TraceSink::to(&buffer);
        let mut sched = SharedMtScheduler::new(MtOptions::new(1));
        sched.attach_trace(trace.clone());
        let store = Arc::new(ConcurrentMvStore::<Option<i64>, HolderPair>::with_shards(1));
        for item in [x, y, z] {
            store.seed(item, Some(0), 1);
        }
        sched.begin(w);
        {
            let mut shard = store.lock_shard(store.shard_index(y));
            let bound = shard.read_bound();
            let (holders, _) = shard.holders_and_chain(y);
            let read = sched.access_held(w, y, OpKind::Read, holders, bound, |_| None);
            assert!(matches!(read, Decision::Accept { .. }));
        }
        sched.begin(t_z);
        assert!(validate_and_install(&store, &sched, &trace, t_z, z, false));
        let _snapshot = store.begin_snapshot();
        let position = sched.begin_snapshot_reader(r);

        let sched = Arc::new(sched);
        let (s2, sc2, tr2) = (Arc::clone(&store), Arc::clone(&sched), trace.clone());
        let raise = race != BoundRace::ReaderRaisesNothing;
        let reader = thread::spawn(move || bounded_read(&s2, &sc2, &tr2, r, position, x, raise));
        let split = race == BoundRace::CheckOutsideTheLock;
        validate_and_install(&store, &sched, &trace, w, x, split);
        reader.join().unwrap();

        let report = mdts_trace::audit(&buffer.snapshot(), 1);
        assert!(
            report.is_clean(),
            "the auditor refused the history ({race:?}): {}",
            report.summary()
        );
        assert_eq!(report.version_reads, 1);
    });
}

#[test]
fn loom_read_bound_vs_install() {
    bound_vs_install(BoundRace::Locked);
}

/// The must-catch variant: a writer that validates against the bound
/// outside the lock it installs under installs below a position read in
/// between.
#[test]
#[should_panic(expected = "the auditor refused the history")]
fn a_bound_checked_outside_the_lock_lets_a_writer_under_a_reader() {
    bound_vs_install(BoundRace::CheckOutsideTheLock);
}

/// The must-catch variant: a reader that does not raise the bound lets
/// the writer install below its position after the read.
#[test]
#[should_panic(expected = "the auditor refused the history")]
fn a_reader_that_raises_no_bound_is_caught() {
    bound_vs_install(BoundRace::ReaderRaisesNothing);
}

// ---------------------------------------------------------------------------
// Stripe ownership handoff
// ---------------------------------------------------------------------------

/// A release that publishes nothing: the must-catch variant of
/// `stripe::release`.
fn release_relaxed(owned: &AtomicU64, s: usize) {
    owned.fetch_sub(1 << s, Relaxed);
}

/// Two threads each bump a statistic once, as `Mine::add` does: a plain
/// load and store on a stripe claimed from the ownership bitmask (given
/// back afterwards with `release`), or `fetch_add` on the shared stripe
/// if the claim finds none free. Only stripe 0 is free, so whichever
/// thread claims second either finds it held and takes the shared stripe,
/// or claims it after the first thread gave it back and must see the
/// first thread's count. The model drives `stripe::claim` on an explicit
/// mask (the shim has no thread-locals for `stripe()`), and its cells are
/// the shim's atomics, so a load that misses the previous owner's store
/// shows as a lost count.
fn stripe_handoff(release: fn(&AtomicU64, usize)) {
    model2(move || {
        let all_but_0 = ((1u64 << stripe::SHARED) - 1) & !1;
        let owned = Arc::new(AtomicU64::new(all_but_0));
        let owned_cell = Arc::new(AtomicU64::new(0));
        let shared_cell = Arc::new(AtomicU64::new(0));
        let bump = {
            let (owned, owned_cell, shared_cell) =
                (Arc::clone(&owned), Arc::clone(&owned_cell), Arc::clone(&shared_cell));
            move || match stripe::claim(&owned) {
                Some(s) => {
                    assert_eq!(s, 0, "the one free stripe");
                    owned_cell.store(owned_cell.load(Relaxed) + 1, Relaxed);
                    release(&owned, s);
                }
                None => {
                    shared_cell.fetch_add(1, Relaxed);
                }
            }
        };
        let other = thread::spawn(bump.clone());
        bump();
        other.join().unwrap();
        assert_eq!(
            owned_cell.load(Relaxed) + shared_cell.load(Relaxed),
            2,
            "a count was lost in the stripe handoff"
        );
        assert_eq!(owned.load(Relaxed), all_but_0, "both claims were given back");
    });
}

#[test]
fn loom_stripe_handoff_keeps_every_count() {
    stripe_handoff(stripe::release);
}

/// The must-catch variant: a `Relaxed` give-back does not order the
/// owner's store before the next owner's load, which may read the stale
/// count and overwrite the first.
#[test]
#[should_panic(expected = "a count was lost in the stripe handoff")]
fn a_relaxed_release_loses_a_count() {
    stripe_handoff(release_relaxed);
}

// ---------------------------------------------------------------------------
// WakeSeq eventcount
// ---------------------------------------------------------------------------

/// The lost-wakeup window between `WakeSeq::current` and the park, with
/// the ISSUE-specified 2 waiters × 1 waker: each waiter samples the
/// sequence, checks the condition, and parks only if it saw nothing.
/// The waker publishes the condition *before* bumping. If the eventcount
/// could lose the wakeup landing in that window, a waiter would park
/// forever — which the model reports as a deadlock. Every interleaving
/// must instead terminate with both waiters seeing the flag.
#[test]
fn loom_wakeseq_no_lost_wakeup() {
    model2(|| {
        let wake = Arc::new(WakeSeq::default());
        let flag = Arc::new(AtomicU64::new(0));

        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (w, f) = (Arc::clone(&wake), Arc::clone(&flag));
                thread::spawn(move || loop {
                    // Sample BEFORE the check: the bump-after-publish on
                    // the waker side then guarantees that a flag store
                    // missed here moves `seq` past `seen`.
                    let seen = w.current();
                    if f.load(SeqCst) != 0 {
                        return;
                    }
                    w.wait_past(seen);
                })
            })
            .collect();

        flag.store(1, SeqCst);
        wake.bump();

        for h in waiters {
            h.join().unwrap();
        }
    });
}
