//! End-to-end pipeline over the facade crate: parse the paper's examples,
//! classify them, schedule them under every protocol family, and check
//! the paper's stated outcomes.

use mdts::core::{recognize, to_k, to_k_star, MtOptions, MtScheduler};
use mdts::dist::{DmtConfig, DmtScheduler};
use mdts::graph::ClassFlags;
use mdts::model::{Log, TxId};
use mdts::nested::{GroupId, NestedScheduler, Partition};

const EXAMPLE1: &str = "W1[x] W1[y] R3[x] R2[y] R2[y'] W3[y]";
const EXAMPLE2: &str = "R1[x] R2[y] R3[z] W1[y] W1[z]";
const STARVATION: &str = "W1[x] W2[x] R3[y] W3[x]";

#[test]
fn example1_through_the_whole_stack() {
    let log = Log::parse(EXAMPLE1).unwrap();

    // Classes: DSR but not TO(1).
    let flags = ClassFlags::compute(&log, 8);
    assert!(flags.dsr && flags.ssr && !flags.to1);
    assert_eq!(flags.sr, Some(true));

    // Protocols: MT(1) rejects, MT(2) and MT(2+) accept.
    assert!(!to_k(&log, 1));
    assert!(to_k(&log, 2));
    assert!(to_k_star(&log, 2));

    // DMT(2) at four sites also schedules it (the same dependencies are
    // encodable whatever the counter tags).
    let mut dmt = DmtScheduler::new(DmtConfig::new(2, 4));
    assert!(recognize(&mut dmt, &log).accepted);

    // Nested with each transaction its own group behaves like MT over
    // groups and accepts too.
    let p = Partition::from_pairs(log.transactions().into_iter().map(|t| (t, GroupId(t.0))));
    let mut nested = NestedScheduler::new(2, 2, p);
    assert!(recognize(&mut nested, &log).accepted);
}

#[test]
fn example2_table1_values_via_facade() {
    let log = Log::parse(EXAMPLE2).unwrap();
    let mut s = MtScheduler::new(MtOptions::new(2));
    assert!(recognize(&mut s, &log).accepted);
    let ts = |i: u32| s.table().ts_expect(TxId(i)).to_string();
    assert_eq!((ts(1), ts(2), ts(3)), ("<1,2>".into(), "<1,1>".into(), "<1,0>".into()));
}

#[test]
fn starvation_log_rejected_then_recovered() {
    let log = Log::parse(STARVATION).unwrap();
    let mut s = MtScheduler::new(MtOptions { starvation_flush: true, ..MtOptions::new(2) });
    let r = recognize(&mut s, &log);
    assert_eq!(r.rejected_at, Some(3));
    s.abort(TxId(3));
    s.begin_restarted(TxId(3), TxId(3));
    assert!(s.read(TxId(3), mdts::model::ItemId(1)).is_accept());
    assert!(s.write(TxId(3), mdts::model::ItemId(0)).is_accept());
}

#[test]
fn notation_round_trips_via_facade() {
    for src in [EXAMPLE1, EXAMPLE2, STARVATION] {
        let log = Log::parse(src).unwrap();
        assert_eq!(Log::parse(&log.to_string()).unwrap().to_string(), log.to_string());
        log.validate().unwrap();
    }
}
