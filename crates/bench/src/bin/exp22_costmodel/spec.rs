//! The one table the benchmark is defined by: workloads, end-to-end
//! metrics with their regression bounds, per-layer metrics. `--list`,
//! `BENCHMARK.json` and `--diff` are all rendered from it.

use std::fmt::Write as _;

use crate::sut::Json;

/// Relative path of this directory from the repository root — the single
/// entry of `BENCHMARK.json`'s `paths`.
pub const BENCH_DIR: &str = "crates/bench/src/bin/exp22_costmodel";

/// Seconds one run measures for (frozen in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// Vector dimension of the system under test: MV-MT(3).
pub const K: usize = 3;

/// Retry budget per call.
pub const MAX_RESTARTS: usize = 256;

/// Opening balance per account.
pub const INITIAL_BALANCE: i64 = 100;

/// One workload: the shape of its inputs and why it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Closed-loop client threads.
    pub clients: usize,
    pub accounts: u32,
    /// Zipf skew of account choice (0 = uniform).
    pub zipf_theta: f64,
    /// Snapshot scans per 1,000 transactions (the rest are transfers).
    pub scans_per_mille: u32,
    /// Accounts read by an ordinary scan.
    pub scan_len: usize,
    /// One scan in this many reads every account (0 = never).
    pub full_scan_every: u32,
    /// `black_box` spin iterations between a transfer's reads and writes.
    pub spin: u32,
    /// Transactions per measured slice, summed over clients.
    pub slice_txns: usize,
    /// Transactions run before the first measured slice, so that lazily
    /// built state (version chains up to their pruning length, table
    /// rows) is in place and memory has stopped growing.
    pub warmup_txns: usize,
    /// Chunks the scheduler's row table holds while the slices are
    /// measured (0: not looked at). The table grows by a chunk as large as
    /// all before it each time the transaction ids used so far double —
    /// the thirteenth is 4 M slots, ≈ 436 MiB and a stall of ≈ 2 s — so
    /// the sizes put one such step inside the warm-up and end the run
    /// before the next. If ids are used more slowly than when the sizes
    /// were frozen, the warm-up goes on, up to half as long again, until
    /// the table holds this many; a run whose table then grows in a
    /// measured slice fails a check.
    pub warm_row_chunks: u64,
    /// Whether commits go through the write-ahead log.
    pub durable: bool,
    /// Whether `BENCHMARK.json` lists the workload, which holds it to the
    /// bounds. The durable lane is run, checked and reported like the
    /// others but not listed: its numbers follow the flush latency of
    /// whatever disk holds the checkout (80 → 154 µs per commit between
    /// two consecutive sets of ten runs).
    pub judged: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "transfer_uniform_1t",
        why: "1 client, 131072 accounts, uniform transfers after a warm-up that fills the version chains: \
              no contention, so the CPU path from admission to commit; tables exceed L2 and the order cache",
        clients: 1,
        accounts: 131_072,
        zipf_theta: 0.0,
        scans_per_mille: 0,
        scan_len: 0,
        full_scan_every: 0,
        spin: 0,
        slice_txns: 120_000,
        warmup_txns: 1_560_000,
        warm_row_chunks: 12,
        durable: false,
        judged: true,
    },
    Workload {
        name: "snapshot_scan_1t",
        why: "1 client, 256 accounts Zipf 0.9, 95% snapshot scans of 8 beside 5% transfers: chain walks \
              and snapshot reads do the work, data fits L1/L2; the lane where MV-MT(k) trails TO(1)",
        clients: 1,
        accounts: 256,
        zipf_theta: 0.9,
        scans_per_mille: 950,
        scan_len: 8,
        full_scan_every: 1024,
        spin: 0,
        slice_txns: 160_000,
        warmup_txns: 2_240_000,
        warm_row_chunks: 12,
        durable: false,
        judged: true,
    },
    Workload {
        name: "transfer_uniform_2t",
        why: "transfer_uniform_1t with 2 clients: same conflict rate, so any gap to the 1-client lane is \
              engine overhead under parallelism (shared counters, clock, wake sequence, shard locks)",
        clients: 2,
        accounts: 131_072,
        zipf_theta: 0.0,
        scans_per_mille: 0,
        scan_len: 0,
        full_scan_every: 0,
        spin: 0,
        slice_txns: 120_000,
        warmup_txns: 1_560_000,
        warm_row_chunks: 12,
        durable: false,
        judged: true,
    },
    Workload {
        name: "transfer_hot_2t",
        why: "2 clients on 16 accounts with a 2000-iteration spin between reads and writes: transactions \
              overlap, so blocked waits, aborts, restart backoff and wake-ups dominate",
        clients: 2,
        accounts: 16,
        zipf_theta: 0.0,
        scans_per_mille: 0,
        scan_len: 0,
        full_scan_every: 0,
        spin: 2_000,
        slice_txns: 110_000,
        warmup_txns: 1_650_000,
        warm_row_chunks: 12,
        durable: false,
        judged: true,
    },
    Workload {
        name: "durable_transfer_2t",
        why: "2 clients, 4096 accounts, every commit acknowledged only after its WAL epoch is fsynced: \
              WAL encode, epoch hand-off, daemon wake and group size do the work; log recovered cold after",
        clients: 2,
        accounts: 4_096,
        zipf_theta: 0.0,
        scans_per_mille: 0,
        scan_len: 0,
        full_scan_every: 0,
        spin: 0,
        slice_txns: 8_000,
        warmup_txns: 8_000,
        warm_row_chunks: 0,
        durable: true,
        judged: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before `--diff` (and the
/// driver) call it a regression; per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the embedded engine sees. Each timing's bound is twice
/// the widest spread between runs the README records for it, which on
/// every workload reaches the 25 % the contract allows at most.
pub const END_TO_END: [Metric; 5] = [
    e2e("commit_ns", "ns", 0.25),
    e2e("txn_p50_ns", "ns", 0.25),
    e2e("txn_p90_ns", "ns", 0.25),
    e2e("peak_rss_mib", "MiB", 0.05),
    e2e("setup_s", "s", 0.25),
];

/// Single-layer figures from the traced run (`--trace 1`): harness spans
/// around public calls, the program's public counters, and layer replay.
/// Times are ns per committed transaction unless the name says per call.
pub const PER_LAYER: [Metric; 68] = [
    lower("engine.admit_ns", "ns"),
    lower("engine.read_ns", "ns"),
    lower("engine.write_ns", "ns"),
    lower("engine.snapshot_read_ns", "ns"),
    lower("engine.commit_ns", "ns"),
    lower("engine.retry_ns", "ns"),
    lower("engine.body_ns", "ns"),
    higher("engine.span_sum_over_txn", "ratio"),
    lower("engine.trace_overhead_frac", "ratio"),
    lower("engine.attempts_per_commit", "ratio"),
    lower("engine.ns_per_attempt", "ns"),
    lower("engine.access_aborts_per_commit", "ratio"),
    lower("engine.validation_aborts_per_commit", "ratio"),
    lower("engine.restarts_per_commit", "ratio"),
    lower("engine.blocked_waits_per_commit", "ratio"),
    lower("engine.gave_up", "count"),
    lower("engine.txn_p99_ns", "ns"),
    lower("engine.txn_p999_ns", "ns"),
    lower("engine.phase_admission_ns", "ns"),
    lower("engine.phase_commit_ns", "ns"),
    lower("engine.phase_backoff_ns", "ns"),
    lower("engine.phase_block_wait_ns", "ns"),
    lower("engine.phase_chain_walk_ns", "ns"),
    lower("engine.phase_fsync_wait_ns", "ns"),
    lower("engine.phase_unreconciled", "count"),
    lower("admission.batches_per_txn", "ratio"),
    lower("admission.parked_frac", "ratio"),
    lower("admission.prewarm_pairs_per_txn", "ratio"),
    lower("core.begin_ns", "ns"),
    lower("core.read_ns", "ns"),
    lower("core.write_ns", "ns"),
    lower("core.commit_ns", "ns"),
    lower("core.abort_ns", "ns"),
    lower("core.txn_ns", "ns"),
    lower("core.snapshot_read_ns", "ns"),
    lower("core.engine_over_core", "ratio"),
    lower("core.live_rows", "count"),
    lower("core.row_chunks", "count"),
    lower("vector.compare_k3_ns", "ns"),
    lower("vector.simd_compare_k3_ns", "ns"),
    lower("vector.ordercache_get_hit_ns", "ns"),
    lower("vector.ordercache_insert_ns", "ns"),
    higher("vector.ordercache_hit_rate", "ratio"),
    lower("vector.ordercache_probes_per_commit", "ratio"),
    lower("vector.batched_compares_per_commit", "ratio"),
    lower("vector.batch_le2_frac", "ratio"),
    lower("vector.epoch_flushes", "count"),
    lower("storage.sharded_get_ns", "ns"),
    lower("storage.sharded_set_ns", "ns"),
    lower("storage.mv_install_ns", "ns"),
    lower("storage.mv_chain_read_ns", "ns"),
    lower("storage.mv_versions", "count"),
    lower("storage.mv_max_chain", "count"),
    lower("storage.mv_pruned_per_commit", "ratio"),
    lower("storage.wal_encode_ns", "ns"),
    lower("storage.wal_append_ns", "ns"),
    lower("storage.wal_fsyncs_per_commit", "ratio"),
    higher("storage.wal_commits_per_epoch", "ratio"),
    lower("storage.wal_bytes_per_epoch", "B"),
    lower("durability.wal_bytes_per_commit", "B"),
    lower("durability.recover_ns_per_commit", "ns"),
    lower("durability.ack_overhead_ns", "ns"),
    lower("durability.durable_over_memory", "ratio"),
    lower("baseline.to1_commit_ns", "ns"),
    lower("baseline.serialized_mt_commit_ns", "ns"),
    lower("baseline.mvto_commit_ns", "ns"),
    lower("baseline.mt_over_to1", "ratio"),
    lower("baseline.sharded_over_serialized", "ratio"),
];

/// The metric of that name.
///
/// # Panics
/// Panics when the table has none: reporting an undeclared metric is a
/// bug of the benchmark.
pub fn metric(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a metric of the table"))
}

/// The driver's command: build the workspace's `exp22_costmodel` bin
/// (cargo discovers this directory as one of `mdts-bench`) from source and
/// run it; the driver appends `--workload … --seed … --seconds … --trace …`.
pub fn command() -> Vec<String> {
    "cargo run --release --offline --quiet -p mdts-bench --bin exp22_costmodel --"
        .split(' ')
        .map(String::from)
        .collect()
}

/// `s` as a JSON string literal, by the repository's own JSON writer.
fn json_str(s: &str) -> String {
    Json::str(s).render()
}

/// `BENCHMARK.json`, byte for byte (a test holds the committed file to
/// this rendering).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let cmd: Vec<String> = command().iter().map(|c| json_str(c)).collect();
    writeln!(s, "  \"command\": [{}],", cmd.join(", ")).expect("write to String");
    writeln!(s, "  \"paths\": [{}],", json_str(BENCH_DIR)).expect("write to String");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("write to String");
    s.push_str("  \"workloads\": [\n");
    let judged: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.judged).collect();
    for (i, w) in judged.iter().enumerate() {
        let sep = if i + 1 < judged.len() { "," } else { "" };
        writeln!(s, "    {{\"name\": {}, \"why\": {}}}{sep}", json_str(w.name), json_str(w.why))
            .expect("write to String");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.expect("end-to-end metrics carry a bound")
        )
        .expect("write to String");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        )
        .expect("write to String");
    }
    s.push_str("  ]\n}\n");
    s
}

/// `--list`: every workload and metric with unit, direction and bound.
pub fn list() -> String {
    let mut s = String::new();
    writeln!(s, "command: {}", command().join(" ")).expect("write to String");
    writeln!(s, "  untraced: … --workload <name> --seed <n> --seconds {RUN_SECONDS} --trace 0")
        .expect("write to String");
    writeln!(s, "  traced:   … --workload <name> --seed <n> --seconds {RUN_SECONDS} --trace 1")
        .expect("write to String");
    s.push_str("\nworkloads:\n");
    for w in &WORKLOADS {
        writeln!(
            s,
            "  {:<22} clients={} accounts={} warmup_txns={} slice_txns={}{}\n  {:<22} {}",
            w.name,
            w.clients,
            w.accounts,
            w.warmup_txns,
            w.slice_txns,
            if w.judged { "" } else { " (device-bound: not in BENCHMARK.json)" },
            "",
            w.why
        )
        .expect("write to String");
    }
    s.push_str("\nend_to_end (--trace 0):\n");
    for m in &END_TO_END {
        writeln!(
            s,
            "  {:<40} {:<6} better={:<6} bound={}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        )
        .expect("write to String");
    }
    s.push_str("\nper_layer (--trace 1):\n");
    for m in &PER_LAYER {
        writeln!(s, "  {:<40} {:<6} better={}", m.name, m.unit, m.better.as_str())
            .expect("write to String");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's `BENCHMARK.json`: two levels above `crates/bench`.
    fn committed_benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        std::fs::read_to_string(path).expect("readable BENCHMARK.json")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("named entry").to_string())
                .collect(),
            _ => panic!("BENCHMARK.json has no array {key}"),
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_table_name_for_name() {
        let text = committed_benchmark_json();
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = list();
        for (key, table) in [
            (
                "workloads",
                WORKLOADS.iter().filter(|w| w.judged).map(|w| w.name).collect::<Vec<_>>(),
            ),
            ("end_to_end", END_TO_END.iter().map(|m| m.name).collect()),
            ("per_layer", PER_LAYER.iter().map(|m| m.name).collect()),
        ] {
            assert_eq!(names(&doc, key), table, "{key} differ from the table");
            for name in table {
                assert!(listed.contains(name), "--list lacks {name}");
            }
        }
        assert_eq!(text, benchmark_json(), "BENCHMARK.json is not the table's rendering");
    }

    #[test]
    fn the_table_stays_inside_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name.len() <= 64 && seen.insert(name), "{name} too long or used twice");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && benchmark_json().len() < 64 * 1024);
    }
}
