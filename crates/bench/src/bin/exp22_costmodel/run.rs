//! One workload, one process: open, warm-up, measured slices, the
//! output checks — and, traced, the per-layer passes. Closed loop:
//! each client issues its next transaction when the previous one
//! returned. No sleeps, no timers; the only waiting is the program's own.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::gen::{self, Accounts};
use crate::spans::{clock_read_ns, Kind, Latency, Probe, Spans, KINDS};
use crate::spec::{self, Workload, INITIAL_BALANCE, RUN_SECONDS};
use crate::stats::{percentile_sorted, quartiles, Quartiles};
use crate::sut::{self, Baseline, Counters, Db, Layers, Levels};

/// Measured slices of an untraced run.
pub const SLICES: usize = 10;
/// Rounds of a traced run; each is one untraced, one span-traced and one
/// phase-timed slice, interleaved so drift of the long-lived database
/// lands on all three alike.
pub const TRACED_ROUNDS: usize = 3;
/// Stream numbers of the warm-up chunks; measured slices count from 1.
const WARM_SLICE: usize = 1 << 20;
/// The audited pass runs a slice of this share of the measured ones.
const AUDIT_DIVISOR: usize = 20;
/// Steps of the dependent chain [`host_parallelism`] times (≈ 35 ms,
/// several scheduler ticks, so where threads start matters little).
const PROBE_SPINS: u64 = 40_000_000;
/// A run whose clients got fewer cores than this share of their number
/// measured something else than one whose clients each had a core.
const PARALLEL_SHARE: f64 = 0.65;
/// Probes (≈ 0.1 s each) a run of [`RUN_SECONDS`] spends waiting for the
/// host to give its clients their cores before it measures without them;
/// 13 to 21 were needed in twenty runs that began on one core.
const CORE_WAIT_PROBES: f64 = 200.0;

pub struct Plan {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Seconds asked for; sizes scale with `seconds / RUN_SECONDS`.
    pub seconds: f64,
    pub traced: bool,
    /// Directory the durable lane may create its log directory in.
    pub wal_parent: PathBuf,
    /// Where to write the raw spans of a traced run, if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// The per-slice values of one metric.
pub struct Stat {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

impl Stat {
    pub fn quartiles(&self) -> Quartiles {
        quartiles(&self.values)
    }
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct Report {
    pub workload: &'static Workload,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub slice_txns: usize,
    pub host_cpus: usize,
    /// The lower of [`host_parallelism`] before and after the slices.
    pub host_parallelism: f64,
    pub wal_fs: String,
    pub clock_read_ns: f64,
    /// Calls issued in measured slices, and those that returned `Err`.
    pub attempted: u64,
    pub failed_calls: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Stat>,
    /// Phase totals that disagree with their outside span by more than
    /// a tenth: (phase, phase ns, span, span ns), per commit.
    pub unreconciled: Vec<(&'static str, f64, &'static str, f64)>,
    pub counts: Counters,
    /// Levels after the last measured slice.
    pub levels: Levels,
    /// Row-table chunks of the measured database when its warm-up ended.
    pub warm_row_chunks: u64,
}

impl Report {
    pub fn failed(&self) -> u64 {
        self.failed_calls + self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Whether the clients had fewer cores than they are: by the CPU
    /// count the host states, or by what it was measured to give.
    pub fn oversubscribed(&self) -> bool {
        let clients = self.workload.clients;
        self.host_cpus < clients || self.host_parallelism < PARALLEL_SHARE * clients as f64
    }

    /// 0 only when every output check passed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Stat> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// One client's preallocated buffers.
struct Client<P> {
    stream: Vec<u32>,
    probe: P,
}

#[derive(Clone, Copy, Default)]
struct Tally {
    ok: u64,
    failed: u64,
    /// Full-table scans that did not observe the conserved total.
    bad_scans: u64,
}

impl Tally {
    fn plus(self, other: Tally) -> Tally {
        Tally {
            ok: self.ok + other.ok,
            failed: self.failed + other.failed,
            bad_scans: self.bad_scans + other.bad_scans,
        }
    }
}

/// What one slice measured.
struct Slice {
    wall_ns: f64,
    tally: Tally,
    counts: Counters,
    p50: f64,
    p90: f64,
    p99: f64,
    p999: f64,
}

impl Slice {
    fn commit_ns(&self) -> f64 {
        self.wall_ns / self.tally.ok.max(1) as f64
    }
}

/// The fixed inputs of a run.
struct Bench {
    w: &'static Workload,
    accounts: Accounts,
    seed: u64,
    /// Transactions per client per slice.
    per_client: usize,
    /// Slice-sized chunks of warm-up before the first measured slice
    /// (after [`Bench::warm_up_measured`]: as many as it ran).
    warm_chunks: usize,
    /// Sorting room for a slice's latency samples.
    scratch: Vec<u32>,
    /// Probes [`wait_for_cores`] may take, scaled like the sizes.
    core_wait_probes: usize,
}

impl Bench {
    fn new(plan: &Plan) -> Bench {
        let w = plan.workload;
        let scaled = (w.slice_txns as f64 * plan.seconds / f64::from(RUN_SECONDS)).round() as usize;
        let per_client = (scaled / w.clients).max(AUDIT_DIVISOR);
        Bench {
            w,
            warm_chunks: w.warmup_txns.div_ceil(w.slice_txns).max(1),
            accounts: Accounts::new(w.accounts, w.zipf_theta),
            seed: plan.seed,
            per_client,
            scratch: Vec::with_capacity(per_client * w.clients),
            core_wait_probes: (CORE_WAIT_PROBES * plan.seconds / f64::from(RUN_SECONDS)).ceil()
                as usize,
        }
    }

    fn clients<P>(&self, probe: impl Fn(usize) -> P) -> Vec<Client<P>> {
        (0..self.w.clients)
            .map(|_| Client {
                stream: Vec::with_capacity(gen::stream_capacity(self.w, self.per_client)),
                probe: probe(self.per_client),
            })
            .collect()
    }

    /// Runs warm-up chunks `chunks` against `db`: untimed, slice-sized,
    /// each a stream of its own.
    fn warm_up(&mut self, db: &Db, chunks: std::ops::Range<usize>) {
        let mut clients = self.clients(|_| ());
        for chunk in chunks {
            self.run_slice(db, WARM_SLICE + chunk, self.per_client, &mut clients);
        }
    }

    /// Brings `db` to the state the slices are measured in: the
    /// workload's warm-up, then — up to half as much again — until the
    /// row table holds the chunks the workload names. Returns how many it
    /// holds.
    fn warm_up_measured(&mut self, db: &Db) -> u64 {
        self.warm_up(db, 0..self.warm_chunks);
        let most = self.warm_chunks + self.warm_chunks / 2;
        while db.observe().1.row_chunks < self.w.warm_row_chunks && self.warm_chunks < most {
            self.warm_up(db, self.warm_chunks..self.warm_chunks + 1);
            self.warm_chunks += 1;
        }
        db.observe().1.row_chunks
    }

    /// Runs slice number `slice` at `txns` transactions per client: each
    /// client thread generates its stream, all meet at a barrier, then
    /// each replays its stream against `db`. The slice lasts from the
    /// first client's start to the last client's end.
    fn run_slice<P: Probe + Send>(
        &mut self,
        db: &Db,
        slice: usize,
        txns: usize,
        clients: &mut [Client<P>],
    ) -> Slice {
        let (w, accounts, seed) = (self.w, &self.accounts, self.seed);
        let before = db.observe().0;
        let barrier = Barrier::new(clients.len());
        let runs: Vec<(Instant, Instant, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let stream_seed = gen::stream_seed(seed, c, slice);
                        gen::fill_stream(w, accounts, stream_seed, txns, &mut client.stream);
                        barrier.wait();
                        client.probe.restart();
                        let start = Instant::now();
                        let tally = drive(db, w, &client.stream, &mut client.probe);
                        (start, Instant::now(), tally)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
        });
        let counts = db.observe().0.since(&before);
        let start = runs.iter().map(|r| r.0).min().expect("at least one client");
        let end = runs.iter().map(|r| r.1).max().expect("at least one client");
        let tally = runs.iter().fold(Tally::default(), |a, r| a.plus(r.2));
        self.scratch.clear();
        for client in clients.iter() {
            self.scratch.extend_from_slice(client.probe.samples());
        }
        self.scratch.sort_unstable();
        let pct =
            |p| if self.scratch.is_empty() { 0.0 } else { percentile_sorted(&self.scratch, p) };
        Slice {
            wall_ns: end.duration_since(start).as_nanos() as f64,
            tally,
            counts,
            p50: pct(0.5),
            p90: pct(0.9),
            p99: pct(0.99),
            p999: pct(0.999),
        }
    }
}

/// Replays one client's stream against the database.
fn drive<P: Probe>(db: &Db, w: &Workload, stream: &[u32], probe: &mut P) -> Tally {
    let expected_total = i64::from(w.accounts) * INITIAL_BALANCE;
    let mut tally = Tally::default();
    let mut i = 0;
    while i < stream.len() {
        let ok = match stream[i] {
            gen::TRANSFER => {
                i += 3;
                db.transfer(stream[i - 2], stream[i - 1], w.spin, probe)
            }
            gen::SCAN => {
                i += 1 + w.scan_len;
                let sum = db.scan(stream[i - w.scan_len..i].iter().copied(), probe);
                black_box(sum).is_some()
            }
            gen::FULL_SCAN => {
                i += 1;
                let sum = db.scan(0..w.accounts, probe);
                tally.bad_scans += u64::from(sum.is_some_and(|s| s != expected_total));
                sum.is_some()
            }
            tag => unreachable!("the generator wrote tag {tag}"),
        };
        if ok {
            tally.ok += 1;
        } else {
            tally.failed += 1;
        }
    }
    tally
}

/// Replays one client's stream straight into the layers under the engine.
fn replay<P: Probe>(layers: &mut Layers, w: &Workload, stream: &[u32], probe: &mut P) {
    let mut i = 0;
    while i < stream.len() {
        match stream[i] {
            gen::TRANSFER => {
                i += 3;
                layers.transfer(stream[i - 2], stream[i - 1], probe);
            }
            gen::SCAN => {
                i += 1 + w.scan_len;
                black_box(layers.scan(stream[i - w.scan_len..i].iter().copied(), probe));
            }
            gen::FULL_SCAN => {
                i += 1;
                black_box(layers.scan(0..w.accounts, probe));
            }
            tag => unreachable!("the generator wrote tag {tag}"),
        }
    }
}

/// The durable lane's log directory, removed when the run ends — also
/// when it ends by a failed check or a panic.
struct WalDir(PathBuf);

impl WalDir {
    fn create(parent: &Path) -> std::io::Result<WalDir> {
        // Unique per run, so runs in one process (the tests) never share one.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("exp22_wal.{}.{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WalDir(dir))
    }

    fn log(&self, n: usize) -> PathBuf {
        self.0.join(format!("wal-{n}.log"))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// File-system type holding `path`, from the longest matching mount.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, dir, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(dir).then_some((dir.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How many of `clients` threads the host runs at once, measured: the
/// time one thread takes for a fixed spin, times `clients`, over the time
/// `clients` threads take for it together. A sandbox's virtual CPUs are
/// not cores: this one runs its two on one core for minutes at a time
/// (answer ≈ 1) and on two at others (≈ 2), and a lane whose clients
/// overlap costs half as much per commit in the first state.
fn host_parallelism(clients: usize) -> f64 {
    fn spin() -> f64 {
        let start = Instant::now();
        let mut x = 1u64;
        for _ in 0..PROBE_SPINS {
            x = black_box(x).wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        start.elapsed().as_secs_f64()
    }
    if clients == 1 {
        return 1.0;
    }
    let alone = spin();
    let barrier = Barrier::new(clients);
    let together = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    spin()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a probe thread panicked")).fold(0.0, f64::max)
    });
    clients as f64 * alone / together
}

/// Probes [`host_parallelism`] until the clients have their cores, at
/// most `probes` times, and returns the last answer. The host moves a
/// virtual CPU to a core of its own only after some seconds of both
/// being busy, which the probes themselves keep them.
fn wait_for_cores(clients: usize, probes: usize) -> f64 {
    let mut parallelism = host_parallelism(clients);
    for _ in 1..probes {
        if parallelism >= PARALLEL_SHARE * clients as f64 {
            break;
        }
        parallelism = host_parallelism(clients);
    }
    parallelism
}

fn open(w: &Workload, wal: Option<&Path>) -> std::io::Result<Db> {
    match wal {
        Some(path) => Db::open_durable(w.accounts, path),
        None => Ok(Db::open_memory(w.accounts)),
    }
}

/// The per-slice values of a metric of the table, under its unit there.
fn stat(name: &'static str, values: Vec<f64>) -> Stat {
    Stat { name, unit: spec::metric(name).unit, values }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Runs the planned workload. `tamper` runs after the last measured
/// slice and before the output checks; the command passes a no-op, the
/// tests break a balance with it.
pub fn run(plan: &Plan, tamper: impl FnOnce(&Db)) -> std::io::Result<Report> {
    let w = plan.workload;
    let mut bench = Bench::new(plan);
    let wal_dir = if w.durable { Some(WalDir::create(&plan.wal_parent)?) } else { None };
    let mut report = Report {
        workload: w,
        traced: plan.traced,
        seed: plan.seed,
        seconds: plan.seconds,
        slice_txns: bench.per_client * w.clients,
        host_cpus: host_cpus(),
        host_parallelism: 0.0,
        wal_fs: wal_dir.as_ref().map_or_else(|| "none".to_string(), |d| fs_type(&d.0)),
        clock_read_ns: clock_read_ns(),
        attempted: 0,
        failed_calls: 0,
        checks: Vec::new(),
        metrics: Vec::new(),
        unreconciled: Vec::new(),
        counts: Counters::default(),
        levels: Levels::default(),
        warm_row_chunks: 0,
    };
    let (db, log, slices) = if plan.traced {
        traced(plan, &mut bench, wal_dir.as_ref(), &mut report)?
    } else {
        untraced(&mut bench, wal_dir.as_ref(), &mut report)?
    };
    report.levels = db.observe().1;
    tamper(&db);

    let total = slices.iter().fold(Tally::default(), |a, s| a.plus(s.tally));
    report.attempted = total.ok + total.failed;
    report.failed_calls = total.failed;
    report.counts = slices.iter().fold(Counters::default(), |a, s| a.plus(&s.counts));
    report.checks.push(conservation(&db));
    report.checks.push(Check {
        name: "commits_equal_acknowledged",
        ok: report.counts.commits == total.ok,
        detail: format!("program counted {}, clients saw {}", report.counts.commits, total.ok),
    });
    report.checks.push(Check {
        name: "full_scans_see_conserved_total",
        ok: total.bad_scans == 0,
        detail: format!("{} full-table scans saw another total", total.bad_scans),
    });
    // Not when a scaled-down run's warm-up stopped short of the chunk
    // level: there the table grows by small chunks all along.
    if w.warm_row_chunks > 0 && report.warm_row_chunks >= w.warm_row_chunks {
        report.checks.push(Check {
            name: "row_table_steady",
            ok: report.levels.row_chunks == report.warm_row_chunks,
            detail: format!(
                "{} chunks after the warm-up, {} after the last slice",
                report.warm_row_chunks, report.levels.row_chunks
            ),
        });
    }
    match &log {
        Some(log) => {
            // Every acknowledged commit must come back from the bytes
            // the log holds, replayed into an empty store.
            let synced = db.sync();
            let wal_commits = db.observe().0.wal_commits;
            let final_balances = db.balances();
            drop(db);
            let recovery = sut::recover(log)?;
            let same_store = recovery.balances == final_balances;
            report.checks.push(Check {
                name: "acknowledged_commits_recovered",
                ok: synced
                    && same_store
                    && recovery.replayed_commits == wal_commits
                    && recovery.dropped_commits == 0
                    && !recovery.unsealed_tail
                    && !recovery.malformed,
                detail: format!(
                    "replayed {} of {wal_commits} logged, dropped {}, unsealed tail {}, malformed {}, \
                     store equal {same_store}",
                    recovery.replayed_commits,
                    recovery.dropped_commits,
                    recovery.unsealed_tail,
                    recovery.malformed,
                ),
            });
            if plan.traced {
                let per_commit =
                    recovery.elapsed_ns as f64 / recovery.replayed_commits.max(1) as f64;
                set_metric(&mut report, "durability.recover_ns_per_commit", per_commit);
            }
        }
        None => {
            // A twentieth of a slice with the decision journal on, every
            // decision re-derived by the auditor.
            drop(db);
            let (audited, audit) = Db::open_audited(w.accounts);
            let mut clients = bench.clients(|_| ());
            let slice =
                bench.run_slice(&audited, 1, bench.per_client / AUDIT_DIVISOR, &mut clients);
            let verdict = audit.verdict();
            report.checks.push(Check {
                name: "audited_pass_clean",
                ok: verdict.is_ok() && slice.tally.failed == 0,
                detail: match verdict {
                    Ok(decisions) => {
                        format!(
                            "{decisions} decisions re-derived over {} transactions",
                            slice.tally.ok
                        )
                    }
                    Err(summary) => summary,
                },
            });
        }
    }
    Ok(report)
}

fn conservation(db: &Db) -> Check {
    let expected = i64::from(db.accounts()) * INITIAL_BALANCE;
    let balances = db.balances();
    let found: i64 = balances.iter().map(|&(_, v)| v).sum();
    Check {
        name: "balances_conserve",
        ok: found == expected && balances.len() == db.accounts() as usize,
        detail: format!("{found} over {} accounts, expected {expected}", balances.len()),
    }
}

fn set_metric(report: &mut Report, name: &str, value: f64) {
    let slot = report
        .metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    slot.values = vec![value];
}

/// The database measured, its log, and its measured slices.
type Measured = (Db, Option<PathBuf>, Vec<Slice>);

/// The untraced run: the database opened and warmed up, both timed for
/// `setup_s`, then [`SLICES`] measured slices. Fills the end-to-end
/// metrics.
fn untraced(
    bench: &mut Bench,
    wal_dir: Option<&WalDir>,
    report: &mut Report,
) -> std::io::Result<Measured> {
    let w = bench.w;
    let mut lat = bench.clients(Latency::with_capacity);
    let log = wal_dir.map(|d| d.log(0));
    let start = Instant::now();
    let db = open(w, log.as_deref())?;
    let opening = start.elapsed();
    // Before the warm-up, so that it runs, and is timed, on the cores the
    // slices will have; the wait itself is the host's time, not set-up.
    let parallelism = wait_for_cores(w.clients, bench.core_wait_probes);
    let start = Instant::now();
    report.warm_row_chunks = bench.warm_up_measured(&db);
    let setup_s = (opening + start.elapsed()).as_secs_f64();
    let slices: Vec<Slice> =
        (1..=SLICES).map(|n| bench.run_slice(&db, n, bench.per_client, &mut lat)).collect();
    report.host_parallelism = parallelism.min(host_parallelism(w.clients));
    let of = |f: fn(&Slice) -> f64| slices.iter().map(f).collect::<Vec<f64>>();
    report.metrics = vec![
        stat("commit_ns", of(Slice::commit_ns)),
        stat("txn_p50_ns", of(|s| s.p50)),
        stat("txn_p90_ns", of(|s| s.p90)),
        stat("peak_rss_mib", vec![peak_rss_mib()]),
        stat("setup_s", vec![setup_s]),
    ];
    Ok((db, log, slices))
}

/// A short run of the same inputs against another database: median ns
/// per commit over slices 1 and 2 after an eighth of the warm-up (no
/// side database keeps version chains to fill), and whether its
/// balances conserved.
fn side_run(bench: &mut Bench, db: &Db) -> (f64, bool) {
    bench.warm_up(db, 0..bench.warm_chunks.div_ceil(8));
    let mut lat = bench.clients(Latency::with_capacity);
    let commit_ns: Vec<f64> =
        (1..=2).map(|n| bench.run_slice(db, n, bench.per_client, &mut lat).commit_ns()).collect();
    (median(&commit_ns), conservation(db).ok)
}

/// The traced run: one warmed-up database, then [`TRACED_ROUNDS`] rounds
/// of three slices — untraced, with harness spans around every call
/// into the engine, with the program's phase timers on — interleaved so
/// the three instruments meet the same state. Then the layer replay,
/// the log layer and the baselines. Fills every per-layer metric.
fn traced(
    plan: &Plan,
    bench: &mut Bench,
    wal_dir: Option<&WalDir>,
    report: &mut Report,
) -> std::io::Result<Measured> {
    let w = bench.w;
    let log = |n: usize| wal_dir.map(|d| d.log(n));
    let db = open(w, log(0).as_deref())?;
    let parallelism = wait_for_cores(w.clients, bench.core_wait_probes);
    report.warm_row_chunks = bench.warm_up_measured(&db);
    let mut lat = bench.clients(Latency::with_capacity);
    let origin = Instant::now();
    let mut spans = bench.clients(|calls| Spans::with_capacity(origin, calls));
    // Running totals of the span clients after each spanned slice.
    let mut marks: Vec<([u64; KINDS], u64)> = vec![([0; KINDS], 0)];
    let (mut plain, mut spanned, mut timed) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..TRACED_ROUNDS {
        let n = 1 + 3 * round;
        plain.push(bench.run_slice(&db, n, bench.per_client, &mut lat));
        spanned.push(bench.run_slice(&db, n + 1, bench.per_client, &mut spans));
        let mut total = ([0u64; KINDS], 0u64);
        for c in &spans {
            for (t, ns) in total.0.iter_mut().zip(c.probe.total_ns) {
                *t += ns;
            }
            total.1 += c.probe.call_ns;
        }
        marks.push(total);
        db.set_phase_timing(true);
        timed.push(bench.run_slice(&db, n + 2, bench.per_client, &mut lat));
        db.set_phase_timing(false);
    }
    report.host_parallelism = parallelism.min(host_parallelism(w.clients));

    // (a) the outside spans, per committed transaction and slice.
    let engine_kinds = [
        ("engine.admit_ns", Kind::Admit),
        ("engine.read_ns", Kind::Read),
        ("engine.write_ns", Kind::Write),
        ("engine.snapshot_read_ns", Kind::SnapshotRead),
        ("engine.commit_ns", Kind::Commit),
        ("engine.retry_ns", Kind::Retry),
        ("engine.body_ns", Kind::Body),
    ];
    let mut m: Vec<Stat> = Vec::new();
    let per_slice = |f: &dyn Fn(usize) -> f64| (0..TRACED_ROUNDS).map(f).collect::<Vec<f64>>();
    let tile_ns =
        |n: usize, kind: Kind| (marks[n + 1].0[kind as usize] - marks[n].0[kind as usize]) as f64;
    for (name, kind) in engine_kinds {
        m.push(stat(name, per_slice(&|n| tile_ns(n, kind) / spanned[n].tally.ok.max(1) as f64)));
    }
    m.push(stat(
        "engine.span_sum_over_txn",
        per_slice(&|n| {
            let tiles: f64 = engine_kinds.iter().map(|&(_, kind)| tile_ns(n, kind)).sum();
            tiles / (marks[n + 1].1 - marks[n].1).max(1) as f64
        }),
    ));
    m.push(stat(
        "engine.trace_overhead_frac",
        per_slice(&|n| spanned[n].commit_ns() / plain[n].commit_ns() - 1.0),
    ));

    // (b) the program's own counters, over the untraced database's slices.
    let counts = plain.iter().fold(Counters::default(), |a, s| a.plus(&s.counts));
    let sharded_ns = median(&plain.iter().map(Slice::commit_ns).collect::<Vec<f64>>());
    let attempts = counts.commits + counts.aborts;
    m.push(stat("engine.attempts_per_commit", vec![ratio(attempts, counts.commits)]));
    m.push(stat(
        "engine.ns_per_attempt",
        per_slice(&|n| {
            plain[n].wall_ns / (plain[n].counts.commits + plain[n].counts.aborts).max(1) as f64
        }),
    ));
    for (name, n) in [
        ("engine.access_aborts_per_commit", counts.access_aborts),
        ("engine.validation_aborts_per_commit", counts.validation_aborts),
        ("engine.restarts_per_commit", counts.restarts),
        ("engine.blocked_waits_per_commit", counts.blocked_waits),
    ] {
        m.push(stat(name, vec![ratio(n, counts.commits)]));
    }
    m.push(stat("engine.gave_up", vec![counts.gave_up as f64]));
    m.push(stat("engine.txn_p99_ns", per_slice(&|n| plain[n].p99)));
    m.push(stat("engine.txn_p999_ns", per_slice(&|n| plain[n].p999)));
    type PhaseOf = fn(&Counters) -> u64;
    let phase_kinds: [(&'static str, PhaseOf); 6] = [
        ("engine.phase_admission_ns", |c| c.phase_admission_ns),
        ("engine.phase_commit_ns", |c| c.phase_commit_ns),
        ("engine.phase_backoff_ns", |c| c.phase_backoff_ns),
        ("engine.phase_block_wait_ns", |c| c.phase_block_wait_ns),
        ("engine.phase_chain_walk_ns", |c| c.phase_chain_walk_ns),
        ("engine.phase_fsync_wait_ns", |c| c.phase_fsync_wait_ns),
    ];
    for (name, ns) in phase_kinds {
        m.push(stat(
            name,
            per_slice(&|n| ns(&timed[n].counts) as f64 / timed[n].tally.ok.max(1) as f64),
        ));
    }
    // Like for like: every admission and backoff the program timed lies
    // in an admit or a retry span (which also hold abort clean-up), its
    // commit section and fsync wait in a commit span.
    let of = |name: &str| median(&m.iter().find(|s| s.name == name).expect("pushed above").values);
    for (phase, phase_ns, span, span_ns) in [
        (
            "admission+backoff",
            of("engine.phase_admission_ns") + of("engine.phase_backoff_ns"),
            "engine.admit_ns+retry_ns",
            of("engine.admit_ns") + of("engine.retry_ns"),
        ),
        (
            "commit+fsync_wait",
            of("engine.phase_commit_ns") + of("engine.phase_fsync_wait_ns"),
            "engine.commit_ns",
            of("engine.commit_ns"),
        ),
    ] {
        if (phase_ns - span_ns).abs() > 0.1 * phase_ns.max(span_ns) {
            report.unreconciled.push((phase, phase_ns, span, span_ns));
        }
    }
    m.push(stat("engine.phase_unreconciled", vec![report.unreconciled.len() as f64]));
    for (name, n) in [
        ("admission.batches_per_txn", counts.admit_batches),
        ("admission.parked_frac", counts.admit_parked),
        ("admission.prewarm_pairs_per_txn", counts.admit_prewarm_pairs),
    ] {
        m.push(stat(name, vec![ratio(n, counts.admit_txns)]));
    }

    // (c) Layer replay: client 0's streams — the warm-up chunks, then
    // the first slices, tiled.
    let levels = db.observe().1;
    let mut layers = Layers::new(w.accounts);
    let mut stream = Vec::with_capacity(gen::stream_capacity(w, bench.per_client));
    let mut layer_tiles = Spans::with_capacity(Instant::now(), bench.per_client);
    // Per tiled slice: tile ns and tile counts by kind, and commits.
    type Tiled = ([u64; KINDS], [u64; KINDS], f64);
    let mut tiled: Vec<Tiled> = Vec::new();
    let warm = (0..bench.warm_chunks).map(|chunk| WARM_SLICE + chunk);
    for slice in warm.chain(1..=TRACED_ROUNDS) {
        let seed = gen::stream_seed(bench.seed, 0, slice);
        gen::fill_stream(w, &bench.accounts, seed, bench.per_client, &mut stream);
        if slice >= WARM_SLICE {
            replay(&mut layers, w, &stream, &mut ());
        } else {
            let before = (layer_tiles.total_ns, layer_tiles.count, layers.commits);
            layer_tiles.restart();
            replay(&mut layers, w, &stream, &mut layer_tiles);
            let delta = |after: [u64; KINDS], before: [u64; KINDS]| {
                std::array::from_fn(|k| after[k] - before[k])
            };
            tiled.push((
                delta(layer_tiles.total_ns, before.0),
                delta(layer_tiles.count, before.1),
                (layers.commits - before.2).max(1) as f64,
            ));
        }
    }
    // A tile holds one clock read on average; the figures are net of it.
    // The replay runs the warm-up the engine ran, so its tiled slices lie
    // between the same two row-table chunks.
    let clock = report.clock_read_ns;
    let net = |kind: Kind, per: &dyn Fn(&Tiled) -> f64| {
        let k = kind as usize;
        tiled.iter().map(|t| (t.0[k] as f64 - t.1[k] as f64 * clock).max(0.0) / per(t)).collect()
    };
    let per_commit = |kind: Kind| -> Vec<f64> { net(kind, &|t| t.2) };
    let per_call = |kind: Kind| -> Vec<f64> { net(kind, &|t| t.1[kind as usize].max(1) as f64) };
    let core_kinds = [
        ("core.begin_ns", Kind::CoreBegin),
        ("core.read_ns", Kind::CoreRead),
        ("core.write_ns", Kind::CoreWrite),
        ("core.commit_ns", Kind::CoreCommit),
        ("core.abort_ns", Kind::CoreAbort),
    ];
    let snapshot_read_ns = per_commit(Kind::CoreSnapshotRead);
    let mut core_txn_ns = snapshot_read_ns.clone();
    for (name, kind) in core_kinds {
        let values = per_commit(kind);
        for (sum, v) in core_txn_ns.iter_mut().zip(&values) {
            *sum += v;
        }
        m.push(stat(name, values));
    }
    // Net over net: the untraced engine's time over the replay's tiles
    // less their clock reads.
    let engine_over_core = sharded_ns / median(&core_txn_ns).max(1e-9);
    m.push(stat("core.txn_ns", core_txn_ns));
    m.push(stat("core.snapshot_read_ns", snapshot_read_ns));
    m.push(stat("core.engine_over_core", vec![engine_over_core]));
    m.push(stat("core.live_rows", vec![levels.live_rows as f64]));
    m.push(stat("core.row_chunks", vec![levels.row_chunks as f64]));
    report.checks.push(Check {
        name: "layer_replay_conserves",
        ok: layers.total_balance() == i64::from(w.accounts) * INITIAL_BALANCE,
        detail: format!("{} commits, {} aborts replayed", layers.commits, layers.aborts),
    });

    let vectors = layers.sample_vectors(1024);
    let (insert_ns, get_ns) = vectors.ordercache_ns(1 << 15);
    m.push(stat("vector.compare_k3_ns", vec![vectors.compare_ns(1 << 20)]));
    m.push(stat("vector.simd_compare_k3_ns", vec![vectors.simd_compare_ns(1 << 20)]));
    m.push(stat("vector.ordercache_get_hit_ns", vec![get_ns]));
    m.push(stat("vector.ordercache_insert_ns", vec![insert_ns]));
    let probes = counts.order_cache_hits + counts.order_cache_misses;
    let batches = counts.probe_batches + counts.chain_batches;
    for (name, num, den) in [
        ("vector.ordercache_hit_rate", counts.order_cache_hits, probes),
        ("vector.ordercache_probes_per_commit", probes, counts.commits),
        ("vector.batched_compares_per_commit", counts.batched_compares, counts.commits),
        ("vector.batch_le2_frac", counts.batches_le2, batches),
    ] {
        m.push(stat(name, vec![ratio(num, den)]));
    }
    m.push(stat("vector.epoch_flushes", vec![counts.epoch_flushes as f64]));

    m.push(stat("storage.sharded_get_ns", per_call(Kind::StoreGet)));
    m.push(stat("storage.sharded_set_ns", per_call(Kind::StoreSet)));
    m.push(stat("storage.mv_install_ns", per_call(Kind::MvInstall)));
    m.push(stat("storage.mv_chain_read_ns", per_call(Kind::MvChainRead)));
    m.push(stat("storage.mv_versions", vec![levels.mv_versions as f64]));
    m.push(stat("storage.mv_max_chain", vec![levels.mv_max_chain as f64]));
    m.push(stat("storage.mv_pruned_per_commit", vec![ratio(counts.mv_pruned, counts.commits)]));

    // The log layer on its own and the no-log twin, on the durable lane.
    let (mut encode_ns, mut append_ns, mut twin_ns) = (0.0, 0.0, 0.0);
    if let Some(layer_log) = log(1) {
        let transfers: Vec<(u32, u32)> = stream.chunks_exact(3).map(|t| (t[1], t[2])).collect();
        let per_epoch = ratio(counts.wal_commits, counts.wal_fsyncs).round().max(1.0) as usize;
        (encode_ns, append_ns) = sut::wal_layer_ns(&layer_log, &transfers, per_epoch)?;
        let (ns, conserved) = side_run(bench, &Db::open_memory(w.accounts));
        twin_ns = ns;
        report.checks.push(Check {
            name: "no_log_twin_conserves",
            ok: conserved,
            detail: String::new(),
        });
    }
    m.push(stat("storage.wal_encode_ns", vec![encode_ns]));
    m.push(stat("storage.wal_append_ns", vec![append_ns]));
    for (name, num, den) in [
        ("storage.wal_fsyncs_per_commit", counts.wal_fsyncs, counts.commits),
        ("storage.wal_commits_per_epoch", counts.wal_commits, counts.wal_fsyncs),
        ("storage.wal_bytes_per_epoch", counts.wal_bytes, counts.wal_fsyncs),
        ("durability.wal_bytes_per_commit", counts.wal_bytes, counts.wal_commits),
    ] {
        m.push(stat(name, vec![ratio(num, den)]));
    }
    // Filled in by the recovery check.
    m.push(stat("durability.recover_ns_per_commit", vec![0.0]));
    let (over, times) =
        if twin_ns > 0.0 { (sharded_ns - twin_ns, sharded_ns / twin_ns) } else { (0.0, 0.0) };
    m.push(stat("durability.ack_overhead_ns", vec![over]));
    m.push(stat("durability.durable_over_memory", vec![times]));

    // The same inputs through the cost floor and the alternatives; MVTO
    // where there are scans for its versions to serve.
    let mut baseline_ns = [0.0f64; 3];
    for (ns, which) in
        baseline_ns.iter_mut().zip([Baseline::To1, Baseline::SerializedMt, Baseline::Mvto])
    {
        if which == Baseline::Mvto && w.scans_per_mille == 0 {
            continue;
        }
        let (commit_ns, conserved) = side_run(bench, &Db::open_baseline(which, w.accounts));
        *ns = commit_ns;
        report.checks.push(Check {
            name: "baseline_conserves",
            ok: conserved,
            detail: format!("{which:?}: {commit_ns:.1} ns per commit"),
        });
    }
    m.push(stat("baseline.to1_commit_ns", vec![baseline_ns[0]]));
    m.push(stat("baseline.serialized_mt_commit_ns", vec![baseline_ns[1]]));
    m.push(stat("baseline.mvto_commit_ns", vec![baseline_ns[2]]));
    m.push(stat("baseline.mt_over_to1", vec![sharded_ns / baseline_ns[0].max(1e-9)]));
    m.push(stat("baseline.sharded_over_serialized", vec![sharded_ns / baseline_ns[1].max(1e-9)]));
    report.metrics = m;

    if let Some(path) = &plan.spans_out {
        let mut all: Vec<&Spans> = spans.iter().map(|c| &c.probe).collect();
        all.push(&layer_tiles);
        crate::doc::write_spans(path, &all)?;
    }
    let slices = plain.into_iter().chain(spanned).chain(timed).collect();
    Ok((db, log(0), slices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn plan(name: &str, traced: bool) -> Plan {
        Plan {
            workload: workload(name).expect("a workload of the table"),
            seed: 7,
            seconds: 0.05,
            traced,
            wal_parent: std::env::temp_dir(),
            spans_out: None,
        }
    }

    fn names(report: &Report) -> Vec<&'static str> {
        report.metrics.iter().map(|m| m.name).collect()
    }

    /// With one client nothing is left to the scheduler of the host: the
    /// same seed must give the same decisions, so the same counts.
    #[test]
    fn one_client_lanes_repeat_their_counts_exactly() {
        for name in ["transfer_uniform_1t", "snapshot_scan_1t"] {
            let first = run(&plan(name, false), |_| {}).expect("in-memory run");
            let again = run(&plan(name, false), |_| {}).expect("in-memory run");
            assert!(
                first.correct() && first.failed() == 0,
                "{name}: {:?}",
                first.checks.iter().find(|c| !c.ok).map(|c| &c.detail)
            );
            let exact = |r: &Report| {
                let c = r.counts;
                [
                    c.commits,
                    c.aborts,
                    c.restarts,
                    c.reads,
                    c.writes,
                    c.snapshot_reads,
                    c.order_cache_hits,
                    c.order_cache_misses,
                ]
            };
            assert_eq!(exact(&first), exact(&again), "{name}");
            assert_eq!(first.counts.commits, first.attempted);
            assert_eq!(names(&first), spec::END_TO_END.map(|m| m.name));
            assert!(
                first.metrics.iter().all(|m| m.quartiles().median > 0.0),
                "{name}: a zero metric"
            );
            let other_seed =
                run(&Plan { seed: 8, ..plan(name, false) }, |_| {}).expect("in-memory run");
            assert_ne!(exact(&first), exact(&other_seed), "{name}: the seed must reach the inputs");
        }
    }

    #[test]
    fn a_broken_balance_fails_the_run() {
        let report =
            run(&plan("transfer_hot_2t", false), |db| db.deposit(3, 1)).expect("in-memory run");
        assert!(!report.correct());
        assert!(report.failed_frac() > 0.0 && report.exit_code() != 0);
        let broken: Vec<&str> = report.checks.iter().filter(|c| !c.ok).map(|c| c.name).collect();
        assert_eq!(broken, ["balances_conserve"]);
    }

    #[test]
    fn the_traced_run_fills_every_per_layer_metric_and_its_spans_tile_the_calls() {
        for name in ["transfer_uniform_1t", "snapshot_scan_1t"] {
            let report = run(&plan(name, true), |_| {}).expect("in-memory run");
            assert!(
                report.correct(),
                "{name}: {:?}",
                report.checks.iter().find(|c| !c.ok).map(|c| &c.detail)
            );
            assert_eq!(names(&report), spec::PER_LAYER.map(|m| m.name));
            let tiling = report.metric("engine.span_sum_over_txn").expect("reported").quartiles();
            assert!(
                (tiling.median - 1.0).abs() <= 0.02,
                "{name}: spans cover {} of the calls",
                tiling.median
            );
        }
    }

    #[test]
    fn the_durable_lane_recovers_what_it_acknowledged() {
        for traced in [false, true] {
            let report =
                run(&plan("durable_transfer_2t", traced), |_| {}).expect("a writable temp dir");
            assert!(
                report.correct(),
                "{:?}",
                report.checks.iter().find(|c| !c.ok).map(|c| &c.detail)
            );
            assert!(report.checks.iter().any(|c| c.name == "acknowledged_commits_recovered"));
            assert_ne!(report.wal_fs, "none");
        }
        let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .expect("readable temp dir")
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("exp22_wal.{}.", std::process::id()))
            })
            .collect();
        // Other tests of this process may hold theirs; none may outlive its run.
        assert!(left.len() <= 1, "log directories left behind: {left:?}");
    }

    /// The layer replay is only a cost model of the engine if it makes
    /// the engine's decisions: same stream, same commits and aborts.
    #[test]
    fn the_layer_replay_decides_as_the_engine_does() {
        for name in ["transfer_uniform_1t", "snapshot_scan_1t"] {
            let w = workload(name).expect("a workload of the table");
            let accounts = Accounts::new(w.accounts, w.zipf_theta);
            let mut stream = Vec::new();
            gen::fill_stream(w, &accounts, 7, 20_000, &mut stream);
            let db = Db::open_memory(w.accounts);
            let tally = drive(&db, w, &stream, &mut ());
            let counts = db.observe().0;
            let mut layers = Layers::new(w.accounts);
            replay(&mut layers, w, &stream, &mut ());
            assert_eq!((tally.ok, tally.failed), (20_000, 0), "{name}");
            assert_eq!((layers.commits, layers.aborts), (counts.commits, counts.aborts), "{name}");
        }
    }
}
