//! What a run leaves behind: the table on standard output, the result
//! line the driver reads, the result document `--diff` compares, and
//! the raw spans of a traced run.

use std::io::Write as _;
use std::path::Path;

use crate::run::{Report, SLICES, TRACED_ROUNDS};
use crate::spans::Spans;
use crate::sut::Json;

pub const SCHEMA: &str = "exp22-costmodel/v1";

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric's value its median over slices.
pub fn driver_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value", Json::F64(m.quartiles().median)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::U64(report.attempted.max(1))),
        ("failed", Json::U64(report.failed())),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Every metric by name with its unit, median, quartiles and sample
/// count, then the checks.
pub fn table(report: &Report) -> String {
    let w = report.workload;
    let mut out = format!(
        "{} ({}) seed={} clients={} accounts={} slice_txns={} host_cpus={} host_parallelism={:.2}{} wal_fs={} clock_read_ns={:.1}\n",
        w.name,
        if report.traced { "traced" } else { "untraced" },
        report.seed,
        w.clients,
        w.accounts,
        report.slice_txns,
        report.host_cpus,
        report.host_parallelism,
        if report.oversubscribed() { " OVERSUBSCRIBED" } else { "" },
        report.wal_fs,
        report.clock_read_ns,
    );
    out +=
        &format!("{:<40} {:>14} {:>14} {:>14} {:>3}  unit\n", "metric", "median", "q1", "q3", "n");
    for m in &report.metrics {
        let q = m.quartiles();
        out += &format!(
            "{:<40} {:>14.4} {:>14.4} {:>14.4} {:>3}  {}\n",
            m.name, q.median, q.q1, q.q3, q.n, m.unit
        );
    }
    out += &format!(
        "{:<40} {:>14.6}  ({} failed of {} attempted)\n",
        "failed_frac",
        report.failed_frac(),
        report.failed(),
        report.attempted
    );
    for (phase, phase_ns, span, span_ns) in &report.unreconciled {
        out += &format!(
            "unreconciled: phase {phase} {phase_ns:.1} ns vs {span} {span_ns:.1} ns per commit\n"
        );
    }
    for c in &report.checks {
        out +=
            &format!("check {:<34} {}  {}\n", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    out
}

/// The git revision of the checkout the command runs in, when it is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    if rev.trim().is_empty() {
        "unknown".to_string()
    } else {
        rev.trim().to_string()
    }
}

/// One run as a document entry: stamps, every metric with its per-slice
/// values, counts, levels and checks.
pub fn entry(report: &Report) -> Json {
    let w = report.workload;
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let q = m.quartiles();
            let value = Json::obj(vec![
                ("unit", Json::str(m.unit)),
                ("median", Json::F64(q.median)),
                ("q1", Json::F64(q.q1)),
                ("q3", Json::F64(q.q3)),
                ("n", Json::U64(q.n as u64)),
                ("values", Json::Arr(m.values.iter().map(|&v| Json::F64(v)).collect())),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    let counts =
        report.counts.fields().into_iter().map(|(k, v)| (k.to_string(), Json::U64(v))).collect();
    let l = report.levels;
    let checks = report
        .checks
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("name", Json::str(c.name)),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::str(c.detail.as_str())),
            ])
        })
        .collect();
    let unreconciled = report
        .unreconciled
        .iter()
        .map(|&(phase, phase_ns, span, span_ns)| {
            Json::obj(vec![
                ("phase", Json::str(phase)),
                ("phase_ns", Json::F64(phase_ns)),
                ("span", Json::str(span)),
                ("span_ns", Json::F64(span_ns)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(w.name)),
        ("traced", Json::Bool(report.traced)),
        ("seed", Json::U64(report.seed)),
        ("seconds", Json::F64(report.seconds)),
        ("git_rev", Json::str(git_rev())),
        ("host_cpus", Json::U64(report.host_cpus as u64)),
        ("host_parallelism", Json::F64(report.host_parallelism)),
        ("oversubscribed", Json::Bool(report.oversubscribed())),
        ("wal_fs", Json::str(report.wal_fs.as_str())),
        ("clock_read_ns", Json::F64(report.clock_read_ns)),
        ("clients", Json::U64(w.clients as u64)),
        ("accounts", Json::U64(u64::from(w.accounts))),
        ("slice_txns", Json::U64(report.slice_txns as u64)),
        ("slices", Json::U64(if report.traced { 3 * TRACED_ROUNDS } else { SLICES } as u64)),
        ("attempted", Json::U64(report.attempted)),
        ("failed", Json::U64(report.failed())),
        ("failed_frac", Json::F64(report.failed_frac())),
        ("correct", Json::Bool(report.correct())),
        ("metrics", Json::Obj(metrics)),
        ("counts", Json::Obj(counts)),
        (
            "levels",
            Json::obj(vec![
                ("mv_versions", Json::U64(l.mv_versions)),
                ("mv_max_chain", Json::U64(l.mv_max_chain)),
                ("live_rows", Json::U64(l.live_rows)),
                ("row_chunks", Json::U64(l.row_chunks)),
                ("row_chunks_after_warmup", Json::U64(report.warm_row_chunks)),
            ]),
        ),
        ("unreconciled", Json::Arr(unreconciled)),
        ("checks", Json::Arr(checks)),
    ])
}

/// The runs of a document, or why it is not one.
pub fn runs(doc: &Json) -> Result<&[Json], String> {
    match (doc.get("schema").and_then(Json::as_str), doc.get("runs")) {
        (Some(SCHEMA), Some(Json::Arr(runs))) => Ok(runs),
        _ => Err(format!("not a {SCHEMA} document")),
    }
}

pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    runs(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

/// Writes `entry` into the document at `path`: a run of the same
/// workload and mode already there is replaced, other runs are kept, so
/// one file collects a complete set, one process per workload.
pub fn merge_into(path: &Path, entry: Json) -> Result<(), String> {
    let key = |run: &Json| {
        (run.get("workload").and_then(Json::as_str).map(str::to_string), run.get("traced").cloned())
    };
    let mut kept: Vec<Json> = if path.exists() { runs(&load(path)?)?.to_vec() } else { Vec::new() };
    kept.retain(|run| key(run) != key(&entry));
    kept.push(entry);
    let doc = Json::obj(vec![("schema", Json::str(SCHEMA)), ("runs", Json::Arr(kept))]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The raw spans, one JSON object per line: `{name, start, end, parent,
/// txn}` in ns since the trace's origin; `parent` is the line number
/// (from 0, within its client) of the call the span tiles, `null` for a
/// call itself.
pub fn write_spans(path: &Path, clients: &[&Spans]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, spans) in clients.iter().enumerate() {
        for s in &spans.raw {
            let name = s.kind.map_or("txn", |k| k.name());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"client\":{client},\"name\":\"{name}\",\"start\":{},\"end\":{},\"parent\":{parent},\"txn\":{}}}",
                s.start_ns, s.end_ns, s.txn
            )?;
        }
    }
    out.flush()
}
