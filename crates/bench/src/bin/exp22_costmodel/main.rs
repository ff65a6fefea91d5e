//! exp22_costmodel — the repository's benchmark: think-time-zero lanes
//! over the default serving engine, ns per commit end to end, and
//! per-layer figures taken from outside the program. See `README.md` in
//! this directory for the workloads, the predictions and the commands.

mod diff;
mod doc;
mod gen;
mod run;
mod spans;
mod spec;
mod stats;
mod sut;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Plan;

const DEFAULT_SEED: u64 = 42;
/// `--smoke` runs every workload, untraced and traced, at this share of
/// the frozen sizes.
const SMOKE_SECONDS: f64 = spec::RUN_SECONDS as f64 / 50.0;

const USAGE: &str = "usage:
  exp22_costmodel --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
                  [--out <doc.json>] [--spans-out <spans.jsonl>] [--wal-dir <dir>]
  exp22_costmodel --list | --benchmark-json | --smoke | --diff <A.json> <B.json>";

/// Where the durable lane keeps its log unless told otherwise: next to
/// the executable, which is inside the build directory of the checkout.
fn default_wal_parent() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(std::env::temp_dir)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    list: bool,
    benchmark_json: bool,
    smoke: bool,
    diff: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        out: None,
        spans_out: None,
        wal_dir: None,
        list: false,
        benchmark_json: false,
        smoke: false,
        diff: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--spans-out" => args.spans_out = Some(value()?.into()),
            "--wal-dir" => args.wal_dir = Some(value()?.into()),
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--smoke" => args.smoke = true,
            "--diff" => args.diff = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload; prints the table and, last, the driver's result line.
fn run_one(plan: &Plan, out: Option<&PathBuf>) -> Result<u8, String> {
    let report = run::run(plan, |_| {}).map_err(|e| format!("{}: {e}", plan.workload.name))?;
    print!("{}", doc::table(&report));
    if let Some(path) = out {
        doc::merge_into(path, doc::entry(&report))?;
    }
    println!("{}", doc::driver_line(&report));
    Ok(report.exit_code())
}

fn smoke(wal_parent: &std::path::Path) -> Result<u8, String> {
    let mut code = 0;
    for workload in &spec::WORKLOADS {
        for traced in [false, true] {
            let plan = Plan {
                workload,
                seed: DEFAULT_SEED,
                seconds: SMOKE_SECONDS,
                traced,
                wal_parent: wal_parent.to_path_buf(),
                spans_out: None,
            };
            let started = std::time::Instant::now();
            let report = run::run(&plan, |_| {}).map_err(|e| format!("{}: {e}", workload.name))?;
            println!(
                "{:<22} {:<8} {:>7} calls, {} failed, {:.2} s  {}",
                workload.name,
                if traced { "traced" } else { "untraced" },
                report.attempted,
                report.failed(),
                started.elapsed().as_secs_f64(),
                if report.correct() { "ok" } else { "FAILED" }
            );
            for check in report.checks.iter().filter(|c| !c.ok) {
                println!("  check {} failed: {}", check.name, check.detail);
            }
            code |= report.exit_code();
        }
    }
    Ok(code)
}

fn real_main() -> Result<u8, String> {
    let args = parse_args(std::env::args().skip(1))?;
    sut::clear_env_knobs();
    if args.list || args.benchmark_json {
        print!("{}", if args.list { spec::list() } else { spec::benchmark_json() });
        return Ok(0);
    }
    if let Some((a, b)) = &args.diff {
        let (text, regressed) = diff::diff(&doc::load(a)?, &doc::load(b)?)?;
        print!("{text}");
        return Ok(u8::from(regressed));
    }
    let wal_parent = args.wal_dir.clone().unwrap_or_else(default_wal_parent);
    if args.smoke {
        return smoke(&wal_parent);
    }
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let workload =
        spec::workload(name).ok_or_else(|| format!("unknown workload {name}; see --list"))?;
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        wal_parent,
        spans_out: args.spans_out.clone(),
    };
    run_one(&plan, args.out.as_ref())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
