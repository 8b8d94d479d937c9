//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <grid_smoke|deploy_smoke|single_quick|all>
//!           [--seed 2025] [--seconds 6] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop over one stage of the attack lifecycle;
//! it reports work completed per second at a fixed input size, checks
//! every output, and prints one JSON result as the last line of stdout:
//! the end-to-end metrics on an untraced run (`--trace 0`) or the
//! per-layer metrics on a traced run (`--trace 1`). `--workload all` runs
//! every workload, each in its own process, and prints every metric with
//! its unit. `--list-metrics` prints the metric registry.

mod clock;
mod deploy;
mod grid;
mod layers;
mod metrics;
mod replay;
mod run;
mod single;
mod specs;
mod stats;
mod trace;

use std::process::ExitCode;

use reveil_tensor::parallel;

use crate::clock::Lap;
use crate::run::{guarded, Ctx, Report, Tally};
use crate::stats::{json_num, json_str, mean, median};
use crate::trace::{CountingAllocator, Tracer};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["grid_smoke", "deploy_smoke", "single_quick"];

/// Trains the throwaway warm-up cell on the serial path (set-up, not an
/// op; a failure still fails the run).
pub fn warmup(ctx: &Ctx, tally: &mut Tally) {
    let spec = specs::warmup_cell(ctx.seed);
    if let Err(e) = parallel::serialized(|| guarded("warm-up cell", || spec.train())) {
        tally.fail_all(1, e);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: reveil_eval::DEFAULT_SEED,
        seconds: 6.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list-metrics" {
            for m in metrics::end_to_end().iter().chain(&metrics::per_layer()) {
                println!("{:<44} {:<6} {:<7} {}", m.name, m.unit, m.better, m.note);
            }
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got '{}'",
            args.workload
        ));
    }
    Ok(Some(args))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git revision, read from `.git` without running git (a
/// source checkout without `.git` reports `unknown`).
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
    }
}

/// Logs one round to stderr and records its set-up time and op rate.
pub fn log_round(report: &mut Report, round: usize, setup: Lap, timed: Lap, ok: u64) {
    eprintln!(
        "round {round}: setup {:.3} s (unstolen {:.3}), timed {:.3} s (unstolen {:.3}, cpu {:.2}, steal {:.2}), {ok} ops",
        setup.wall,
        setup.unstolen(),
        timed.wall,
        timed.unstolen(),
        timed.cpu,
        timed.steal
    );
    report.setup_secs.push(setup.unstolen());
    report.round_rates.push(ok as f64 / timed.unstolen());
    report.timed_secs += timed.unstolen();
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The metrics a run prints, in registry order, with their units.
fn result_metrics(args: &Args, report: &Report) -> Vec<(String, f64, &'static str)> {
    if args.trace {
        metrics::per_layer()
            .into_iter()
            .map(|m| {
                let value = match m.name.as_str() {
                    "core.asr_poison_pct" => mean(&report.fidelity.asr_poison),
                    "trace.peak_rss_mib" => peak_rss_mib(),
                    name => report.layers.get(name).copied().unwrap_or(0.0),
                };
                (m.name, value, m.unit)
            })
            .collect()
    } else {
        let t = &report.tally;
        let fid = &report.fidelity;
        let success =
            100.0 * (t.attempted - t.failed.min(t.attempted)) as f64 / t.attempted.max(1) as f64;
        metrics::end_to_end()
            .into_iter()
            .map(|m| {
                let value = match m.name.as_str() {
                    "ops_per_s" => median(&report.round_rates),
                    "setup_s" => median(&report.setup_secs),
                    "peak_heap_mib" => trace::peak_heap_bytes() as f64 / (1024.0 * 1024.0),
                    "success_pct" => success,
                    "ba_pct" => mean(&fid.ba),
                    _ => 100.0 - mean(&fid.asr_concealed),
                };
                (m.name, value, m.unit)
            })
            .collect()
    }
}

fn trace_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string());
    std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans_{}_{}.jsonl", args.workload, args.seed))
}

fn run_one(args: &Args) -> ExitCode {
    // Cell-level parallelism runs at one executor worker per core unless
    // the caller pinned REVEIL_THREADS; set before the program first reads
    // (and caches) it.
    if std::env::var_os("REVEIL_THREADS").is_none() {
        std::env::set_var("REVEIL_THREADS", nproc().to_string());
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workers: parallel::worker_count(),
        tracer: Tracer::new(args.trace),
    };
    println!(
        "{{\"run_record\": {{\"workload\": {}, \"profile\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"workers\": {}, \"cpu\": {}, \"git_revision\": {}}}}}",
        json_str(&args.workload),
        json_str(if args.workload == "single_quick" { "quick" } else { "smoke" }),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        ctx.workers,
        json_str(&cpu_model()),
        json_str(&git_revision()),
    );
    let report = match args.workload.as_str() {
        "grid_smoke" => grid::run(&ctx),
        "deploy_smoke" => deploy::run(&ctx),
        _ => single::run(&ctx),
    };
    if args.trace {
        let path = trace_path(args);
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
    for note in &report.tally.notes {
        eprintln!("failed op: {note}");
    }
    let values = result_metrics(args, &report);
    let finite = values.iter().all(|(_, v, _)| v.is_finite());
    for (name, value, unit) in &values {
        eprintln!("{:<44} {value:>14.4} {unit}", name);
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0 && finite && report.tally.attempted > 0,
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Runs every workload in its own process (so `peak_heap_mib` and the
/// per-process `REVEIL_THREADS` belong to one workload) and prints every
/// metric with its unit.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = output
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).to_string())
            .unwrap_or_default();
        let Some(last) = stdout
            .lines()
            .last()
            .filter(|_| output.as_ref().is_ok_and(|o| o.status.success()))
        else {
            println!("{workload}: failed to run");
            ok = false;
            continue;
        };
        println!("{workload}: {last}");
        ok &= last.starts_with("{\"correct\": true");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(args)) if args.workload == "all" => run_all(&args),
        Ok(Some(args)) => run_one(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
