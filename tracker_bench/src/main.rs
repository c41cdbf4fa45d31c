//! Whole-tracker-session benchmark.
//!
//! ```text
//! tracker-bench --server <mi_server> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs rounds of one workload for `--seconds` and prints a report, then
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! untraced and traced rounds alternate and the metrics are the per-layer
//! report. `python3 tracker_bench/run.py` builds everything and calls it.

mod layers;
mod meter;
mod workloads;

use meter::{median, median_f64, nanos, peak_rss_kb, quantile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{Env, Round};

/// Rounds each run measures at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;
/// Timed tracker calls must explain this share of the traced drive time.
const MIN_EXPLAINED: f64 = 0.9;

struct Args {
    server: std::path::PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--server" => server = Some(value.into()),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tracker-bench: {e}");
            std::process::exit(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) || !args.server.is_file() {
        eprintln!(
            "tracker-bench: need a workload among {:?} and an mi-server binary",
            workloads::NAMES
        );
        std::process::exit(2);
    }
    let env = Env {
        server: args.server.clone(),
        seed: args.seed,
        drivers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let workload = match workloads::build(&args.workload, &env) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("tracker-bench: cannot build {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    // One warm-up round fills caches and page tables; it is checked but
    // not measured.
    let warmup = workload.round(&env, args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    let begin = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while begin.elapsed() < budget || plain.len() + traced.len() < MIN_ROUNDS {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead compares rounds of one process.
        if args.trace && plain.len() > traced.len() {
            traced.push(workload.round(&env, true));
        } else {
            plain.push(workload.round(&env, false));
        }
    }
    let elapsed = begin.elapsed();

    let all: Vec<&Round> = std::iter::once(&warmup)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let mut attempted: u64 = all.iter().map(|r| r.meter.attempted).sum();
    let mut failed: u64 = all.iter().map(|r| r.meter.failed).sum();
    let mut errors: Vec<String> = all.iter().filter_map(|r| r.error.clone()).collect();

    println!(
        "workload {} seed {} | {} rounds in {:.2} s ({} traced) | {} driver threads",
        args.workload,
        args.seed,
        plain.len() + traced.len(),
        elapsed.as_secs_f64(),
        traced.len(),
        env.drivers,
    );
    let metrics = if args.trace {
        match layers::analyse(&traced, &plain) {
            Ok(report) => {
                let explained = report
                    .metrics
                    .iter()
                    .find(|m| m.0 == "explained_frac")
                    .map_or(0.0, |m| m.1);
                if explained < MIN_EXPLAINED {
                    errors.push(format!(
                        "timed tracker calls explain {:.1}% of the traced drive time",
                        explained * 100.0
                    ));
                }
                report.metrics
            }
            Err(e) => {
                errors.push(e);
                Vec::new()
            }
        }
    } else {
        end_to_end(&plain, attempted, failed)
    };
    let mut distinct: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &errors {
        *distinct.entry(e).or_default() += 1;
    }
    for (e, rounds) in distinct {
        println!("check failed in {rounds} round(s): {e}");
    }
    let correct = errors.is_empty();
    if !correct {
        // A wrong answer voids every action of the run.
        failed = attempted.max(1);
        attempted = attempted.max(1);
    }
    println!(
        "calls attempted {attempted}, failed {failed}, op_failure_ratio {}",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(rounds: &[Round], attempted: u64, failed: u64) -> Vec<(String, f64, &'static str)> {
    // Pause quantiles are taken per round (each has at least 1,000
    // actions) and reported as the median over rounds, so one round
    // disturbed by a neighbour on the machine does not move them.
    let per_round = |q: f64| -> f64 {
        let values: Vec<f64> = rounds
            .iter()
            .map(|r| {
                let mut actions = r.meter.actions.clone();
                actions.sort_unstable();
                quantile(&actions, q)
            })
            .collect();
        median_f64(&values)
    };
    let actions: usize = rounds.iter().map(|r| r.meter.actions.len()).sum();
    let fewest = rounds
        .iter()
        .map(|r| r.meter.actions.len())
        .min()
        .unwrap_or(0);
    let drive: Vec<u64> = rounds.iter().map(|r| nanos(r.drive)).collect();
    let setup: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.setups.iter().copied())
        .collect();
    let child_kb = rounds.iter().map(|r| r.child_rss_kb).max().unwrap_or(0);
    let own_kb = peak_rss_kb(None).unwrap_or(0);
    println!(
        "samples: {} rounds (session_s), {} set-ups (setup_s), {actions} actions \
         (pause quantiles per round; the smallest round has {fewest}, {} beyond its p99)",
        rounds.len(),
        setup.len(),
        fewest / 100
    );
    let ms: Vec<String> = drive
        .iter()
        .map(|&ns| format!("{:.0}", ns as f64 / 1e6))
        .collect();
    println!("round drive times (ms): {}", ms.join(" "));
    vec![
        ("session_s".into(), median(&drive) / 1e9, "s"),
        ("pause_p50_us".into(), per_round(0.5) / 1e3, "us"),
        ("pause_p99_us".into(), per_round(0.99) / 1e3, "us"),
        ("setup_s".into(), median(&setup) / 1e9, "s"),
        (
            "peak_rss_mb".into(),
            (own_kb + child_kb) as f64 / 1024.0,
            "MB",
        ),
        (
            "op_success_ratio".into(),
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// A number in JSON, with every digit Rust's shortest round-trip
/// formatting gives; `null` if it is not finite, which is a bug.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
