//! Closed-loop benchmark of the etsc serving path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <anchor-dense|stream-wide|net-loopback> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --repeat <N> [--workload <w>] ...
//! ```
//!
//! One run prints human-readable lines on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. It exits 1 when a check fails and 2 on an error. Repeat
//! mode runs the workload(s) N times in child processes with seeds
//! `seed..seed+N` and prints each metric's median, quartiles and spread.
//! See `perfbench/README.md`.

mod check;
mod inputs;
mod run;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use run::{Opts, Outcome, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for {flag}")),
                }
            }
            "--repeat" => args.repeat = Some(value.parse().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Drains run on one worker thread: with two, throughput spread too
    // widely between runs to bound (see the README). Set before any thread
    // starts.
    std::env::set_var("ETSC_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <anchor-dense|stream-wide|net-loopback> --seed <n> --seconds <n> --trace <0|1> [--repeat <N>]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return repeat(&args, n);
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload is required");
        return ExitCode::from(2);
    };
    // One vCPU for the whole process: the net-loopback client and node
    // threads then hand off on one CPU instead of waking each other across
    // two, which made throughput spread widely between runs.
    match sys::pin_to_current_cpu() {
        Some(cpu) => eprintln!("held to cpu {cpu}"),
        None => eprintln!("note: could not hold the process to one cpu"),
    }
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
    };
    match run::run(&opts) {
        Ok(mut outcome) => {
            for (name, v, unit) in &outcome.metrics {
                eprintln!("  {name:<34} {v:>16.4} {unit}");
                if !v.is_finite() {
                    eprintln!("CHECK FAILED: metric {name} is not finite");
                    outcome.correct = false;
                }
            }
            println!("{}", result_json(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, v, unit)) in o.metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// One child run's result line, parsed back.
struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Parse the result line this program prints (not a general JSON parser).
fn parse_result(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1)?;
        let value = entry
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    Some(Parsed {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default, exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn repeat(args: &Args, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find this program: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut ok = true;
    for wl in workloads {
        let mut series: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut shares = Vec::new();
        for i in 0..n {
            let seed = args.seed + i as u64;
            let out = Command::new(&exe)
                .args(["--workload", wl.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", exe.display());
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(parse_result);
            let Some(p) = parsed.filter(|p| p.correct && out.status.success()) else {
                ok = false;
                eprintln!(
                    "{} seed {seed}: run failed ({})\n{}",
                    wl.name(),
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                );
                continue;
            };
            shares.push(p.failed as f64 / p.attempted.max(1) as f64);
            for (name, value, unit) in p.metrics {
                if !series.contains_key(&name) {
                    order.push(name.clone());
                }
                series
                    .entry(name)
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(value);
            }
            eprintln!("{} seed {seed}: ok", wl.name());
        }
        println!(
            "{} × {n} runs of {} s (trace {}), failed share {:?}",
            wl.name(),
            args.seconds,
            u8::from(args.trace),
            shares
        );
        println!(
            "  {:<34} {:>14} {:>14} {:>14} {:>8}  {:<10}",
            "metric", "q1", "median", "q3", "spread", "unit"
        );
        for name in order {
            let (unit, values) = &series[&name];
            let (q1, med, q3) = quartiles(values);
            println!(
                "  {name:<34} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.2}%  {unit:<10}",
                (q3 - q1) / med.abs().max(f64::MIN_POSITIVE) * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("a_ms", 1.25, "ms"), ("b", 3e9, "records/s")],
        };
        let p = parse_result(&result_json(&o)).expect("own output parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (12, 0));
        assert_eq!(
            p.metrics,
            vec![
                ("a_ms".to_string(), 1.25, "ms".to_string()),
                ("b".to_string(), 3e9, "records/s".to_string())
            ]
        );
    }
}
