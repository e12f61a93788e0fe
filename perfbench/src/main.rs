//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <resnet18-b1|vit-tiny-b1|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the crates' public APIs for `--seconds`,
//! checks every output against the golden `nm_nn::execute`, and prints a
//! run record followed by one JSON result line: the end-to-end metrics
//! with `--trace 0`, the per-layer breakdown with `--trace 1`. Exits 1
//! when any output or check is wrong, 2 on bad arguments. See
//! `perfbench/README.md`.

mod closed;
mod config;
mod layers;
mod report;
mod schedule;
mod serve_mix;
mod stats;
mod steal;
mod trace;

use config::Workload;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The harness's error type: any failure to build, prepare or run.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Megabytes (10^6 bytes).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// The process's peak resident set (`VmHWM`), in bytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kib| kib * 1024)
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    config::workload(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's output, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let mut report = Report::default();
    report.note("workload", name);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    report.note("rustc", env!("PERFBENCH_RUSTC"));
    // Only inside a git checkout: outside one, git would search the
    // parent directories.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    report.note("commit", commit);

    let outcome = match &args.workload {
        Workload::Closed(_, spec) => {
            closed::run(spec, args.seed, args.seconds, args.trace, &mut report)
        }
        Workload::Open(_, spec) => {
            serve_mix::run(spec, args.seed, args.seconds, args.trace, &mut report)
        }
    };
    let tracer = match outcome {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {name} failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(t) = &tracer {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{name}-seed{}.jsonl",
            args.seed
        ));
        match t.write_jsonl(&path) {
            Ok(()) => report.note(
                "trace_file",
                format!("{} ({} spans)", path.display(), t.spans().len()),
            ),
            Err(e) => report
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    report.note("attempted", report.attempted);
    report.note("failed", report.failed);
    report.note(
        "error_rate",
        (report.failed + report.problems.len() as u64) as f64 / report.attempted.max(1) as f64,
    );
    for (k, v) in &report.record {
        println!("# {k}: {v}");
    }
    for p in &report.problems {
        println!("# check failed: {p}");
        eprintln!("perfbench: check failed: {p}");
    }
    if !report.correct() && report.problems.is_empty() {
        eprintln!(
            "perfbench: {} of {} requests failed or were wrong",
            report.failed, report.attempted
        );
    }
    if report.attempted == 0 {
        eprintln!("perfbench: no request was attempted");
        return ExitCode::from(1);
    }
    println!("{}", report.json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mix --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.name(), "serve-mix");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
