//! `pwcet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an answer
//! differs from the oracle and 2 when the run cannot be made.

use std::process::ExitCode;

use pwcet_benchmark::{run, Options, WORKLOADS};

const USAGE: &str =
    "usage: pwcet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required ({WORKLOADS:?})"))?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Options::new(
        &workload,
        seed.unwrap_or(1),
        seconds,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("pwcet-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "pwcet-benchmark: {} (seed {}): {e}",
                options.workload, options.seed
            );
            return ExitCode::from(2);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<26} {value:>16.3} {unit}");
    }
    if !report.counts.is_empty() {
        let counts: Vec<String> = report
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("# exact counts per cycle: {}", counts.join(" "));
    }
    for detail in report.checker.details() {
        println!("# WRONG ANSWER: {detail}");
    }
    println!("{}", report.json());
    if report.wrong_answers() > 0 {
        eprintln!(
            "pwcet-benchmark: {} wrong answers in {} (seed {})",
            report.wrong_answers(),
            options.workload,
            options.seed
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
