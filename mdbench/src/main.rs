//! Command-line entry point:
//!
//! ```text
//! mdbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints context lines, then one JSON result line on stdout.

use mdbench::run::{run, Options};
use mdbench::workload::{Workload, NAMES};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("mdbench: {problem}");
    eprintln!(
        "usage: mdbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name, tiny).ok_or(format!("unknown workload {name}"))?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    let report = run(&opts);
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.problems {
        println!("# FAILED {problem}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    if let Some((name, ..)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("mdbench: metric {name} is not finite");
        return ExitCode::FAILURE;
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
