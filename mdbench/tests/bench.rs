//! The benchmark's own tests: the decorators measure the same program
//! (bitwise-identical trajectories), and a smoke run of every workload
//! prints every metric `BENCHMARK.json` names, with its unit.

// Span logs are keyed to the wall clock, as in the benchmark itself.
#![allow(clippy::disallowed_methods)]

use lammps_kk::prelude::*;
use mdbench::run::{brick_run, END_TO_END, PER_LAYER};
use mdbench::trace::{self, Gate, RankLog};
use mdbench::workload::{Workload, NAMES};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 4242;
const STEPS: u64 = 30;

/// Record every other pair of steps, so the comparison covers both
/// recording and pass-through calls.
const GATE: Gate = Gate::Blocks { warmup: 0, len: 2 };

fn bits(x: [f64; 3]) -> [u64; 3] {
    x.map(f64::to_bits)
}

/// Final `(tag, position bits)` of a short single-rank segment.
fn single_positions(w: &Workload, log: Option<&Arc<RankLog>>) -> Vec<(i64, [u64; 3])> {
    let (atoms, domain) = w.initial_atoms(SEED);
    let pair = w.pair(&w.space);
    let fixes: Vec<Box<dyn Fix>> = vec![Box::new(FixNve)];
    let comm: Box<dyn Comm> = Box::new(SingleRankComm);
    let (pair, fixes, comm) = match log {
        Some(log) => trace::decorate(pair, fixes, comm, log),
        None => (pair, fixes, comm),
    };
    let mut sim = w.simulation(atoms, domain, w.space.clone(), pair, fixes, comm);
    sim.run(STEPS);
    sim.system.atoms.sync(&Space::Serial, Mask::ALL);
    let a = &sim.system.atoms;
    let mut out: Vec<(i64, [u64; 3])> = (0..a.nlocal)
        .map(|i| (a.tag.h_view().at([i]), bits(a.pos(i))))
        .collect();
    out.sort_by_key(|(tag, _)| *tag);
    out
}

#[test]
fn decorated_lj_2k_full_matches_undecorated_bitwise() {
    let w = Workload::by_name("lj-2k-full", false).unwrap();
    let log = RankLog::new(0, Instant::now(), GATE, true);
    let plain = single_positions(&w, None);
    let decorated = single_positions(&w, Some(&log));
    assert_eq!(plain.len(), w.natoms());
    assert!(plain == decorated, "decorators changed the trajectory");
    assert!(
        !log.spans().is_empty(),
        "the decorated run recorded no spans"
    );
    assert_eq!(log.pair_entries().len() as u64, STEPS + 1);
}

#[test]
fn decorated_lj_brick2_matches_undecorated_bitwise() {
    let w = Workload::by_name("lj-brick2", false).unwrap();
    let spec = w.run_spec(SEED, 0, STEPS);
    let plain = brick_run(&w, &spec, &[], false, 0);
    let origin = Instant::now();
    let logs: Vec<Arc<RankLog>> = (0..w.ranks)
        .map(|r| RankLog::new(r, origin, GATE, r == 0))
        .collect();
    let decorated = brick_run(&w, &spec, &logs, true, 0);
    let positions = |run: &MultiRankRun| -> Vec<(i64, [u64; 3])> {
        run.states.iter().map(|s| (s.tag, bits(s.x))).collect()
    };
    assert_eq!(plain.states.len(), w.natoms());
    assert!(
        positions(&plain) == positions(&decorated),
        "decorators changed the trajectory"
    );
    for log in &logs {
        let spans = log.spans();
        assert!(spans.iter().any(|s| s.name == "comm.forward"));
        assert!(spans.iter().any(|s| s.name == "fix.initial_integrate"));
    }
}

/// The value of `name` in a result line, checking its unit.
fn metric_value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"))
        + key.len();
    let rest = &line[start..];
    let end = rest.find(',').expect("a unit follows the value");
    let value: f64 = rest[..end].parse().expect("a JSON number");
    let unit_field = format!(", \"unit\": \"{unit}\"}}");
    assert!(
        rest[end..].starts_with(&unit_field),
        "metric {name} lacks unit {unit}"
    );
    value
}

fn smoke(workload: &str, trace: &str, expected: &[(&str, &str)]) {
    let out = Command::new(env!("CARGO_BIN_EXE_mdbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}"
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {line}"
    );
    assert!(
        line.contains(", \"failed\": 0, \"metrics\": {"),
        "{workload}: {line}"
    );
    assert_eq!(
        line.matches("\"value\": ").count(),
        expected.len(),
        "{line}"
    );
    for (name, unit) in expected {
        let v = metric_value(line, name, unit);
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
    for (name, unit) in expected {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name) && l.ends_with(unit)),
            "{workload}: no table row for {name}"
        );
    }
}

#[test]
fn smoke_run_prints_every_metric_with_its_unit() {
    for workload in NAMES {
        smoke(workload, "0", &END_TO_END);
        smoke(workload, "1", &PER_LAYER);
    }
}

#[test]
fn benchmark_json_names_runnable_workloads_and_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<&str> = NAMES
        .into_iter()
        .filter(|name| json.contains(&format!("\"name\": \"{name}\", \"why\"")))
        .collect();
    assert!(workloads.len() >= 2, "{workloads:?}");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}]"
        );
    }
    // Every named entry is one of the above: no unknown workload or metric.
    let declared = workloads.len() + END_TO_END.len() + PER_LAYER.len();
    assert_eq!(json.matches("\"name\":").count(), declared);
}
