//! One benchmark run of one workload: set-up, warm-up, the timed
//! segment, the output checks, and the metrics they yield.
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics. Traced
//! runs (`--trace 1`) install the decorators of [`crate::trace`],
//! alternate untraced and traced blocks of steps, and report the
//! per-layer metrics.

use crate::layers::{self, Snapshot};
use crate::stats::{median, quantile, repeat};
use crate::trace::{self, Gate, RankLog, Span, Timed, TracedPair};
use crate::workload::Workload;
use lammps_kk::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics and their units, in reporting order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("atom_steps_per_s", "atom-steps/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in reporting order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("neighbor.build_ms", "ms"),
    ("neighbor.bin_ms", "ms"),
    ("neighbor.pairs_per_atom", "count"),
    ("neighbor.useful_ratio", "ratio"),
    ("neighbor.steps_per_rebuild", "steps"),
    ("pair.compute_ms", "ms"),
    ("scatter.contribute_us", "us"),
    ("exec.dispatch_us", "us"),
    ("exec.reduce_us", "us"),
    ("exec.launches_per_step", "count"),
    ("profile.region_ns", "ns"),
    ("profile.region_ns_subscribed", "ns"),
    ("profile.regions_per_step", "count"),
    ("fix.integrate_ms", "ms"),
    ("comm.forward_ms", "ms"),
    ("comm.reverse_ms", "ms"),
    ("comm.borders_ms", "ms"),
    ("comm.allreduce_us", "us"),
    ("comm.bytes_per_step", "B"),
    ("comm.msgs_per_step", "count"),
    ("comm.atom_imbalance", "ratio"),
    ("sim.step_self_ms", "ms"),
    ("snap.setup_ms", "ms"),
    ("gpusim.predicted_step_us.h100", "us-predicted"),
    ("gpusim.flops_per_step", "flop-computed"),
    ("gpusim.bytes_per_step", "B-computed"),
    ("trace_overhead_pct", "%"),
];

/// A run sets up at least `SETUP_MIN_REPS` times and for at least
/// `SETUP_MIN_SECONDS`; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Steps per untraced/traced block of a traced run.
const BLOCK: u64 = 10;
/// Steps run with the event-counting subscriber attached.
const COUNT_STEPS: u64 = 20;
/// Relative tolerance of the set-up pair energy against `Space::Serial`.
const ENERGY_RTOL: f64 = 1e-10;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The outcome of one run: output-check tallies plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one checked run; it fails if `problems` is non-empty.
    fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric is declared in END_TO_END or PER_LAYER");
        self.metrics.push((name, value, unit));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Report {
    let w = &opts.workload;
    let mut report = Report::default();
    report.notes.push(format!(
        "workload={} seed={} atoms={} ranks={} space={} threads={} trace={}",
        w.name,
        opts.seed,
        w.natoms(),
        w.ranks,
        space_name(&w.space),
        Space::Threads.concurrency(),
        opts.trace as u8
    ));
    match (w.ranks > 1, opts.trace) {
        (false, false) => single_untraced(opts, &mut report),
        (false, true) => single_traced(opts, &mut report),
        (true, false) => brick_untraced(opts, &mut report),
        (true, true) => brick_traced(opts, &mut report),
    }
    report
}

fn space_name(space: &Space) -> &'static str {
    match space {
        Space::Serial => "Serial",
        Space::Threads => "Threads",
        Space::Device(_) => "Device",
    }
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/// Pair energy of the seeded initial state evaluated on `Space::Serial`
/// in a single rank: the reference every set-up is checked against.
fn serial_reference(w: &Workload, seed: u64) -> f64 {
    let mut sim = w.plain_simulation(seed, &Space::Serial);
    sim.setup();
    sim.last_results.energy
}

fn energy_problem(e: f64, e_ref: f64) -> Option<String> {
    let rel = (e - e_ref).abs() / e_ref.abs().max(f64::MIN_POSITIVE);
    (rel.is_nan() || rel > ENERGY_RTOL).then(|| {
        format!("set-up pair energy {e:e} differs from Space::Serial {e_ref:e} (rel {rel:e})")
    })
}

/// Count the timed segment as one run: `problems` found in its final
/// state, plus its relative NVE energy drift from `e0` to `e1` against
/// the workload's bound.
fn segment_check(report: &mut Report, w: &Workload, mut problems: Vec<String>, e0: f64, e1: f64) {
    let drift = (e1 - e0).abs() / e0.abs().max(f64::MIN_POSITIVE);
    if drift.is_nan() || drift > w.drift_bound {
        problems.push(format!(
            "NVE energy drift {drift:e} over the timed segment exceeds {:e}",
            w.drift_bound
        ));
    }
    report
        .notes
        .push(format!("relative energy drift {drift:.3e}"));
    report.check("timed segment", problems);
}

/// Non-finite owned x, v or f, and a census that is not `n`.
fn state_problems(atoms: &mut AtomData, n: usize) -> Vec<String> {
    atoms.sync(&Space::Serial, Mask::ALL);
    let mut out = Vec::new();
    if atoms.nlocal != n {
        out.push(format!("atom census {} != {n}", atoms.nlocal));
    }
    let (x, v, f) = (atoms.x.h_view(), atoms.v.h_view(), atoms.f.h_view());
    let bad = (0..atoms.nlocal)
        .filter(|&i| {
            (0..3).any(|k| {
                !(x.at([i, k]).is_finite() && v.at([i, k]).is_finite() && f.at([i, k]).is_finite())
            })
        })
        .count();
    if bad > 0 {
        out.push(format!("{bad} owned atoms carry non-finite x, v or f"));
    }
    out
}

/// The same checks on the gathered atoms of a multi-rank run.
fn run_state_problems(run: &MultiRankRun, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let owned: usize = run.owned_atoms.iter().sum();
    let tags_ok = run
        .states
        .iter()
        .enumerate()
        .all(|(i, s)| s.tag == i as i64 + 1);
    if owned != n || run.states.len() != n || !tags_ok {
        out.push(format!(
            "atom census: {owned} owned, {} gathered, tags 1..=N {}; expected {n}",
            run.states.len(),
            if tags_ok { "intact" } else { "broken" }
        ));
    }
    let bad = run
        .states
        .iter()
        .filter(|s| s.x.iter().chain(&s.v).chain(&s.f).any(|c| !c.is_finite()))
        .count();
    if bad > 0 {
        out.push(format!("{bad} atoms carry non-finite x, v or f"));
    }
    out
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

fn ms(d: Duration) -> f64 {
    1e3 * d.as_secs_f64()
}

/// CPU time the hypervisor took from this host (`steal` in
/// `/proc/stat`, all CPUs), in seconds; 0 where it is not reported.
fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Option<f64> = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok());
    // USER_HZ is 100 on every Linux ABI.
    ticks.unwrap_or(0.0) / 100.0
}

/// Context line: how much CPU time the host stole while the steps ran
/// (the timed segment; on `lj-brick2`, the whole driver run). Timings
/// of a run with heavy steal are not comparable to others.
fn steal_note(report: &mut Report, steal_s: f64, wall: Duration) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.notes.push(format!(
        "host steal while stepping: {:.1}% of {} CPUs",
        100.0 * steal_s / (cpus as f64 * wall.as_secs_f64()),
        cpus
    ));
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is present in /proc/self/status");
    kib / 1024.0
}

/// The end-to-end metrics of a timed segment of `step_ms.len()` steps
/// that took `wall`.
fn end_to_end(
    report: &mut Report,
    natoms: usize,
    step_ms: &[f64],
    wall: Duration,
    setup_s: &[f64],
) {
    report.notes.push(format!(
        "timed segment: {} steps in {:.3} s; set-up samples {}",
        step_ms.len(),
        wall.as_secs_f64(),
        setup_s.len()
    ));
    report.metric(
        "atom_steps_per_s",
        natoms as f64 * step_ms.len() as f64 / wall.as_secs_f64(),
    );
    report.metric("step_ms_p50", median(step_ms));
    report.metric("step_ms_p95", quantile(step_ms, 0.95));
    report.metric("setup_s", median(setup_s));
    report.metric("peak_rss_mb", peak_rss_mb());
}

/// Per-step sums of span self times for the traced steps that have a
/// `step` span.
#[derive(Debug, Default, Clone, Copy)]
struct StepLayers {
    has_step: bool,
    rebuild: bool,
    has_reverse: bool,
    step_self: f64,
    pair: f64,
    fix: f64,
    forward: f64,
    reverse: f64,
    borders: f64,
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// The span-derived per-layer metrics. `comm.borders_ms` and
/// `comm.reverse_ms` are medians over the traced steps that made the
/// call, and 0 where none did (a full list has no reverse exchange).
fn span_metrics(report: &mut Report, timed: &[Timed]) {
    let mut steps: BTreeMap<(usize, u64), StepLayers> = BTreeMap::new();
    let mut allreduce_us = Vec::new();
    for t in timed {
        let s = steps.entry((t.span.rank, t.span.step)).or_default();
        let self_ms = t.self_ns as f64 * 1e-6;
        match t.span.name {
            "step" => {
                s.has_step = true;
                s.step_self = self_ms;
            }
            "pair.compute" => s.pair += self_ms,
            "comm.forward" => s.forward += self_ms,
            "comm.reverse" => {
                s.reverse += self_ms;
                s.has_reverse = true;
            }
            "comm.borders" => {
                s.borders += self_ms;
                s.rebuild = true;
            }
            "comm.allreduce" => allreduce_us.push(t.self_ns as f64 * 1e-3),
            name if name.starts_with("fix.") => s.fix += self_ms,
            _ => {}
        }
    }
    let full: Vec<StepLayers> = steps.values().copied().filter(|s| s.has_step).collect();
    let col = |f: fn(&StepLayers) -> f64, keep: fn(&StepLayers) -> bool| {
        median_or_zero(&full.iter().filter(|s| keep(s)).map(f).collect::<Vec<_>>())
    };
    let rebuilds = full.iter().filter(|s| s.rebuild).count();
    report.notes.push(format!(
        "traced steps with spans: {} ({} rebuild)",
        full.len(),
        rebuilds
    ));
    report.metric("pair.compute_ms", col(|s| s.pair, |_| true));
    report.metric("fix.integrate_ms", col(|s| s.fix, |_| true));
    report.metric("comm.forward_ms", col(|s| s.forward, |_| true));
    report.metric("comm.borders_ms", col(|s| s.borders, |s| s.rebuild));
    report.metric("comm.reverse_ms", col(|s| s.reverse, |s| s.has_reverse));
    report.metric("comm.allreduce_us", median_or_zero(&allreduce_us));
    report.metric("sim.step_self_ms", col(|s| s.step_self, |s| !s.rebuild));
}

/// Replays and micro-timings on a snapshot of the workload's state.
fn snapshot_metrics(report: &mut Report, w: &Workload, snap: &Snapshot) {
    let replay = layers::neighbor_replay(w, snap);
    report.metric("neighbor.build_ms", replay.build_ms);
    report.metric("neighbor.bin_ms", replay.bin_ms);
    report.metric("neighbor.pairs_per_atom", replay.pairs_per_atom);
    report.metric("neighbor.useful_ratio", replay.useful_ratio);
    report.metric(
        "scatter.contribute_us",
        layers::scatter_contribute_us(&w.space, replay.nall),
    );
    let (for_us, reduce_us) = layers::dispatch_us(&w.space, w.natoms() / w.ranks);
    report.metric("exec.dispatch_us", for_us);
    report.metric("exec.reduce_us", reduce_us);
    let (region, region_sub) = layers::region_ns();
    report.metric("profile.region_ns", region);
    report.metric("profile.region_ns_subscribed", region_sub);
    report.metric("snap.setup_ms", layers::snap_setup_ms(&w.space));
    let dev = layers::device_prediction(w, snap, 3);
    report.metric("gpusim.predicted_step_us.h100", dev.step_us);
    report.metric("gpusim.flops_per_step", dev.flops_per_step);
    report.metric("gpusim.bytes_per_step", dev.dram_bytes_per_step);
}

fn comm_metrics(report: &mut Report, stats: &CommStats, steps: u64, imbalance: f64) {
    let bytes = stats.halo_bytes() + stats.border_bytes + stats.migrate_bytes;
    let msgs = stats.halo_msgs() + stats.border_msgs + stats.migrate_msgs;
    report.metric("comm.bytes_per_step", bytes as f64 / steps as f64);
    report.metric("comm.msgs_per_step", msgs as f64 / steps as f64);
    report.metric("comm.atom_imbalance", imbalance);
}

fn overhead_metric(report: &mut Report, untraced_ms: &[f64], traced_ms: &[f64]) {
    report.notes.push(format!(
        "overhead samples: {} untraced, {} traced",
        untraced_ms.len(),
        traced_ms.len()
    ));
    report.metric(
        "trace_overhead_pct",
        100.0 * (median(traced_ms) / median(untraced_ms) - 1.0),
    );
}

fn write_span_log(opts: &Options, timed: &[Timed]) {
    let path = std::path::PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-spans.tsv",
        opts.workload.name, opts.seed
    ));
    let header = format!("workload={} seed={}", opts.workload.name, opts.seed);
    if let Err(e) = trace::write_spans(&path, &header, timed) {
        eprintln!("mdbench: could not write {}: {e}", path.display());
    }
}

/// Blocks of `BLOCK` steps in a traced segment: an even number, with
/// both the untraced and the traced half holding `min_samples` steps.
fn traced_blocks(w: &Workload, seconds: f64) -> u64 {
    let steps = w.timed_steps(seconds).max(2 * w.min_samples);
    2 * steps.div_ceil(2 * BLOCK)
}

// ---------------------------------------------------------------------
// Single rank: the benchmark owns the loop and times each run(1)
// ---------------------------------------------------------------------

/// Build, set up and check repeatedly; keep the last simulation.
fn single_setup(opts: &Options, report: &mut Report) -> (Simulation, Vec<f64>) {
    let w = &opts.workload;
    let e_ref = serial_reference(w, opts.seed);
    let mut kept: Option<Simulation> = None;
    let setup_s = repeat(SETUP_MIN_REPS, SETUP_MIN_SECONDS, || {
        drop(kept.take());
        let t = Instant::now();
        let mut sim = w.plain_simulation(opts.seed, &w.space);
        sim.setup();
        let seconds = t.elapsed().as_secs_f64();
        let mut problems = state_problems(&mut sim.system.atoms, w.natoms());
        problems.extend(energy_problem(sim.last_results.energy, e_ref));
        report.check("set-up", problems);
        kept = Some(sim);
        seconds
    });
    (kept.expect("at least one set-up"), setup_s)
}

fn single_untraced(opts: &Options, report: &mut Report) {
    let w = &opts.workload;
    let (mut sim, setup_s) = single_setup(opts, report);
    sim.run(w.warmup);
    let e0 = sim.total_energy();
    let steps = w.timed_steps(opts.seconds);
    let mut step_ms = Vec::new();
    let steal0 = host_steal_s();
    let start = Instant::now();
    for _ in 0..steps {
        let t = Instant::now();
        sim.run(1);
        step_ms.push(ms(t.elapsed()));
    }
    let wall = start.elapsed();
    steal_note(report, host_steal_s() - steal0, wall);
    let e1 = sim.total_energy();
    let problems = state_problems(&mut sim.system.atoms, w.natoms());
    segment_check(report, w, problems, e0, e1);
    end_to_end(report, w.natoms(), &step_ms, wall, &setup_s);
}

fn single_traced(opts: &Options, report: &mut Report) {
    let w = &opts.workload;
    let e_ref = serial_reference(w, opts.seed);
    let gate = Gate::Blocks {
        warmup: w.warmup,
        len: BLOCK,
    };
    let log = RankLog::new(0, Instant::now(), gate, false);
    let (atoms, domain) = w.initial_atoms(opts.seed);
    let (pair, fixes, comm) = trace::decorate(
        w.pair(&w.space),
        vec![Box::new(FixNve)],
        Box::new(SingleRankComm),
        &log,
    );
    let mut sim = w.simulation(atoms, domain, w.space.clone(), pair, fixes, comm);
    sim.setup();
    let mut problems = state_problems(&mut sim.system.atoms, w.natoms());
    problems.extend(energy_problem(sim.last_results.energy, e_ref));
    report.check("set-up", problems);
    sim.run(w.warmup);
    let e0 = sim.total_energy();

    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for _ in 0..BLOCK * traced_blocks(w, opts.seconds) {
        let t = Instant::now();
        sim.run(1);
        let end = Instant::now();
        if log.traced_step(sim.step) {
            log.push("step", log.ns_of(t), log.ns_of(end));
            traced_ms.push(ms(end - t));
        } else {
            untraced_ms.push(ms(end - t));
        }
    }
    let e1 = sim.total_energy();
    let problems = state_problems(&mut sim.system.atoms, w.natoms());
    segment_check(report, w, problems, e0, e1);

    let timed = trace::self_times(&log.spans());
    overhead_metric(report, &untraced_ms, &traced_ms);
    report.metric(
        "neighbor.steps_per_rebuild",
        sim.step as f64 / (sim.rebuild_count - 1).max(1) as f64,
    );
    comm_metrics(report, &sim.comm_stats(), sim.step, 1.0);
    let (launches, regions) = layers::count_events(|| sim.run(COUNT_STEPS));
    report.metric(
        "exec.launches_per_step",
        launches as f64 / COUNT_STEPS as f64,
    );
    report.metric(
        "profile.regions_per_step",
        regions as f64 / COUNT_STEPS as f64,
    );
    let snap = Snapshot::of_sim(&mut sim);
    drop(sim);
    span_metrics(report, &timed);
    snapshot_metrics(report, w, &snap);
    write_span_log(opts, &timed);
}

// ---------------------------------------------------------------------
// Multi-rank: RunSpec::run owns the loop; rank 0's pair wrapper stamps
// the step clock
// ---------------------------------------------------------------------

/// Run the brick driver with optional per-rank logs: a rank with a log
/// gets a stamping pair wrapper, and with `decorate_all` all three
/// decorators.
pub fn brick_run(
    w: &Workload,
    spec: &RunSpec,
    logs: &[Arc<RankLog>],
    decorate_all: bool,
    thermo_every: usize,
) -> MultiRankRun {
    spec.run(|rank, mut system| {
        let space = system.space.clone();
        let mut comm = system.comm.take().expect("the driver installs a comm");
        let mut pair = w.pair(&space);
        let mut fixes: Vec<Box<dyn Fix>> = vec![Box::new(FixNve)];
        if let Some(log) = logs.get(rank) {
            if decorate_all {
                (pair, fixes, comm) = trace::decorate(pair, fixes, comm, log);
            } else {
                pair = Box::new(TracedPair::new(pair, Arc::clone(log)));
            }
        }
        let mut sim = Simulation::new(system.with_comm(comm), pair);
        sim.fixes = fixes;
        sim.dt = w.dt();
        sim.thermo_every = thermo_every;
        sim
    })
    .unwrap_or_else(|e| panic!("fault-free brick run failed: {e}"))
}

/// Rank-0 step logs: rank 0 stamps every pair entry.
fn stamp_logs(w: &Workload, origin: Instant, gate: Gate) -> Vec<Arc<RankLog>> {
    (0..w.ranks)
        .map(|r| RankLog::new(r, origin, gate, r == 0))
        .collect()
}

/// Time zero-step driver runs (construction, partition, set-up and
/// gather) and check each.
fn brick_setup(opts: &Options, report: &mut Report) -> (Vec<f64>, f64) {
    let w = &opts.workload;
    let e_ref = serial_reference(w, opts.seed);
    let setup_s = repeat(SETUP_MIN_REPS, SETUP_MIN_SECONDS, || {
        let t = Instant::now();
        let spec = w.run_spec(opts.seed, 0, 0);
        let run = brick_run(w, &spec, &[], false, 0);
        let seconds = t.elapsed().as_secs_f64();
        let mut problems = run_state_problems(&run, w.natoms());
        problems.extend(energy_problem(run.e_pair, e_ref));
        report.check("set-up", problems);
        seconds
    });
    (setup_s, e_ref)
}

/// Energy at the end of warm-up (sum of the ranks' thermo rows at
/// `step`) and at the end of the run.
fn brick_energies(run: &MultiRankRun, step: u64) -> (f64, f64) {
    let e0 = run
        .thermo
        .iter()
        .map(|rows| {
            rows.iter()
                .find(|r| r.step == step)
                .expect("a thermo row at the end of warm-up")
                .e_total
        })
        .sum();
    (e0, run.e_pair + run.e_kinetic)
}

fn brick_checks(w: &Workload, run: &MultiRankRun, e_ref: f64, report: &mut Report) {
    let mut problems = run_state_problems(run, w.natoms());
    let e_first: f64 = run.thermo.iter().map(|rows| rows[0].e_pair).sum();
    problems.extend(energy_problem(e_first, e_ref));
    let (e0, e1) = brick_energies(run, w.warmup);
    segment_check(report, w, problems, e0, e1);
}

/// Rank-0 pair-entry intervals of the timed steps: `(step, ms)`, where
/// interval `c → c+1` is attributed to step `c + 1`.
fn step_intervals(entries: &[u64], warmup: u64) -> Vec<(u64, f64)> {
    entries
        .windows(2)
        .enumerate()
        .skip(warmup as usize)
        .map(|(c, pair)| (c as u64 + 1, (pair[1] - pair[0]) as f64 * 1e-6))
        .collect()
}

fn brick_untraced(opts: &Options, report: &mut Report) {
    let w = &opts.workload;
    let (setup_s, e_ref) = brick_setup(opts, report);
    let steps = w.timed_steps(opts.seconds);
    let logs = stamp_logs(w, Instant::now(), Gate::Off);
    let spec = w.run_spec(opts.seed, w.warmup, steps);
    let (steal0, start) = (host_steal_s(), Instant::now());
    let run = brick_run(w, &spec, &logs, false, w.warmup as usize);
    steal_note(report, host_steal_s() - steal0, start.elapsed());
    brick_checks(w, &run, e_ref, report);
    let entries = logs[0].pair_entries();
    let step_ms: Vec<f64> = step_intervals(&entries, w.warmup)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let wall = Duration::from_nanos(entries[entries.len() - 1] - entries[w.warmup as usize]);
    end_to_end(report, w.natoms(), &step_ms, wall, &setup_s);
}

fn brick_traced(opts: &Options, report: &mut Report) {
    let w = &opts.workload;
    let e_ref = serial_reference(w, opts.seed);
    let steps = BLOCK * traced_blocks(w, opts.seconds);
    let gate = Gate::Blocks {
        warmup: w.warmup,
        len: BLOCK,
    };
    let logs = stamp_logs(w, Instant::now(), gate);
    let spec = w.run_spec(opts.seed, w.warmup, steps);
    let run = brick_run(w, &spec, &logs, true, w.warmup as usize);
    brick_checks(w, &run, e_ref, report);

    // Step spans from each rank's initial_integrate entries.
    let mut spans: Vec<Span> = Vec::new();
    for log in &logs {
        spans.extend(log.spans());
        let entries = log.step_entries();
        for pair in entries.windows(2) {
            let ((s, t0), (_, t1)) = (pair[0], pair[1]);
            if log.traced_step(s) {
                spans.push(Span {
                    name: "step",
                    rank: log.rank,
                    step: s,
                    start_ns: t0,
                    end_ns: t1,
                });
            }
        }
    }
    let timed = trace::self_times(&spans);

    let log0 = &logs[0];
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for (step, t) in step_intervals(&log0.pair_entries(), w.warmup) {
        // Skip intervals that straddle a block boundary.
        if step > w.warmup + 1 && log0.traced_step(step) != log0.traced_step(step - 1) {
            continue;
        }
        if log0.traced_step(step) {
            traced_ms.push(t);
        } else {
            untraced_ms.push(t);
        }
    }
    overhead_metric(report, &untraced_ms, &traced_ms);
    let total_steps = w.warmup + steps;
    report.metric(
        "neighbor.steps_per_rebuild",
        total_steps as f64 / (run.rebuild_counts[0] - 1).max(1) as f64,
    );
    comm_metrics(report, &run.comm_stats, total_steps, run.atom_imbalance());

    // Launch and region counts: an n-step run minus a zero-step run,
    // per rank-step.
    let counted = |n: u64| {
        let spec = w.run_spec(opts.seed, 0, n);
        layers::count_events(|| {
            brick_run(w, &spec, &[], false, 0);
        })
    };
    let (l0, r0) = counted(0);
    let (l1, r1) = counted(COUNT_STEPS);
    let per = |a: u64, b: u64| (b - a) as f64 / (COUNT_STEPS * w.ranks as u64) as f64;
    report.metric("exec.launches_per_step", per(l0, l1));
    report.metric("profile.regions_per_step", per(r0, r1));

    let (atoms, domain) = w.initial_atoms(opts.seed);
    let snap = Snapshot::of_run(&run, &atoms.mass, domain);
    drop(run);
    span_metrics(report, &timed);
    snapshot_metrics(report, w, &snap);
    write_span_log(opts, &timed);
}
