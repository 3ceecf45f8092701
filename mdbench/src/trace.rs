//! Timing decorators over the public `PairStyle`, `Fix` and `Comm`
//! traits, the in-memory span log they write, and its reduction to
//! self times.
//!
//! The decorators delegate every trait method, defaulted ones
//! included, so a decorated simulation runs the same arithmetic as an
//! undecorated one; they only read the clock around the calls. Nothing
//! inside the program is instrumented.

use lammps_kk::prelude::*;
use std::any::Any;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: name, start and end (ns since the log's origin),
/// the step it belongs to, and the rank that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// When a rank records spans.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// Never; the log only stamps pair entries.
    Off,
    /// After `warmup` steps, alternate blocks of `len` steps:
    /// untraced, traced, untraced, ... Keyed to the rank's own step
    /// count, so every rank of a multi-rank run agrees without talking.
    Blocks { warmup: u64, len: u64 },
}

/// Per-rank span log, shared by that rank's decorators. A rank runs on
/// one thread, so the locks are never contended.
pub struct RankLog {
    pub rank: usize,
    origin: Instant,
    gate: Gate,
    /// Steps started on this rank (bumped by `Fix::initial_integrate`).
    step: AtomicU64,
    stamp_pair: bool,
    spans: Mutex<Vec<Span>>,
    /// Entry time of every `PairStyle::compute` call (when stamping).
    pair_entries: Mutex<Vec<u64>>,
    /// `(step, entry time)` of every `Fix::initial_integrate` call.
    step_entries: Mutex<Vec<(u64, u64)>>,
}

impl RankLog {
    pub fn new(rank: usize, origin: Instant, gate: Gate, stamp_pair: bool) -> Arc<RankLog> {
        Arc::new(RankLog {
            rank,
            origin,
            gate,
            step: AtomicU64::new(0),
            stamp_pair,
            spans: Mutex::new(Vec::new()),
            pair_entries: Mutex::new(Vec::new()),
            step_entries: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Is `step` recorded under this log's gate?
    pub fn traced_step(&self, step: u64) -> bool {
        match self.gate {
            Gate::Off => false,
            Gate::Blocks { warmup, len } => step > warmup && ((step - warmup - 1) / len) % 2 == 1,
        }
    }

    fn on(&self) -> bool {
        self.traced_step(self.step.load(Ordering::Relaxed))
    }

    fn begin_step(&self) {
        let step = self.step.fetch_add(1, Ordering::Relaxed) + 1;
        if matches!(self.gate, Gate::Blocks { .. }) {
            let t = self.now_ns();
            lock(&self.step_entries).push((step, t));
        }
    }

    /// Record `[start_ns, end_ns)` as a span of the current step.
    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let step = self.step.load(Ordering::Relaxed);
        lock(&self.spans).push(Span {
            name,
            rank: self.rank,
            step,
            start_ns,
            end_ns,
        });
    }

    /// Run `f`, recording it as `name` if the current step is traced.
    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end);
        out
    }

    /// Nanoseconds since the origin of `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }

    pub fn pair_entries(&self) -> Vec<u64> {
        lock(&self.pair_entries).clone()
    }

    pub fn step_entries(&self) -> Vec<(u64, u64)> {
        lock(&self.step_entries).clone()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a rank thread panicked while holding its span log")
}

/// `PairStyle` decorator: times `compute` and, when asked, stamps its
/// entry (the step clock of multi-rank runs).
pub struct TracedPair {
    inner: Box<dyn PairStyle>,
    log: Arc<RankLog>,
}

impl TracedPair {
    pub fn new(inner: Box<dyn PairStyle>, log: Arc<RankLog>) -> TracedPair {
        TracedPair { inner, log }
    }
}

impl PairStyle for TracedPair {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn set_name(&mut self, name: &str) {
        self.inner.set_name(name)
    }
    fn cutoff(&self) -> f64 {
        self.inner.cutoff()
    }
    fn wants_half_list(&self) -> bool {
        self.inner.wants_half_list()
    }
    fn needs_reverse_comm(&self) -> bool {
        self.inner.needs_reverse_comm()
    }
    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        if self.log.stamp_pair {
            let t = self.log.now_ns();
            lock(&self.log.pair_entries).push(t);
        }
        let inner = &mut self.inner;
        self.log
            .timed("pair.compute", || inner.compute(system, list, eflag))
    }
    fn scatter_grow_count(&self) -> u64 {
        self.inner.scatter_grow_count()
    }
}

/// `Fix` decorator: times the three integration hooks and advances the
/// rank's step counter at `initial_integrate`, the first call of a step.
pub struct TracedFix {
    inner: Box<dyn Fix>,
    log: Arc<RankLog>,
}

impl TracedFix {
    pub fn new(inner: Box<dyn Fix>, log: Arc<RankLog>) -> TracedFix {
        TracedFix { inner, log }
    }
}

impl Fix for TracedFix {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn initial_integrate(&mut self, system: &mut System, dt: f64) {
        self.log.begin_step();
        let inner = &mut self.inner;
        self.log.timed("fix.initial_integrate", || {
            inner.initial_integrate(system, dt)
        })
    }
    fn post_force(&mut self, system: &mut System, dt: f64, step: u64) {
        let inner = &mut self.inner;
        self.log
            .timed("fix.post_force", || inner.post_force(system, dt, step))
    }
    fn final_integrate(&mut self, system: &mut System, dt: f64) {
        let inner = &mut self.inner;
        self.log
            .timed("fix.final_integrate", || inner.final_integrate(system, dt))
    }
}

/// `Comm` decorator: times every exchange and collective.
pub struct TracedComm {
    inner: Box<dyn Comm>,
    log: Arc<RankLog>,
}

impl TracedComm {
    pub fn new(inner: Box<dyn Comm>, log: Arc<RankLog>) -> TracedComm {
        TracedComm { inner, log }
    }
}

impl Comm for TracedComm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn borders(&mut self, system: &mut System, cutghost: f64) -> Result<(), CommError> {
        let inner = &mut self.inner;
        self.log
            .timed("comm.borders", || inner.borders(system, cutghost))
    }
    fn forward(&mut self, system: &mut System) -> Result<(), CommError> {
        let inner = &mut self.inner;
        self.log.timed("comm.forward", || inner.forward(system))
    }
    fn reverse(&mut self, system: &mut System) -> Result<(), CommError> {
        let inner = &mut self.inner;
        self.log.timed("comm.reverse", || inner.reverse(system))
    }
    fn forward_scalar(&mut self, system: &mut System, values: &mut [f64]) -> Result<(), CommError> {
        let inner = &mut self.inner;
        self.log.timed("comm.forward_scalar", || {
            inner.forward_scalar(system, values)
        })
    }
    fn allreduce_or(&mut self, flag: bool) -> Result<bool, CommError> {
        let inner = &mut self.inner;
        self.log
            .timed("comm.allreduce", || inner.allreduce_or(flag))
    }
    fn allreduce_sum(&mut self, value: f64) -> Result<f64, CommError> {
        let inner = &mut self.inner;
        self.log
            .timed("comm.allreduce", || inner.allreduce_sum(value))
    }
    fn quiesce(&mut self) -> Result<(), CommError> {
        let inner = &mut self.inner;
        self.log.timed("comm.quiesce", || inner.quiesce())
    }
    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn grow_count(&self) -> u64 {
        self.inner.grow_count()
    }
    fn phase_seconds(&self) -> [f64; 2] {
        self.inner.phase_seconds()
    }
    fn note_work(&mut self, seconds: f64) {
        self.inner.note_work(seconds)
    }
    fn max_owned(&self) -> usize {
        self.inner.max_owned()
    }
}

/// The pair style, fixes and comm layer a rank's simulation is built from.
pub type Parts = (Box<dyn PairStyle>, Vec<Box<dyn Fix>>, Box<dyn Comm>);

/// Install the three decorators on a rank's parts.
pub fn decorate(
    pair: Box<dyn PairStyle>,
    fixes: Vec<Box<dyn Fix>>,
    comm: Box<dyn Comm>,
    log: &Arc<RankLog>,
) -> Parts {
    let fixes = fixes
        .into_iter()
        .map(|f| Box::new(TracedFix::new(f, Arc::clone(log))) as Box<dyn Fix>)
        .collect();
    (
        Box::new(TracedPair::new(pair, Arc::clone(log))),
        fixes,
        Box::new(TracedComm::new(comm, Arc::clone(log))),
    )
}

/// A span with its self time: its duration minus the part of it that
/// its direct children cover.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub span: Span,
    pub self_ns: u64,
}

/// Reduce spans to self times. Spans of one rank come from one thread,
/// so they nest properly; a span's parent is the innermost span that
/// contains it.
pub fn self_times(spans: &[Span]) -> Vec<Timed> {
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| (s.rank, s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut out: Vec<Timed> = sorted
        .iter()
        .map(|&span| Timed {
            span,
            self_ns: span.dur_ns(),
        })
        .collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..out.len() {
        let s = out[i].span;
        while let Some(&top) = stack.last() {
            let t = out[top].span;
            if t.rank != s.rank || t.end_ns <= s.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            out[parent].self_ns = out[parent].self_ns.saturating_sub(s.dur_ns());
        }
        stack.push(i);
    }
    out
}

/// Write the span log as tab-separated rows (one per span, with its
/// self time) under `path`, headed by the run's identity.
pub fn write_spans(path: &std::path::Path, header: &str, timed: &[Timed]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {header}")?;
    writeln!(w, "rank\tstep\tname\tstart_ns\tend_ns\tself_ns")?;
    for t in timed {
        let s = t.span;
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.rank, s.step, s.name, s.start_ns, s.end_ns, t.self_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            rank: 0,
            step: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("step", 0, 100),
            span("pair.compute", 10, 60),
            span("comm.forward_scalar", 20, 30),
            span("fix.final_integrate", 70, 80),
        ];
        let timed = self_times(&spans);
        let get = |n: &str| timed.iter().find(|t| t.span.name == n).unwrap().self_ns;
        assert_eq!(get("step"), 100 - 50 - 10);
        assert_eq!(get("pair.compute"), 50 - 10);
        assert_eq!(get("comm.forward_scalar"), 10);
        assert_eq!(get("fix.final_integrate"), 10);
    }

    #[test]
    fn block_gate_alternates_after_warmup() {
        let log = RankLog::new(0, Instant::now(), Gate::Blocks { warmup: 4, len: 2 }, false);
        let traced: Vec<bool> = (1..=12).map(|s| log.traced_step(s)).collect();
        let want = [
            false, false, false, false, false, false, true, true, false, false, true, true,
        ];
        assert_eq!(traced, want);
    }
}
