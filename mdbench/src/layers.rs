//! Measurements of single layers taken from outside the timestep loop:
//! replays of public functions on a snapshot of a workload's state,
//! micro-timings of the dispatch, scatter and profiling layers, an
//! event-counting profile subscriber, and the simulated device's
//! predicted step time.

use crate::stats::{median, median_seconds};
use crate::workload::Workload;
use lammps_kk::core::neighbor::Bins;
use lammps_kk::gpusim::{GpuArch, ProfileSubscriber};
use lammps_kk::kokkos::{profile, ScatterView};
use lammps_kk::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The owned atoms of a workload at one instant, enough to rebuild its
/// state in a fresh single-rank system.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub records: Vec<AtomRecord>,
    pub masses: Vec<f64>,
    pub domain: Domain,
}

impl Snapshot {
    /// Capture the owned atoms of a single-rank simulation.
    pub fn of_sim(sim: &mut Simulation) -> Snapshot {
        let atoms = &mut sim.system.atoms;
        atoms.sync(&Space::Serial, Mask::ALL);
        Snapshot {
            records: (0..atoms.nlocal).map(|i| atoms.record(i)).collect(),
            masses: atoms.mass.clone(),
            domain: sim.system.domain,
        }
    }

    /// Capture the gathered final state of a multi-rank run.
    pub fn of_run(run: &MultiRankRun, masses: &[f64], domain: Domain) -> Snapshot {
        let records = run
            .states
            .iter()
            .map(|s| AtomRecord {
                tag: s.tag,
                typ: s.typ,
                q: 0.0,
                x: s.x,
                v: s.v,
                image: [0; 3],
            })
            .collect();
        Snapshot {
            records,
            masses: masses.to_vec(),
            domain,
        }
    }

    pub fn atoms(&self) -> AtomData {
        AtomData::from_records(&self.records, &self.masses)
    }
}

/// Neighbor-layer figures from a replay on a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct NeighborReplay {
    /// Median `NeighborList::rebuild` wall time.
    pub build_ms: f64,
    /// Median `Bins::rebuild` wall time.
    pub bin_ms: f64,
    /// Listed pairs per owned atom.
    pub pairs_per_atom: f64,
    /// Listed pairs inside the force cutoff ÷ listed pairs.
    pub useful_ratio: f64,
    pub nlocal: usize,
    pub nall: usize,
}

/// Rebuild the snapshot's ghosts and neighbor list on the workload's
/// space, then time `NeighborList::rebuild` and `Bins::rebuild` on it.
pub fn neighbor_replay(w: &Workload, snap: &Snapshot) -> NeighborReplay {
    let pair = w.pair(&w.space);
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, pair.wants_half_list());
    let mut system = System::new(snap.atoms(), snap.domain, w.space.clone()).with_units(w.units());
    system
        .with_comm_taken(|s, c| c.borders(s, settings.cutneigh()))
        .expect("single-rank borders cannot fail");
    system.atoms.modified(&Space::Serial, Mask::ALL);
    system.atoms.sync(&w.space, Mask::X | Mask::TYPE);
    let (space, cutoff, cutneigh) = (&w.space, settings.cutoff, settings.cutneigh());
    let (atoms, domain) = (&system.atoms, &system.domain);

    let mut list = NeighborList::build(atoms, domain, &settings, space);
    let build_ms = 1e3 * median_seconds(5, 0.5, || list.rebuild(atoms, domain, &settings, space));
    let mut bins = Bins::build(atoms, domain, cutneigh, cutneigh);
    let bin_ms = 1e3 * median_seconds(20, 0.2, || bins.rebuild(atoms, domain, cutneigh, cutneigh));

    let x = atoms.x.h_view();
    let cutsq = cutoff * cutoff;
    let mut inside = 0u64;
    for i in 0..list.nlocal {
        let xi = x.get3(i);
        for s in 0..list.numneigh.at([i]) as usize {
            let xj = x.get3(list.neighbors.at([i, s]) as usize);
            let rsq: f64 = (0..3).map(|k| (xi[k] - xj[k]).powi(2)).sum();
            inside += (rsq < cutsq) as u64;
        }
    }
    NeighborReplay {
        build_ms,
        bin_ms,
        pairs_per_atom: list.total_pairs as f64 / list.nlocal.max(1) as f64,
        useful_ratio: inside as f64 / list.total_pairs.max(1) as f64,
        nlocal: atoms.nlocal,
        nall: atoms.nall(),
    }
}

/// Median µs of one `ScatterView` pass at `nall` rows in the scatter
/// mode of `space`: three `add`s per row from a `parallel_for`, then
/// `contribute_into`.
pub fn scatter_contribute_us(space: &Space, nall: usize) -> f64 {
    let mut scatter = ScatterView::for_space(nall, 3, space);
    let mut out = vec![0.0f64; 3 * nall];
    let seconds = median_seconds(20, 0.2, || {
        let sv = &scatter;
        space.parallel_for("bench.scatter", nall, |i| {
            sv.add(i, 0, 1.0);
            sv.add(i, 1, -1.0);
            sv.add(i, 2, 0.5);
        });
        scatter.contribute_into(&mut out);
    });
    black_box(&out);
    1e6 * seconds
}

/// Median µs of an empty-body `parallel_for` and `parallel_reduce` at
/// `n` items on `space`.
pub fn dispatch_us(space: &Space, n: usize) -> (f64, f64) {
    let for_s = median_seconds(200, 0.1, || {
        space.parallel_for("bench.empty", n, |i| {
            black_box(i);
        })
    });
    let reduce_s = median_seconds(200, 0.1, || {
        black_box(space.parallel_reduce("bench.empty", n, 0.0f64, |_| 0.0, |a, b| a + b));
    });
    (1e6 * for_s, 1e6 * reduce_s)
}

/// A subscriber that overrides nothing: the cheapest listener.
struct Noop;
impl ProfileSubscriber for Noop {}

/// Median ns of one `profile::begin_region` + `RegionGuard::finish`,
/// with no subscriber and with one no-op subscriber registered.
pub fn region_ns() -> (f64, f64) {
    const BATCH: usize = 2000;
    let per_call = || {
        let samples: Vec<f64> = (0..40)
            .map(|_| {
                let t = std::time::Instant::now();
                for _ in 0..BATCH {
                    black_box(profile::begin_region("bench").finish());
                }
                1e9 * t.elapsed().as_secs_f64() / BATCH as f64
            })
            .collect();
        median(&samples)
    };
    let plain = per_call();
    let id = profile::register_subscriber(Arc::new(Noop));
    let subscribed = per_call();
    profile::unregister_subscriber(id);
    (plain, subscribed)
}

/// Counts kernel launches and region entries on the global event stream.
#[derive(Default)]
struct EventCounter {
    launches: AtomicU64,
    regions: AtomicU64,
}

impl ProfileSubscriber for EventCounter {
    fn region_begin(&self, _path: &str, _depth: usize) {
        self.regions.fetch_add(1, Ordering::Relaxed);
    }
    fn kernel_launch(&self, _name: &str, _region: &str, _work_items: usize) {
        self.launches.fetch_add(1, Ordering::Relaxed);
    }
}

/// `(kernel launches, regions entered)` while `f` runs.
pub fn count_events(f: impl FnOnce()) -> (u64, u64) {
    let counter = Arc::new(EventCounter::default());
    let id = profile::register_subscriber(counter.clone());
    f();
    profile::unregister_subscriber(id);
    (
        counter.launches.load(Ordering::Relaxed),
        counter.regions.load(Ordering::Relaxed),
    )
}

/// Median ms of `PairSnap::new` (2J = 8 contraction tables) on `space`.
pub fn snap_setup_ms(space: &Space) -> f64 {
    1e3 * median_seconds(3, 0.05, || {
        black_box(PairSnap::new(SnapParams::default(), space));
    })
}

/// Cost-model figures of the simulated H100 over a few device steps.
/// These are *predicted* and *computed*, never wall-clock.
#[derive(Debug, Clone, Copy)]
pub struct DevicePrediction {
    pub step_us: f64,
    pub flops_per_step: f64,
    pub dram_bytes_per_step: f64,
}

/// Run `steps` steps of the snapshot on `Space::device(h100)` (the
/// workload's pair style with its device-default list) and price the
/// logged kernels with `lkk_gpusim::report::profile`.
pub fn device_prediction(w: &Workload, snap: &Snapshot, steps: u64) -> DevicePrediction {
    let arch = GpuArch::h100();
    let space = Space::device(arch.clone());
    let ctx = space.device_ctx().expect("a device space").clone();
    let mut sim = w.simulation(
        snap.atoms(),
        snap.domain,
        space.clone(),
        w.pair(&space),
        vec![Box::new(FixNve)],
        Box::new(SingleRankComm),
    );
    sim.setup();
    ctx.log.drain();
    sim.run(steps);
    let stats = ctx.log.aggregate();
    let seconds: f64 = lammps_kk::gpusim::profile(&stats, &arch)
        .iter()
        .map(|r| r.seconds)
        .sum();
    let per = |total: f64| total / steps as f64;
    DevicePrediction {
        step_us: 1e6 * per(seconds),
        flops_per_step: per(stats.iter().map(|k| k.flops).sum()),
        dram_bytes_per_step: per(stats.iter().map(|k| k.dram_bytes).sum()),
    }
}
