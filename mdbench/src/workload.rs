//! The four fixed workloads: what each one builds, on which space, and
//! how long it warms up before timing starts.

use lammps_kk::prelude::*;

/// Force field of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Potential {
    /// Lennard-Jones melt: fcc at ρ* = 0.8442, T* = 1.44, r_c = 2.5σ.
    Lj,
    /// SNAP 2J = 8 on a bcc W-like lattice (a = 3.16 Å), metal units.
    Snap,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub potential: Potential,
    /// Unit cells per box edge.
    pub cells: usize,
    /// Execution space of every rank.
    pub space: Space,
    /// `PairKokkosOptions::force_half` (LJ only): `None` follows the
    /// space default (half list + newton on for host spaces).
    pub force_half: Option<bool>,
    /// 1 = single rank, driven by the benchmark's own `run(1)` loop;
    /// more = `CommSpec::Brick` through `RunSpec::run`.
    pub ranks: usize,
    /// Untimed steps before the timed segment.
    pub warmup: u64,
    /// Nominal steps per second on a 2-core host: `--seconds` × this
    /// is the timed segment's fixed step count, so a run measures
    /// about `--seconds` seconds and every build of the program times
    /// the same steps.
    pub rate: f64,
    /// Largest relative NVE total-energy drift the timed segment may
    /// show (see README.md for the seed runs it was fixed from).
    pub drift_bound: f64,
    /// Fewest step-time samples a timed segment collects: 200 puts
    /// ten samples beyond p95 (smoke-test sizes take fewer).
    pub min_samples: u64,
}

/// Names accepted by `--workload`, in reporting order.
pub const NAMES: [&str; 4] = ["lj-32k", "lj-2k-full", "snap-128", "lj-brick2"];

impl Workload {
    /// The workload called `name`; `tiny` shrinks it for smoke tests.
    pub fn by_name(name: &str, tiny: bool) -> Option<Workload> {
        let size = |full: usize, small: usize| if tiny { small } else { full };
        let warm = |full: u64| if tiny { 5 } else { full };
        // Small LJ boxes fluctuate more in total energy.
        let drift = |full: f64| if tiny { 1e-2 } else { full };
        let min_samples = if tiny { 20 } else { 200 };
        let w = match name {
            "lj-32k" => Workload {
                name: "lj-32k",
                potential: Potential::Lj,
                cells: size(20, 6),
                space: Space::Threads,
                force_half: None,
                ranks: 1,
                warmup: warm(40),
                rate: 16.0,
                drift_bound: drift(3e-4),
                min_samples,
            },
            "lj-2k-full" => Workload {
                name: "lj-2k-full",
                potential: Potential::Lj,
                cells: size(8, 5),
                space: Space::Threads,
                force_half: Some(false),
                ranks: 1,
                warmup: warm(200),
                rate: 300.0,
                drift_bound: drift(3e-4),
                min_samples,
            },
            "snap-128" => Workload {
                name: "snap-128",
                potential: Potential::Snap,
                cells: 4,
                space: Space::Threads,
                force_half: None,
                ranks: 1,
                warmup: warm(60),
                rate: 12.0,
                drift_bound: 1e-5,
                min_samples,
            },
            "lj-brick2" => Workload {
                name: "lj-brick2",
                potential: Potential::Lj,
                cells: size(16, 8),
                space: Space::Serial,
                force_half: None,
                ranks: 2,
                warmup: warm(60),
                rate: 30.0,
                drift_bound: drift(3e-4),
                min_samples,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Timed steps of a run asked to measure `seconds`.
    pub fn timed_steps(&self, seconds: f64) -> u64 {
        ((seconds * self.rate).round() as u64).max(self.min_samples)
    }

    /// Total atoms.
    pub fn natoms(&self) -> usize {
        let per_cell = match self.potential {
            Potential::Lj => 4,
            Potential::Snap => 2,
        };
        per_cell * self.cells.pow(3)
    }

    pub fn units(&self) -> Units {
        match self.potential {
            Potential::Lj => Units::lj(),
            Potential::Snap => Units::metal(),
        }
    }

    /// Timestep: 0.005 τ (LJ), 0.5 fs (SNAP).
    pub fn dt(&self) -> f64 {
        match self.potential {
            Potential::Lj => 0.005,
            Potential::Snap => 0.0005,
        }
    }

    /// The seeded initial condition: lattice positions plus
    /// `create_velocities` at the workload temperature. This is all the
    /// program receives from the seed.
    pub fn initial_atoms(&self, seed: u64) -> (AtomData, Domain) {
        let c = self.cells;
        let (lattice, temp) = match self.potential {
            Potential::Lj => (Lattice::from_density(LatticeKind::Fcc, 0.8442), 1.44),
            Potential::Snap => (Lattice::new(LatticeKind::Bcc, 3.16), 950.0),
        };
        let mut atoms = AtomData::from_positions(&lattice.positions(c, c, c));
        if self.potential == Potential::Snap {
            atoms.mass = vec![183.84];
        }
        create_velocities(&mut atoms, &self.units(), temp, seed);
        (atoms, lattice.domain(c, c, c))
    }

    /// A fresh pair style for `space`.
    pub fn pair(&self, space: &Space) -> Box<dyn PairStyle> {
        match self.potential {
            Potential::Lj => Box::new(PairKokkos::with_options(
                LjCut::single_type(1.0, 1.0, 2.5),
                space,
                PairKokkosOptions {
                    force_half: self.force_half,
                    ..Default::default()
                },
            )),
            Potential::Snap => Box::new(PairSnap::new(SnapParams::default(), space)),
        }
    }

    /// Wire a single-rank simulation from parts. The untimed and the
    /// traced runs both come through here, so they differ only in the
    /// pair, fix and comm objects passed in.
    pub fn simulation(
        &self,
        atoms: AtomData,
        domain: Domain,
        space: Space,
        pair: Box<dyn PairStyle>,
        fixes: Vec<Box<dyn Fix>>,
        comm: Box<dyn Comm>,
    ) -> Simulation {
        let system = System::new(atoms, domain, space)
            .with_units(self.units())
            .with_comm(comm);
        let mut sim = Simulation::new(system, pair);
        sim.fixes = fixes;
        sim.dt = self.dt();
        sim
    }

    /// An undecorated single-rank simulation of the seeded initial state
    /// on `space`.
    pub fn plain_simulation(&self, seed: u64, space: &Space) -> Simulation {
        let (atoms, domain) = self.initial_atoms(seed);
        self.simulation(
            atoms,
            domain,
            space.clone(),
            self.pair(space),
            vec![Box::new(FixNve)],
            Box::new(SingleRankComm),
        )
    }

    /// The brick driver spec for `steps` timed steps after `warmup`.
    pub fn run_spec(&self, seed: u64, warmup: u64, steps: u64) -> RunSpec {
        let (atoms, domain) = self.initial_atoms(seed);
        let mut spec = RunSpec::new(&atoms, domain, steps).comm(CommSpec::Brick {
            ranks: self.ranks,
            balance: None,
        });
        spec.units = self.units();
        spec.space = self.space.clone();
        spec.warmup_steps = warmup;
        spec
    }
}
