//! Host dispatch through the public API: a threaded run is bitwise the
//! same whether its parallel calls fork onto the persistent workers or
//! run inline on the calling thread.
//!
//! Inline execution is what a parallel call does when it is nested inside
//! a chunk of another, or when another thread holds the workers (a
//! concurrent rank). It keeps chunk boundaries and chunk indices, so the
//! chunked reductions and the per-chunk `ScatterView` copies must add up
//! in the same order either way.

use lammps_kk::kokkos::View2;
use lammps_kk::prelude::*;
use rayon::prelude::*;

/// Final state of a run, as raw bits.
#[derive(Debug, PartialEq)]
struct Bits {
    x: Vec<u64>,
    v: Vec<u64>,
    f: Vec<u64>,
    e_pair: u64,
    e_total: u64,
}

/// 50 steps of an fcc LJ melt, 8×8×8 cells = 2,048 atoms: exactly the
/// fork threshold, so every per-atom kernel of a `Threads` run forks.
fn melt_2048() -> Bits {
    let lattice = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let mut atoms = AtomData::from_positions(&lattice.positions(8, 8, 8));
    create_velocities(&mut atoms, &Units::lj(), 1.44, 87287);
    let space = Space::Threads;
    let mut sim = SimulationBuilder::new(atoms, lattice.domain(8, 8, 8))
        .space(space.clone())
        .pair(PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &space))
        .dt(0.005)
        .build();
    sim.run(50);
    let e_total = sim.total_energy().to_bits();
    sim.system.atoms.sync(&Space::Serial, Mask::ALL);
    let a = &sim.system.atoms;
    assert_eq!(a.nlocal, 2048);
    let rows = |view: &View2<f64>| -> Vec<u64> {
        (0..a.nlocal)
            .flat_map(|i| (0..3).map(move |k| (i, k)))
            .map(|(i, k)| view.at([i, k]).to_bits())
            .collect()
    };
    Bits {
        x: rows(a.x.h_view()),
        v: rows(a.v.h_view()),
        f: rows(a.f.h_view()),
        e_pair: sim.last_results.energy.to_bits(),
        e_total,
    }
}

#[test]
fn threaded_melt_is_bitwise_equal_forked_and_inline() {
    let forked = melt_2048();
    // Chunk 0 of an outer parallel call runs on this thread, and every
    // parallel call nested in it runs inline.
    let inline = (0..1usize)
        .into_par_iter()
        .map(|_| melt_2048())
        .collect::<Vec<Bits>>()
        .pop()
        .expect("one chunk");
    assert!(forked == inline, "forked and inline runs diverged");
}
