//! Binned neighbor lists.
//!
//! Reproduces the LAMMPS neighbor machinery the paper's case studies
//! rest on: atoms (including ghosts) are binned into cells half the
//! neighbor cutoff wide (LAMMPS' default), and each owned atom gathers
//! neighbors from a precomputed stencil — the bins whose closest
//! distance to its own bin is below the cutoff. Two list styles exist
//! (§4.1):
//!
//! * **full** — every `i–j` pair appears in both `i`'s and `j`'s rows;
//!   forces are computed twice ("redundant computation") but each atom
//!   only writes its own row, avoiding atomics. GPU default. Walks the
//!   whole stencil.
//! * **half** — each pair appears once (Newton's third law); the force
//!   kernel writes both atoms' rows and needs a deconfliction strategy
//!   (`ScatterView`). CPU default. Walks the half stencil: `j` is stored
//!   on `i` iff `(z, y, x)ⱼ >lex (z, y, x)ᵢ`, so bins below `i`'s z-bin
//!   are skipped, bins above it are kept untested, and only `i`'s own
//!   z-plane compares coordinates.
//!
//! The list is stored as a 2-D `View` (`[atom, slot]`) so the layout
//! adapts to the execution space: rows contiguous on the host for
//! caching, interleaved on the device for coalescing (§4.1).

use crate::atom::AtomData;
use crate::domain::Domain;
use lkk_kokkos::{Space, View, View1, View2};
use std::sync::OnceLock;

/// Neighbor list construction settings.
#[derive(Debug, Clone, Copy)]
pub struct NeighborSettings {
    /// Force cutoff.
    pub cutoff: f64,
    /// Extra skin so lists survive several steps (LAMMPS default 0.3σ).
    pub skin: f64,
    /// Build half (true) or full (false) lists.
    pub half: bool,
    /// Check for rebuild every this many steps.
    pub every: usize,
    /// Canonically sort every neighbor row by the neighbor's image
    /// position after each (re)build. Off by default: the stencil fill
    /// order (stencil column by column, each column's bins in z order,
    /// atoms within a bin in index order) is already deterministic for a
    /// fixed decomposition, and the committed baselines pin it. Turn on
    /// (together with full lists and own-row accumulation) to make
    /// per-atom force sums independent of the decomposition — the knob the balance-equivalence tests use to
    /// compare rebalanced runs bitwise against static ones.
    pub sort_rows: bool,
}

impl NeighborSettings {
    pub fn new(cutoff: f64, skin: f64, half: bool) -> Self {
        NeighborSettings {
            cutoff,
            skin,
            half,
            every: 1,
            sort_rows: false,
        }
    }

    /// Neighbor cutoff = force cutoff + skin.
    pub fn cutneigh(&self) -> f64 {
        self.cutoff + self.skin
    }
}

/// Spatial bins over the ghost-extended region, CSR-indexed.
///
/// All backing vectors are reused across [`Bins::rebuild`] calls, so a
/// persistent `Bins` (as held by [`NeighborList`]) stops touching the
/// allocator once its capacity has peaked.
///
/// Neighbor binning pads the grid with empty bins on every side, as
/// many as the search reach spans, and keeps the stencil for that
/// reach: a stencil offset from any occupied bin is then a valid grid
/// index, so the fill walks it without a bounds test.
#[derive(Debug)]
pub struct Bins {
    inv_size: [f64; 3],
    /// Bins per axis over the binned region (padding excluded).
    nbins: [usize; 3],
    /// Empty bins on each side of every axis.
    pad: [usize; 3],
    /// CSR offsets per grid bin (padding included), length `total + 1`.
    starts: Vec<usize>,
    /// Atom indices ordered by bin.
    atoms: Vec<u32>,
    /// Grid bin of every atom (the counting-sort key), reused across
    /// rebuilds.
    bin_idx: Vec<usize>,
    cursor: Vec<usize>,
    /// One `(offset, height)` entry per stencil column `(dx, dy)`: the
    /// grid offset of the column's bin in the home bin's z-plane, and
    /// the largest `|dz|` whose bin is within reach.
    stencil: Vec<(isize, usize)>,
    /// `(grid dims, bin-width bits, reach bits)` the stencil is for.
    stencil_key: ([usize; 3], [u64; 3], u64),
}

impl Bins {
    /// An empty bin structure ready for [`Bins::rebuild`].
    pub fn empty() -> Bins {
        Bins {
            inv_size: [0.0; 3],
            nbins: [1; 3],
            pad: [0; 3],
            starts: Vec::new(),
            atoms: Vec::new(),
            bin_idx: Vec::new(),
            cursor: Vec::new(),
            stencil: Vec::new(),
            stencil_key: ([0; 3], [0; 3], 0),
        }
    }

    /// Bin all `nall` atoms. The binned region covers the box extended
    /// by `cutghost` on every side.
    pub fn build(atoms: &AtomData, domain: &Domain, bin_size: f64, cutghost: f64) -> Bins {
        let mut bins = Bins::empty();
        bins.rebuild(atoms, domain, bin_size, cutghost);
        bins
    }

    /// Re-bin in place, reusing every scratch vector's capacity.
    pub fn rebuild(&mut self, atoms: &AtomData, domain: &Domain, bin_size: f64, cutghost: f64) {
        self.bin(atoms, domain, bin_size, cutghost, 0.0);
    }

    /// Re-bin in place with the grid padded by the bins `reach` spans,
    /// and bring the stencil of a `reach` search up to date (recomputed
    /// only when the grid geometry or the reach changed).
    fn bin(&mut self, atoms: &AtomData, domain: &Domain, bin_size: f64, cutghost: f64, reach: f64) {
        let nall = atoms.nall();
        let lo = [
            domain.lo[0] - cutghost,
            domain.lo[1] - cutghost,
            domain.lo[2] - cutghost,
        ];
        let hi = [
            domain.hi[0] + cutghost,
            domain.hi[1] + cutghost,
            domain.hi[2] + cutghost,
        ];
        let mut nbins = [0usize; 3];
        let mut inv_size = [0f64; 3];
        let mut pad = [0usize; 3];
        let mut dims = [0usize; 3];
        for k in 0..3 {
            nbins[k] = (((hi[k] - lo[k]) / bin_size).floor() as usize).max(1);
            inv_size[k] = nbins[k] as f64 / (hi[k] - lo[k]);
            pad[k] = (reach * inv_size[k]).ceil() as usize;
            dims[k] = nbins[k] + 2 * pad[k];
        }
        self.inv_size = inv_size;
        self.nbins = nbins;
        self.pad = pad;
        let total = dims[0] * dims[1] * dims[2];
        let xh = atoms.x.h_view();
        // Monotone in each coordinate: a larger bin coordinate means a
        // strictly larger position (the half stencil relies on this).
        let bin_of = |i: usize| -> usize {
            let p = xh.get3(i);
            let mut b = [0usize; 3];
            for k in 0..3 {
                let t = ((p[k] - lo[k]) * inv_size[k]) as isize;
                b[k] = t.clamp(0, nbins[k] as isize - 1) as usize + pad[k];
            }
            (b[0] * dims[1] + b[1]) * dims[2] + b[2]
        };
        // Counting sort (all buffers capacity-reusing).
        self.bin_idx.clear();
        self.bin_idx.extend((0..nall).map(bin_of));
        self.starts.clear();
        self.starts.resize(total + 1, 0);
        for &b in &self.bin_idx {
            self.starts[b + 1] += 1;
        }
        for b in 0..total {
            self.starts[b + 1] += self.starts[b];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..total]);
        self.atoms.clear();
        self.atoms.resize(nall, 0);
        for (i, &b) in self.bin_idx.iter().enumerate() {
            self.atoms[self.cursor[b]] = i as u32;
            self.cursor[b] += 1;
        }
        if reach > 0.0 {
            self.update_stencil(dims, reach);
        }
    }

    /// The stencil of a `reach` search: every bin offset whose closest
    /// distance to the home bin is `< reach`, grouped into `(dx, dy)`
    /// columns. Along one axis, bins `o` apart are `(|o| - 1) × width`
    /// apart at their closest, so a column's in-reach bins are a
    /// contiguous `dz` range symmetric about 0.
    fn update_stencil(&mut self, dims: [usize; 3], reach: f64) {
        let width = self.inv_size.map(|inv| 1.0 / inv);
        let key = (dims, width.map(f64::to_bits), reach.to_bits());
        if key == self.stencil_key {
            return;
        }
        self.stencil_key = key;
        self.stencil.clear();
        let gap_sq = |o: isize, k: usize| {
            let g = o.unsigned_abs().saturating_sub(1) as f64 * width[k];
            g * g
        };
        let reach_sq = reach * reach;
        let [px, py, pz] = self.pad.map(|p| p as isize);
        for dx in -px..=px {
            for dy in -py..=py {
                let plane = gap_sq(dx, 0) + gap_sq(dy, 1);
                if plane >= reach_sq {
                    continue;
                }
                let height = (1..=pz)
                    .take_while(|&dz| plane + gap_sq(dz, 2) < reach_sq)
                    .count();
                let offset = (dx * dims[1] as isize + dy) * dims[2] as isize;
                self.stencil.push((offset, height));
            }
        }
    }

    /// Atoms of the grid bins `first..end`, contiguous in bin order.
    #[inline]
    fn span(&self, first: usize, end: usize) -> &[u32] {
        &self.atoms[self.starts[first]..self.starts[end]]
    }

    /// Atoms of the bin at (unpadded) bin coordinates `b`.
    #[inline]
    fn bin_atoms(&self, b: [usize; 3]) -> &[u32] {
        let g = [b[0] + self.pad[0], b[1] + self.pad[1], b[2] + self.pad[2]];
        let [_, dy, dz] = [0, 1, 2].map(|k| self.nbins[k] + 2 * self.pad[k]);
        let idx = (g[0] * dy + g[1]) * dz + g[2];
        self.span(idx, idx + 1)
    }

    /// The spatial ordering of atoms (bin-major), used for spatial
    /// sorting of atom data to improve cache locality.
    pub fn ordered_atoms(&self) -> &[u32] {
        &self.atoms
    }

    /// Collect (into `out`, reusing its capacity) the atoms in the
    /// outermost bin layer — every bin with a coordinate at 0 or
    /// `nbins-1`. Because bins are at least `bin_size` wide, binning a
    /// sub-domain with `bin_size = cutghost` makes this layer a
    /// superset of all atoms within `cutghost` of any face: the halo
    /// candidate set, found in O(surface) instead of O(N).
    ///
    /// Each atom appears exactly once (bins partition the atoms), in
    /// deterministic bin-major order.
    pub fn boundary_atoms(&self, out: &mut Vec<u32>) {
        out.clear();
        let [nx, ny, nz] = self.nbins;
        let mut take = |b: [usize; 3]| {
            out.extend_from_slice(self.bin_atoms(b));
        };
        for bx in 0..nx {
            if bx == 0 || bx == nx - 1 {
                // A boundary slab in x: every bin belongs to the shell.
                for by in 0..ny {
                    for bz in 0..nz {
                        take([bx, by, bz]);
                    }
                }
            } else {
                // Interior slab: only the frame of the y/z rectangle.
                for by in 0..ny {
                    if by == 0 || by == ny - 1 {
                        for bz in 0..nz {
                            take([bx, by, bz]);
                        }
                    } else {
                        take([bx, by, 0]);
                        if nz > 1 {
                            take([bx, by, nz - 1]);
                        }
                    }
                }
            }
        }
    }
}

/// A built neighbor list.
///
/// The list (and its [`Bins`]) is designed to be *persistent*: call
/// [`NeighborList::rebuild`] on an existing list and every buffer —
/// neighbor rows, per-atom counts, bin CSR arrays — is refilled in
/// place, reusing capacity. Once the high-water shape has been reached
/// no rebuild touches the allocator; [`NeighborList::grow_count`]
/// counts the (rare) capacity growths so tests can assert steady-state
/// behavior.
#[derive(Debug)]
pub struct NeighborList {
    pub half: bool,
    pub cutneigh: f64,
    /// `[nlocal, maxneigh]` neighbor indices; layout per execution space.
    pub neighbors: View2<u32>,
    /// Number of neighbors per owned atom.
    pub numneigh: View1<u32>,
    pub maxneigh: usize,
    pub nlocal: usize,
    /// Total stored pairs (`Σ numneigh`).
    pub total_pairs: u64,
    /// Persistent spatial bins, reused across rebuilds.
    bins: Bins,
    /// Row-sort scratch (one row of indices), reused across rebuilds.
    sort_scratch: Vec<u32>,
    /// Number of heap growths across rebuilds (0 in steady state).
    grow_count: u64,
    /// `working_set_bytes(2048)` of the current list, computed on the
    /// first [`NeighborList::working_set_bytes_cached`] call after a
    /// rebuild (which clears it).
    ws2048: OnceLock<f64>,
}

impl NeighborList {
    /// Build a neighbor list for the owned atoms. Ghosts must already
    /// exist out to `settings.cutneigh()`.
    pub fn build(
        atoms: &AtomData,
        domain: &Domain,
        settings: &NeighborSettings,
        space: &Space,
    ) -> NeighborList {
        let mut list = NeighborList {
            half: settings.half,
            cutneigh: settings.cutneigh(),
            neighbors: View::for_space("neighlist", [0, 0], space),
            numneigh: View::for_space("numneigh", [0], space),
            maxneigh: 0,
            nlocal: 0,
            total_pairs: 0,
            bins: Bins::empty(),
            sort_scratch: Vec::new(),
            grow_count: 0,
            ws2048: OnceLock::new(),
        };
        // The initial build's allocations are construction, not churn.
        list.rebuild(atoms, domain, settings, space);
        list.grow_count = 0;
        list
    }

    /// Heap growths since construction (0 in steady state).
    pub fn grow_count(&self) -> u64 {
        self.grow_count
    }

    /// Rebuild in place, reusing the neighbor/count/bin buffers.
    ///
    /// Identical logical behavior to [`NeighborList::build`] (same
    /// row-capacity estimate, same overflow-retry sequence, same stored
    /// list), but the retry loop grows the existing views in place
    /// instead of freeing and reallocating them.
    pub fn rebuild(
        &mut self,
        atoms: &AtomData,
        domain: &Domain,
        settings: &NeighborSettings,
        space: &Space,
    ) {
        let nlocal = atoms.nlocal;
        let cutneigh = settings.cutneigh();
        let cutsq = cutneigh * cutneigh;
        self.bins
            .bin(atoms, domain, 0.5 * cutneigh, cutneigh, cutneigh);
        // Initial per-row capacity from density estimate.
        let density = atoms.nall() as f64 / {
            let l = domain.lengths();
            (l[0] + 2.0 * cutneigh) * (l[1] + 2.0 * cutneigh) * (l[2] + 2.0 * cutneigh)
        };
        let sphere = 4.0 / 3.0 * std::f64::consts::PI * cutneigh.powi(3) * density;
        let guess = (sphere * if settings.half { 0.7 } else { 1.4 }) as usize + 8;
        let mut maxneigh = guess.max(8);

        // A space change (different preferred layout) cannot reuse the
        // stored strides; rebuild the views from scratch. Never taken
        // in a steady-state run loop.
        if self.neighbors.layout() != lkk_kokkos::Layout::for_space(space) {
            self.neighbors = View::for_space("neighlist", [0, 0], space);
            self.numneigh = View::for_space("numneigh", [0], space);
        }

        loop {
            let mut grew = self.neighbors.realloc([nlocal, maxneigh]);
            grew |= self.numneigh.realloc([nlocal]);
            if grew {
                self.grow_count += 1;
            }
            let (needed, total_pairs) = Self::fill(
                atoms,
                &self.bins,
                cutsq,
                settings.half,
                nlocal,
                maxneigh,
                &mut self.neighbors,
                &mut self.numneigh,
                space,
            );
            if needed > maxneigh {
                // Overflow: grow in place and refill.
                maxneigh = needed + needed / 4 + 4;
                continue;
            }
            self.half = settings.half;
            self.cutneigh = cutneigh;
            self.maxneigh = maxneigh;
            self.nlocal = nlocal;
            self.total_pairs = total_pairs;
            if settings.sort_rows {
                self.sort_rows_canonical(atoms);
            }
            self.ws2048 = OnceLock::new();
            return;
        }
    }

    /// Reorder every neighbor row by the neighbor's *image position*
    /// ((x, y, z) lexicographic under `total_cmp`). Within a cutoff
    /// smaller than half the box, each neighbor of atom `i` appears at
    /// a unique periodic image, and the comm layer produces that image
    /// coordinate bit-for-bit regardless of which rank owns whom — so
    /// the sorted row (and with it any own-row accumulation over the
    /// row) is a pure function of the physical configuration, not of
    /// the decomposition. See `docs/comm.md` (balancer determinism).
    fn sort_rows_canonical(&mut self, atoms: &AtomData) {
        let xh = atoms.x.h_view();
        let mut row = std::mem::take(&mut self.sort_scratch);
        for i in 0..self.nlocal {
            let nn = self.numneigh.at([i]) as usize;
            row.clear();
            row.extend((0..nn).map(|s| self.neighbors.at([i, s])));
            row.sort_unstable_by(|&a, &b| {
                let pa = xh.get3(a as usize);
                let pb = xh.get3(b as usize);
                pa[0]
                    .total_cmp(&pb[0])
                    .then_with(|| pa[1].total_cmp(&pb[1]))
                    .then_with(|| pa[2].total_cmp(&pb[2]))
            });
            for (s, &j) in row.iter().enumerate() {
                self.neighbors.set([i, s], j);
            }
        }
        self.sort_scratch = row;
    }

    /// Fill pass. Returns `(max_required, total_stored_pairs)`; the row
    /// capacity check *and* the `Σ numneigh` total come out of the same
    /// parallel reduction (tuple-joined), so the build has no serial
    /// tail. `max_required > maxneigh` means some row overflowed.
    #[allow(clippy::too_many_arguments)]
    fn fill(
        atoms: &AtomData,
        bins: &Bins,
        cutsq: f64,
        half: bool,
        nlocal: usize,
        maxneigh: usize,
        neighbors: &mut View2<u32>,
        numneigh: &mut View1<u32>,
        space: &Space,
    ) -> (usize, u64) {
        let xh = atoms.x.h_view();
        let nw = neighbors.par_write();
        let cw = numneigh.par_write();
        space.parallel_reduce(
            "NeighborBuild",
            nlocal,
            (0usize, 0u64),
            |i| {
                let xi = xh.get3(i);
                let within = |ju: u32| {
                    let xj = xh.get3(ju as usize);
                    let d = [xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]];
                    d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cutsq
                };
                let mut count = 0usize;
                let mut keep = |ju: u32| {
                    if count < maxneigh {
                        // SAFETY: row `i` is written by this work item
                        // only, and `count < maxneigh` keeps the slot
                        // inside the `[nlocal, maxneigh]` view.
                        unsafe { nw.write([i, count], ju) };
                    }
                    count += 1;
                };
                let home = bins.bin_idx[i];
                for &(offset, height) in &bins.stencil {
                    // The column's bin in i's z-plane; the padding keeps
                    // `mid ± height` inside the grid.
                    let mid = home.wrapping_add_signed(offset);
                    if half {
                        for &ju in bins.span(mid, mid + 1) {
                            if above(xh.get3(ju as usize), xi) && within(ju) {
                                keep(ju);
                            }
                        }
                        // Higher z-bins hold only atoms above i.
                        for &ju in bins.span(mid + 1, mid + height + 1) {
                            if within(ju) {
                                keep(ju);
                            }
                        }
                    } else {
                        for &ju in bins.span(mid - height, mid + height + 1) {
                            if ju as usize != i && within(ju) {
                                keep(ju);
                            }
                        }
                    }
                }
                let stored = count.min(maxneigh);
                // SAFETY: element `i` is written by this work item only.
                unsafe { cw.write([i], stored as u32) };
                (count, stored as u64)
            },
            |a, b| (a.0.max(b.0), a.1 + b.1),
        )
    }

    /// [`Self::working_set_bytes`]`(2048)` of the current list. Only the
    /// device cost model reads it, so it is computed on the first call
    /// after a rebuild — an `O(total_pairs)` hash-set sampling that
    /// host-space runs never pay — and served from the cache until the
    /// next rebuild. The list is immutable between rebuilds, so every
    /// call returns exactly `working_set_bytes(2048)`.
    pub fn working_set_bytes_cached(&self) -> f64 {
        *self.ws2048.get_or_init(|| self.working_set_bytes(2048))
    }

    /// Measured per-block neighbor working set: the average number of
    /// *distinct* atoms referenced by a block of `block` consecutive
    /// owned atoms, times 24 bytes (one coordinate triple). This feeds
    /// the L1 working-set term of the device cost model.
    // Insert/len-only set (never iterated): order cannot leak (LKK002).
    #[allow(clippy::disallowed_types)]
    pub fn working_set_bytes(&self, block: usize) -> f64 {
        use std::collections::HashSet;
        if self.nlocal == 0 {
            return 0.0;
        }
        let block = block.max(1);
        let nblocks = self.nlocal.div_ceil(block);
        // Sample up to 16 blocks evenly.
        let step = nblocks.div_ceil(16).max(1);
        let mut total = 0usize;
        let mut sampled = 0usize;
        let mut set = HashSet::new();
        let mut b = 0;
        while b < nblocks {
            set.clear();
            let start = b * block;
            let end = (start + block).min(self.nlocal);
            for i in start..end {
                set.insert(i as u32);
                for s in 0..self.numneigh.at([i]) as usize {
                    set.insert(self.neighbors.at([i, s]));
                }
            }
            total += set.len();
            sampled += 1;
            b += step;
        }
        (total as f64 / sampled as f64) * 24.0
    }

    /// Average neighbors per atom.
    pub fn avg_neighbors(&self) -> f64 {
        if self.nlocal == 0 {
            0.0
        } else {
            self.total_pairs as f64 / self.nlocal as f64
        }
    }
}

/// The half-list ownership rule: `j` is stored on `i` iff
/// `(z, y, x)ⱼ >lex (z, y, x)ᵢ`. It reads coordinates only, so both
/// atoms of a pair — owned or ghost, on one rank or two — decide it the
/// same way, and exactly one of them stores the pair.
#[inline]
fn above(xj: [f64; 3], xi: [f64; 3]) -> bool {
    xj[2] > xi[2] || (xj[2] == xi[2] && (xj[1] > xi[1] || (xj[1] == xi[1] && xj[0] > xi[0])))
}

/// Spatially reorder the *owned* atoms into bin-major order (LAMMPS'
/// `atom_modify sort`): after sorting, atoms that are close in space
/// are close in memory, which is what makes the per-SM neighbor
/// working set fit in cache (§4.1 / Fig. 3). Must be called between
/// neighbor rebuilds (it invalidates ghost indices and the list).
/// Returns the permutation applied (new index → old index).
pub fn spatial_sort(atoms: &mut AtomData, domain: &Domain, bin_size: f64) -> Vec<u32> {
    let nlocal = atoms.nlocal;
    // Bin owned atoms only (strip ghosts first — they are rebuilt).
    atoms.resize_all(nlocal, nlocal);
    atoms.nghost = 0;
    let bins = Bins::build(atoms, domain, bin_size, 0.0);
    let order: Vec<u32> = bins.ordered_atoms().to_vec();
    debug_assert_eq!(order.len(), nlocal);
    // Apply the permutation to every per-atom field (host side).
    let perm = |v: &mut Vec<f64>, stride: usize| {
        let old = v.clone();
        for (new_i, &old_i) in order.iter().enumerate() {
            for k in 0..stride {
                v[new_i * stride + k] = old[old_i as usize * stride + k];
            }
        }
    };
    // DualView fields: operate on host mirrors then mark modified.
    for dv in [&mut atoms.x, &mut atoms.v, &mut atoms.f] {
        let mut flat: Vec<f64> = (0..nlocal)
            .flat_map(|i| (0..3).map(move |k| (i, k)))
            .map(|(i, k)| dv.h_view().at([i, k]))
            .collect();
        perm(&mut flat, 3);
        let h = dv.h_view_mut();
        for i in 0..nlocal {
            for k in 0..3 {
                h.set([i, k], flat[i * 3 + k]);
            }
        }
    }
    {
        let old: Vec<i32> = (0..nlocal).map(|i| atoms.typ.h_view().at([i])).collect();
        let h = atoms.typ.h_view_mut();
        for (new_i, &old_i) in order.iter().enumerate() {
            h.set([new_i], old[old_i as usize]);
        }
    }
    {
        let old: Vec<f64> = (0..nlocal).map(|i| atoms.q.h_view().at([i])).collect();
        let h = atoms.q.h_view_mut();
        for (new_i, &old_i) in order.iter().enumerate() {
            h.set([new_i], old[old_i as usize]);
        }
    }
    {
        let old: Vec<i64> = (0..nlocal).map(|i| atoms.tag.h_view().at([i])).collect();
        let h = atoms.tag.h_view_mut();
        for (new_i, &old_i) in order.iter().enumerate() {
            h.set([new_i], old[old_i as usize]);
        }
    }
    let old_image = atoms.image.clone();
    for (new_i, &old_i) in order.iter().enumerate() {
        atoms.image[new_i] = old_image[old_i as usize];
    }
    order
}

/// Largest squared displacement of owned atoms since `x_old`; the
/// rebuild trigger is `max_disp_sq > (skin/2)²`.
pub fn max_displacement_sq(atoms: &AtomData, x_old: &[[f64; 3]], domain: &Domain) -> f64 {
    let xh = atoms.x.h_view();
    let mut m: f64 = 0.0;
    for (i, old) in x_old.iter().enumerate().take(atoms.nlocal) {
        let p = [xh.at([i, 0]), xh.at([i, 1]), xh.at([i, 2])];
        m = m.max(domain.min_image_dsq(&p, old));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::build_ghosts;
    use crate::lattice::{Lattice, LatticeKind};

    fn lj_melt(n: usize) -> (AtomData, Domain) {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let positions = lat.positions(n, n, n);
        let domain = lat.domain(n, n, n);
        let atoms = AtomData::from_positions(&positions);
        (atoms, domain)
    }

    /// A seeded melt: an fcc lattice of `cells` with every coordinate
    /// jittered by up to `±amp`, wrapped back into the box.
    fn jittered_melt(cells: [usize; 3], amp: f64, seed: u64) -> (AtomData, Domain) {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let domain = lat.domain(cells[0], cells[1], cells[2]);
        let mut rnd = xorshift(seed);
        let positions: Vec<[f64; 3]> = lat
            .positions(cells[0], cells[1], cells[2])
            .into_iter()
            .map(|mut p| {
                for c in &mut p {
                    *c += amp * (2.0 * rnd() - 1.0);
                }
                domain.wrap(&mut p);
                p
            })
            .collect();
        (AtomData::from_positions(&positions), domain)
    }

    /// Uniform reals in `[0, 1)` from a seeded xorshift generator.
    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The O(N²) oracle: every directed pair `(i, k, n)` of owned atoms
    /// such that image `n` of `k` (position `x_k + n·L`, the arithmetic
    /// ghosts use) lies within `cut` of `i`, over all 27 images.
    fn brute_force(atoms: &AtomData, domain: &Domain, cut: f64) -> Vec<(usize, usize, [i64; 3])> {
        let l = domain.lengths();
        let mut pairs = Vec::new();
        for i in 0..atoms.nlocal {
            let xi = atoms.pos(i);
            for k in 0..atoms.nlocal {
                let xk = atoms.pos(k);
                for n in (0..27).map(|c| [c / 9 - 1, c / 3 % 3 - 1, c % 3 - 1]) {
                    if k == i && n == [0; 3] {
                        continue;
                    }
                    let d: [f64; 3] = std::array::from_fn(|a| xk[a] + n[a] as f64 * l[a] - xi[a]);
                    if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cut * cut {
                        pairs.push((i, k, n));
                    }
                }
            }
        }
        pairs
    }

    /// Brute-force count of (undirected) pairs within `cut`.
    fn brute_pairs(atoms: &AtomData, domain: &Domain, cut: f64) -> u64 {
        brute_force(atoms, domain, cut).len() as u64 / 2
    }

    /// The listed pairs as `(i, k, n)`: owner `k` of entry `j` (by tag)
    /// and the image `n` with `x_j = x_k + n·L`.
    fn listed(
        nl: &NeighborList,
        atoms: &AtomData,
        domain: &Domain,
    ) -> Vec<(usize, usize, [i64; 3])> {
        let l = domain.lengths();
        let tag = atoms.tag.h_view();
        let mut pairs = Vec::new();
        for i in 0..nl.nlocal {
            for s in 0..nl.numneigh.at([i]) as usize {
                let j = nl.neighbors.at([i, s]) as usize;
                let k = (tag.at([j]) - 1) as usize;
                let (xj, xk) = (atoms.pos(j), atoms.pos(k));
                let n = std::array::from_fn(|a| ((xj[a] - xk[a]) / l[a]).round() as i64);
                pairs.push((i, k, n));
            }
        }
        pairs
    }

    #[test]
    fn half_list_counts_each_pair_once() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, true);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let brute = brute_pairs(&atoms, &domain, settings.cutneigh());
        assert_eq!(nl.total_pairs, brute);
    }

    #[test]
    fn full_list_counts_each_pair_twice() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Threads);
        let brute = brute_pairs(&atoms, &domain, settings.cutneigh());
        assert_eq!(nl.total_pairs, 2 * brute);
    }

    #[test]
    fn full_list_is_symmetric_for_local_pairs() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        for i in 0..nl.nlocal {
            for s in 0..nl.numneigh.at([i]) as usize {
                let j = nl.neighbors.at([i, s]) as usize;
                if j < nl.nlocal {
                    let back = (0..nl.numneigh.at([j]) as usize)
                        .any(|t| nl.neighbors.at([j, t]) as usize == i);
                    assert!(back, "{j} missing back-reference to {i}");
                }
            }
        }
    }

    #[test]
    fn fcc_coordination_number() {
        // At cutoff between 1st and 2nd neighbor shell, fcc has 12
        // nearest neighbors.
        let lat = Lattice::new(LatticeKind::Fcc, 1.0);
        let mut atoms = AtomData::from_positions(&lat.positions(4, 4, 4));
        let domain = lat.domain(4, 4, 4);
        // 1st shell at 0.7071, 2nd at 1.0.
        let settings = NeighborSettings::new(0.85, 0.0, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        for i in 0..nl.nlocal {
            assert_eq!(nl.numneigh.at([i]), 12);
        }
    }

    #[test]
    fn overflow_retry_produces_same_list() {
        let (mut atoms, domain) = lj_melt(5);
        let settings = NeighborSettings::new(3.5, 0.3, false); // large cutoff forces retries
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let brute = brute_pairs(&atoms, &domain, settings.cutneigh());
        assert_eq!(nl.total_pairs, 2 * brute);
    }

    #[test]
    fn layout_follows_space() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let host = NeighborList::build(&atoms, &domain, &settings, &Space::Threads);
        assert_eq!(host.neighbors.layout(), lkk_kokkos::Layout::Right);
        let dev = NeighborList::build(
            &atoms,
            &domain,
            &settings,
            &Space::device(lkk_gpusim::GpuArch::h100()),
        );
        assert_eq!(dev.neighbors.layout(), lkk_kokkos::Layout::Left);
        assert_eq!(host.total_pairs, dev.total_pairs);
    }

    #[test]
    fn working_set_grows_with_block() {
        let (mut atoms, domain) = lj_melt(5);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let w1 = nl.working_set_bytes(32);
        let w2 = nl.working_set_bytes(256);
        assert!(w2 > w1);
        assert!(w1 > 32.0 * 24.0);
    }

    #[test]
    fn lists_match_brute_force_on_jittered_melts() {
        // (cells, force cutoff, skin, jitter): a 4-cell box spans fewer
        // than 5 bins per side, and no box is a whole number of bins;
        // the 3.5 cutoff also overflows the first row-capacity guess.
        let cases = [
            ([4, 4, 4], 2.5, 0.3, 0.3),
            ([5, 4, 6], 2.5, 0.3, 0.45),
            ([6, 5, 5], 2.0, 0.2, 0.2),
            ([5, 5, 5], 3.5, 0.3, 0.3),
        ];
        let device = Space::device(lkk_gpusim::GpuArch::h100());
        for (c, &(cells, cutoff, skin, amp)) in cases.iter().enumerate() {
            for seed in 0..2u64 {
                let (mut atoms, domain) = jittered_melt(cells, amp, 17 * c as u64 + seed);
                let half = NeighborSettings::new(cutoff, skin, true);
                let full = NeighborSettings::new(cutoff, skin, false);
                build_ghosts(&mut atoms, &domain, half.cutneigh());
                let mut oracle = brute_force(&atoms, &domain, half.cutneigh());
                oracle.sort_unstable();
                for space in [&Space::Serial, &device] {
                    // Full rows equal the oracle's rows as sets.
                    let nl = NeighborList::build(&atoms, &domain, &full, space);
                    let mut got = listed(&nl, &atoms, &domain);
                    got.sort_unstable();
                    assert_eq!(got, oracle, "full list, case {c}, seed {seed}");
                    // Every oracle pair exactly once in the half list.
                    let nl = NeighborList::build(&atoms, &domain, &half, space);
                    let mut got: Vec<_> = listed(&nl, &atoms, &domain)
                        .into_iter()
                        .map(|(i, k, n)| {
                            if i < k {
                                (i, k, n)
                            } else {
                                (k, i, n.map(|a| -a))
                            }
                        })
                        .collect();
                    got.sort_unstable();
                    let want: Vec<_> = oracle.iter().copied().filter(|&(i, k, _)| i < k).collect();
                    assert_eq!(got, want, "half list, case {c}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn half_rows_are_balanced() {
        // The coordinate ownership rule gives every atom about half of
        // its neighbors; an index rule piles the pairs onto low rows.
        let (mut atoms, domain) = jittered_melt([10, 10, 10], 0.3, 5);
        let half = NeighborSettings::new(2.5, 0.3, true);
        let full = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, half.cutneigh());
        let max_row = |settings: &NeighborSettings| {
            let nl = NeighborList::build(&atoms, &domain, settings, &Space::Threads);
            (0..nl.nlocal)
                .map(|i| nl.numneigh.at([i]))
                .max()
                .unwrap_or(0) as f64
        };
        let (h, f) = (max_row(&half), max_row(&full));
        assert!(h <= 0.6 * f, "max half row {h} vs max full row {f}");
    }

    #[test]
    fn lazy_working_set_matches_direct_query() {
        let (mut atoms, domain) = lj_melt(5);
        let full = NeighborSettings::new(2.5, 0.3, false);
        let half = NeighborSettings::new(2.5, 0.3, true);
        build_ghosts(&mut atoms, &domain, full.cutneigh());
        for space in [Space::Serial, Space::device(lkk_gpusim::GpuArch::h100())] {
            let mut nl = NeighborList::build(&atoms, &domain, &full, &space);
            let before = nl.working_set_bytes_cached();
            assert_eq!(before, nl.working_set_bytes(2048));
            // A rebuild drops the cached value: the next query is fresh.
            nl.rebuild(&atoms, &domain, &half, &space);
            assert_eq!(nl.working_set_bytes_cached(), nl.working_set_bytes(2048));
            assert_ne!(nl.working_set_bytes_cached(), before);
        }
    }

    #[test]
    fn displacement_tracking() {
        let (atoms, domain) = lj_melt(2);
        let x_old: Vec<[f64; 3]> = (0..atoms.nlocal).map(|i| atoms.pos(i)).collect();
        assert_eq!(max_displacement_sq(&atoms, &x_old, &domain), 0.0);
        let mut atoms = atoms;
        let new_x = atoms.pos(0)[0] + 0.4;
        atoms.x.h_view_mut().set([0, 0], new_x);
        let d = max_displacement_sq(&atoms, &x_old, &domain);
        assert!((d - 0.16).abs() < 1e-12);
    }

    #[test]
    fn canonical_row_sort_orders_rows_and_preserves_sets() {
        let (mut atoms, domain) = lj_melt(4);
        let mut settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let plain = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        settings.sort_rows = true;
        let sorted = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        assert_eq!(plain.total_pairs, sorted.total_pairs);
        let xh = atoms.x.h_view();
        for i in 0..sorted.nlocal {
            let nn = sorted.numneigh.at([i]) as usize;
            assert_eq!(nn, plain.numneigh.at([i]) as usize);
            for s in 1..nn {
                let a = xh.get3(sorted.neighbors.at([i, s - 1]) as usize);
                let b = xh.get3(sorted.neighbors.at([i, s]) as usize);
                assert!(a <= b, "row {i} not position-ordered: {a:?} after {b:?}");
            }
            let mut pa: Vec<u32> = (0..nn).map(|s| plain.neighbors.at([i, s])).collect();
            let mut pb: Vec<u32> = (0..nn).map(|s| sorted.neighbors.at([i, s])).collect();
            pa.sort_unstable();
            pb.sort_unstable();
            assert_eq!(pa, pb, "row {i} changed its neighbor set");
        }
    }

    #[test]
    fn spatial_sort_improves_locality_and_preserves_physics() {
        use crate::pair::lj::LjCut;
        use crate::pair::{PairKokkos, PairStyle};
        use crate::sim::System;
        // Shuffle a melt so memory order is decorrelated from space.
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut positions = lat.positions(6, 6, 6);
        let n = positions.len();
        // Deterministic shuffle.
        let mut s = 12345u64;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            positions.swap(i, (s >> 33) as usize % (i + 1));
        }
        let domain = lat.domain(6, 6, 6);
        let settings = NeighborSettings::new(2.5, 0.3, false);

        let energy_and_ws = |pos: &[[f64; 3]]| -> (f64, f64) {
            let mut system = System::new(AtomData::from_positions(pos), domain, Space::Serial);
            system.ghosts = build_ghosts(&mut system.atoms, &domain, settings.cutneigh());
            let nl = NeighborList::build(&system.atoms, &domain, &settings, &Space::Serial);
            let ws = nl.working_set_bytes(256);
            let mut pair = PairKokkos::with_options(
                LjCut::single_type(1.0, 1.0, 2.5),
                &Space::Serial,
                crate::pair::PairKokkosOptions {
                    force_half: Some(false),
                    team_over_neighbors: false,
                },
            );
            let res = pair.compute(&mut system, &nl, true);
            (res.energy, ws)
        };
        let (e_shuffled, ws_shuffled) = energy_and_ws(&positions);

        let mut atoms = AtomData::from_positions(&positions);
        spatial_sort(&mut atoms, &domain, settings.cutneigh());
        let sorted: Vec<[f64; 3]> = (0..atoms.nlocal).map(|i| atoms.pos(i)).collect();
        let (e_sorted, ws_sorted) = energy_and_ws(&sorted);

        // Same physics...
        assert!((e_shuffled - e_sorted).abs() < 1e-9 * e_shuffled.abs());
        // ...much smaller per-block neighbor working set.
        assert!(
            ws_sorted < 0.6 * ws_shuffled,
            "sorted {ws_sorted} vs shuffled {ws_shuffled}"
        );
        // Tags are a permutation (nothing lost).
        let mut tags: Vec<i64> = (0..atoms.nlocal)
            .map(|i| atoms.tag.h_view().at([i]))
            .collect();
        tags.sort_unstable();
        assert!(tags.iter().enumerate().all(|(i, &t)| t == i as i64 + 1));
    }
}
