//! The five Airshed phases, with real numerics and work accounting.
//!
//! Each phase does its actual computation on the host **and** reports the
//! work units it performed, broken down the way the parallelisation
//! partitions it (per layer for transport, per grid column for chemistry,
//! lump sums for the sequential phases). The driver charges those units
//! to the virtual machine nodes that own the corresponding data.
//!
//! The same partitions also drive the *real* execution: the engine's
//! [`ExecSpec`] lowers each phase's `ItemLayout` onto the shared-memory
//! backend (`crate::backend`) — transport blocks (layer, four-species
//! group) items layer-major, chemistry stripes columns cyclically, the
//! aerosol's parallel pass blocks by cell. Work-unit merges are
//! item-indexed and reduced sequentially in item order, and every kernel
//! is one code path whose lanes do the scalar arithmetic, so any thread
//! count produces bit-identical states and profiles (see
//! `crate::backend` for the full contract).
//!
//! Work-unit coefficients are flop-scale calibration constants
//! ([`WorkCoeffs`]); with the default machine rates they land the
//! absolute phase times in the ranges the paper reports for the LA data
//! set (see `EXPERIMENTS.md`).

use crate::backend::ExecSpec;
use crate::obs::{Obs, PoolHook};
use crate::plan::ItemLayout;
use crate::state::{HourSummary, SimState};
use airshed_chem::aerosol::{
    apply_uptake, reduce_deltas, species_blocks_mut, uptake_scale, AerosolParams, AerosolResult,
    CellDelta,
};
use airshed_chem::mechanism::Mechanism;
use airshed_chem::simd::{
    diffuse_column4, integrate_stream, Column4Workspace, LaneOccupancy, Yb4Workspace,
};
use airshed_chem::species::{self as sp, N_SPECIES, SPECIES};
use airshed_chem::vertical::ColumnGeometry;
use airshed_chem::youngboris::{YbOptions, YbStats};
use airshed_grid::datasets::Dataset;
use airshed_hpf::host::Task;
use airshed_met::emissions::{EmissionInventory, PointSource};
use airshed_met::hourly::{HourlyInput, InputGenerator};
use airshed_simd::F64x4;
use airshed_transport::operator::HorizontalTransport;
use airshed_transport::solver::{LaneWorkspace, SolveStats};
use std::sync::Mutex;
use std::time::Instant;

/// Work-unit coefficients (flop-equivalents per elementary operation).
#[derive(Debug, Clone, Copy)]
pub struct WorkCoeffs {
    /// Per byte of hourly input read, decoded and interpolated
    /// (`inputhour` — stands in for the CIT file processing).
    pub input_per_byte: f64,
    /// Per element×layer of SUPG assembly in `pretrans`.
    pub pretrans_per_elem_layer: f64,
    /// Per matrix nonzero per solver iteration (transport solves).
    pub solve_per_nnz_iter: f64,
    /// Per reaction per production/loss evaluation (gas chemistry).
    pub chem_per_reaction_eval: f64,
    /// Per (column, species) implicit vertical solve.
    pub vertical_per_column_species: f64,
    /// Per cell visited by the aerosol equilibrium scan.
    pub aerosol_per_cell: f64,
    /// Per byte written by `outputhour`.
    pub output_per_byte: f64,
}

impl Default for WorkCoeffs {
    fn default() -> Self {
        WorkCoeffs {
            input_per_byte: 3400.0,
            pretrans_per_elem_layer: 2500.0,
            solve_per_nnz_iter: 6.0,
            chem_per_reaction_eval: 13.0,
            vertical_per_column_species: 100.0,
            aerosol_per_cell: 25.0,
            output_per_byte: 12.0,
        }
    }
}

/// A scoped pool of reusable worker scratch. Workers check a workspace
/// out at the start of a fork and return it at the end, so steady-state
/// hot loops allocate nothing: after the first step every fork finds
/// warm buffers waiting.
struct WorkspacePool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> WorkspacePool<T> {
    fn new() -> WorkspacePool<T> {
        WorkspacePool {
            free: Mutex::new(Vec::new()),
        }
    }

    fn take(&self, make: impl FnOnce() -> T) -> T {
        self.free.lock().unwrap().pop().unwrap_or_else(make)
    }

    fn put(&self, t: T) {
        self.free.lock().unwrap().push(t);
    }
}

/// One partition's chemistry scratch: the per-layer rate-constant cache,
/// the stream kernel's lanes and per-cell statistics, the four-column
/// vertical solve, and what the partition reports back.
#[derive(Default)]
struct ChemScratch {
    /// Rate constants per layer — shared by every column in a
    /// partition, evaluated once per fork instead of once per cell.
    k_layers: Vec<Vec<f64>>,
    lanes: Yb4Workspace,
    /// Σ over its cells of each column's kinetics statistics, in
    /// partition order.
    col_stats: Vec<YbStats>,
    /// One species across the layers of four grid columns (`col4[l]`).
    col4: Vec<F64x4>,
    thomas4: Column4Workspace,
    /// Work units per column of the partition.
    work: Vec<f64>,
    /// How full the kinetics kept its lanes.
    ran: LaneOccupancy,
}

/// Everything the phases need, bundled.
pub struct PhaseEngine {
    pub dataset: Dataset,
    pub inventory: EmissionInventory,
    pub generator: InputGenerator,
    pub mech: Mechanism,
    pub geom: ColumnGeometry,
    pub chem_opts: YbOptions,
    pub kh: f64,
    pub coeffs: WorkCoeffs,
    background: Vec<f64>,
    /// Point sources grouped by grid column.
    point_by_slot: Vec<Vec<PointSource>>,
    /// How the phase loops execute on the host (does not affect virtual
    /// time, only wall-clock).
    pub exec: ExecSpec,
    /// Observability handle: pool forks report per-task spans through
    /// it. Disabled by default; the driver installs an enabled handle
    /// (and keeps [`PhaseEngine::set_obs_hour`] current) when tracing.
    pub obs: Obs,
    /// Bytes the chemistry phase staged into SoA column buffers since
    /// the last [`PhaseEngine::take_staged_bytes`] — measured, not
    /// modeled, so it drops when the zero-copy refactor lands. Atomic
    /// because `chemistry_step` takes `&self` shared into pool tasks.
    staged_bytes: std::sync::atomic::AtomicU64,
    /// Simulated hour tag attached to pool-task spans.
    obs_hour: Option<u32>,
    /// Reusable per-worker transport scratch (four-species lane vectors).
    transport_pool: WorkspacePool<LaneWorkspace>,
    /// Reusable per-partition chemistry scratch.
    chem_pool: WorkspacePool<ChemScratch>,
    /// Reusable aerosol per-cell delta buffer.
    delta_pool: WorkspacePool<Vec<CellDelta>>,
}

impl PhaseEngine {
    pub fn new(dataset: Dataset, kh: f64, chem_opts: YbOptions) -> PhaseEngine {
        let generator = InputGenerator::default();
        let inventory = InputGenerator::default_inventory(&dataset);
        let geom = ColumnGeometry::from_interfaces(&dataset.spec.layer_interfaces_m);
        let mut point_by_slot: Vec<Vec<PointSource>> = vec![Vec::new(); dataset.nodes()];
        for ps in &inventory.points {
            point_by_slot[ps.slot].push(ps.clone());
        }
        PhaseEngine {
            dataset,
            inventory,
            generator,
            mech: Mechanism::carbon_bond(),
            geom,
            chem_opts,
            kh,
            coeffs: WorkCoeffs::default(),
            background: sp::background_vector(),
            point_by_slot,
            exec: ExecSpec::default(),
            obs: Obs::off(),
            staged_bytes: std::sync::atomic::AtomicU64::new(0),
            obs_hour: None,
            transport_pool: WorkspacePool::new(),
            chem_pool: WorkspacePool::new(),
            delta_pool: WorkspacePool::new(),
        }
    }

    /// Scale every anthropogenic emission (area and point sources) by a
    /// factor — the policy-scenario knob.
    pub fn scale_emissions(&mut self, factor: f64) {
        assert!(factor >= 0.0, "emission scale must be non-negative");
        self.inventory.area_scale *= factor;
        for slot in &mut self.point_by_slot {
            for ps in slot.iter_mut() {
                ps.strength *= factor;
            }
        }
    }

    /// Tag pool-task spans recorded from here on with this simulated
    /// hour (the driver calls this at each hour boundary).
    pub fn set_obs_hour(&mut self, hour: u32) {
        self.obs_hour = Some(hour);
    }

    /// Drain the SoA staging byte counter (the driver reads it at each
    /// hour boundary for the copy-traffic counters).
    pub fn take_staged_bytes(&self) -> u64 {
        self.staged_bytes
            .swap(0, std::sync::atomic::Ordering::Relaxed)
    }

    /// Background (boundary) concentration of a species.
    pub fn background(&self, s: usize) -> f64 {
        self.background[s]
    }

    /// `inputhour`: produce the hourly input bundle. Sequential work
    /// proportional to the input data volume.
    pub fn input_hour(&self, hour: usize) -> (HourlyInput, f64) {
        let input = self.generator.generate(&self.dataset, hour);
        let work = input.data_bytes() as f64 * self.coeffs.input_per_byte;
        (input, work)
    }

    /// `pretrans`: assemble the per-layer SUPG operators for this hour's
    /// winds. Sequential (part of I/O processing in the paper's phase
    /// grouping).
    pub fn pretrans(&self, input: &HourlyInput) -> (HorizontalTransport, f64) {
        let dt_half = 0.5 * input.dt_min;
        let (op, tw) =
            HorizontalTransport::assemble(&self.dataset.mesh, &input.winds, self.kh, dt_half);
        // `assembly_elems` already counts element integrations over all
        // layers.
        let work = tw.assembly_elems as f64 * self.coeffs.pretrans_per_elem_layer;
        (op, work)
    }

    /// One transport half step over all layers and species. Returns work
    /// per *layer* (the transport distribution unit).
    ///
    /// The species of a layer share its operator, so the host items are
    /// (layer, four-species group) — each one lockstep solve
    /// ([`HorizontalTransport::half_step_lanes`]), bit-identical per
    /// plane to the one-plane solve on every backend — layer-major,
    /// BLOCK over the workers, so a worker keeps one operator in cache.
    /// The paper's "the degree of parallelism is restricted to the number
    /// of layers" stays a property of the *virtual* machine: per-plane
    /// iterations are reduced per layer, in plane order, as ever. The
    /// calling thread checks the lane workspaces out of the pool, so
    /// workers allocate nothing.
    pub fn transport_half_step(&self, op: &HorizontalTransport, state: &mut SimState) -> Vec<f64> {
        const LANES: usize = F64x4::LANES;
        let (layers, nodes, species) = (state.layers, state.nodes, state.species);
        let nnz = op.layers[0].sys.nnz() as f64;
        let groups = species.div_ceil(LANES);
        let items = layers * groups;
        let parts = ItemLayout::Block.partition(items, self.exec.parallelism().min(items));
        let mut workspaces: Vec<LaneWorkspace> = parts
            .iter()
            .map(|_| self.transport_pool.take(|| LaneWorkspace::new(nodes)))
            .collect();
        let mut per_item: Vec<Option<[SolveStats; LANES]>> = vec![None; items];
        {
            // Plane (s, l) is the contiguous chunk
            // `conc[(s*layers + l)*nodes ..][..nodes]`; item `l*groups + g`
            // owns the planes of species `4g..4g+4` in layer `l`.
            let mut planes: Vec<Option<&mut [f64]>> =
                state.conc.chunks_mut(nodes).map(Some).collect();
            let bg = &self.background;
            let mut stats_rest = per_item.as_mut_slice();
            let mut tasks: Vec<Task> = Vec::with_capacity(parts.len());
            for (part, ws) in parts.iter().zip(workspaces.iter_mut()) {
                // Block partitions are contiguous ascending ranges.
                let (stats_out, tail) = stats_rest.split_at_mut(part.len());
                stats_rest = tail;
                let owned: Vec<(usize, usize, Vec<&mut [f64]>)> = part
                    .iter()
                    .map(|&item| {
                        let (l, s0) = (item / groups, item % groups * LANES);
                        let fields = (s0..species.min(s0 + LANES))
                            .map(|s| planes[s * layers + l].take().expect("plane owned twice"))
                            .collect();
                        (l, s0, fields)
                    })
                    .collect();
                tasks.push(Box::new(move || {
                    for ((l, s0, mut fields), out) in owned.into_iter().zip(stats_out) {
                        let bg = &bg[s0..s0 + fields.len()];
                        *out = Some(op.half_step_lanes(l, &mut fields, bg, ws));
                    }
                }));
            }
            let hook = PoolHook::new(&self.obs, "transport", self.obs_hour);
            self.exec.run_observed(tasks, hook.as_observer());
        }
        for ws in workspaces {
            self.transport_pool.put(ws);
        }
        // Deterministic reduction in plane order — identical for every
        // backend and thread count.
        let mut per_layer = vec![0.0; layers];
        let mut unconverged = 0u32;
        for s in 0..species {
            for (l, work) in per_layer.iter_mut().enumerate() {
                let stats = per_item[l * groups + s / LANES].expect("item ran")[s % LANES];
                // +1: the RHS matvec and residual check are real work even
                // when the warm start already satisfies the tolerance.
                *work += (stats.iterations + 1) as f64 * nnz * self.coeffs.solve_per_nnz_iter;
                unconverged += u32::from(!stats.converged);
            }
        }
        if unconverged > 0 && self.obs.enabled() {
            // A plane that hit `max_iter` or a breakdown guard advanced
            // the state all the same; make that visible.
            let (name, n) = ("transport.unconverged", f64::from(unconverged));
            let now_us = self.obs.us_since_epoch(Instant::now());
            self.obs
                .record_counter(name, "solver", now_us, n, self.obs_hour);
        }
        per_layer
    }

    /// One chemistry step (`Lcz`): point-source injection, gas-phase
    /// kinetics per cell, then implicit vertical diffusion with surface
    /// emission and deposition. Returns work per *grid column* (the
    /// chemistry distribution unit).
    ///
    /// Execution stripes columns CYCLIC across workers — the layout §4
    /// recommends for the urban/rural load imbalance. Columns are packed
    /// into a contiguous buffer in partition order (each partition
    /// mutates one disjoint chunk), cell-major within a column
    /// (`col[l*N_SPECIES + s]`), so the same-layer cells of a partition
    /// are one strided stream for the lane kernel. The one kinetics path
    /// of every run: a cell's result and its column's charge do not
    /// depend on which cells share its lanes, so neither the partition
    /// nor the thread count can change a bit. The calling thread checks
    /// the partitions' scratch out of the engine's pool, so workers
    /// allocate nothing; the staging buffer lives for the step only
    /// (kept per engine or per thread it costs peak memory wherever
    /// engines or threads outnumber the steps in flight, and saves no
    /// measurable time).
    pub fn chemistry_step(&self, state: &mut SimState, input: &HourlyInput) -> Vec<f64> {
        let nodes = state.nodes;
        let col_len = N_SPECIES * state.layers;
        let parts = ItemLayout::Cyclic.partition(nodes, self.exec.parallelism().min(nodes));
        // Copy-traffic accounting: every column is staged out of the
        // state array and written back — 2 × the buffer size per step.
        self.staged_bytes.fetch_add(
            (2 * nodes * col_len * std::mem::size_of::<f64>()) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        let mut cols = vec![0.0f64; nodes * col_len];
        let slots = || parts.iter().flatten().zip(0..);
        for (&n, slot) in slots() {
            state.read_column_cells(n, &mut cols[slot * col_len..][..col_len]);
        }

        let mut scratch: Vec<ChemScratch> = parts
            .iter()
            .map(|_| self.chem_pool.take(ChemScratch::default))
            .collect();
        {
            let mut rest = cols.as_mut_slice();
            let mut tasks: Vec<Task> = Vec::with_capacity(parts.len());
            for (part, scratch) in parts.iter().zip(scratch.iter_mut()) {
                let (chunk, tail) = rest.split_at_mut(part.len() * col_len);
                rest = tail;
                tasks.push(Box::new(move || {
                    self.chemistry_columns(chunk, part, input, scratch)
                }));
            }
            let hook = PoolHook::new(&self.obs, "chemistry", self.obs_hour);
            self.exec.run_observed(tasks, hook.as_observer());
        }

        let mut per_column = vec![0.0f64; nodes];
        let mut ran = LaneOccupancy::default();
        for (part, scratch) in parts.iter().zip(scratch) {
            for (&n, &w) in part.iter().zip(&scratch.work) {
                per_column[n] = w;
            }
            ran.absorb(scratch.ran);
            self.chem_pool.put(scratch);
        }
        for (&n, slot) in slots() {
            state.write_column_cells(n, &cols[slot * col_len..][..col_len]);
        }
        let traced = ran.ratio().zip(ran.width()).filter(|_| self.obs.enabled());
        if let Some((occupancy, width)) = traced {
            // Measured where the work happens: vector substep attempts,
            // their width and the share of their lanes that advanced a
            // cell.
            let now_us = self.obs.us_since_epoch(Instant::now());
            let attempts = ran.vector_attempts as f64;
            for (name, v) in [
                ("chem.lane_occupancy", occupancy),
                ("chem.vector_attempts", attempts),
                ("chem.lane_width", width),
            ] {
                self.obs
                    .record_counter(name, "lanes", now_us, v, self.obs_hour);
            }
        }
        per_column
    }

    /// Point-source injection (elevated stacks) into the cell-major
    /// column `col` of grid column `n`.
    fn inject_point_sources(&self, n: usize, col: &mut [f64], dt: f64) {
        for ps in &self.point_by_slot[n] {
            let dz = self.geom.dz[ps.layer];
            for (s, info) in SPECIES.iter().enumerate() {
                col[ps.layer * N_SPECIES + s] += ps.strength * info.point_emission_weight * dt / dz;
            }
        }
    }

    /// Process the columns listed in `cols_idx` (`buf` holds one column
    /// per entry, in list order, cell-major: `col[l*N_SPECIES + s]`).
    /// Work units land in `scratch.work[k]` for column `cols_idx[k]`,
    /// each column charged the evaluations of its own cells.
    ///
    /// Rate constants depend only on `(temp, sun(layer))` — identical
    /// for every column — so they are evaluated once per layer up
    /// front (bit-identically: `RateLaw::eval` is deterministic) and
    /// shared by every cell integration in the partition.
    fn chemistry_columns(
        &self,
        buf: &mut [f64],
        cols_idx: &[usize],
        input: &HourlyInput,
        scratch: &mut ChemScratch,
    ) {
        const LANES: usize = F64x4::LANES;
        let layers = self.geom.n_layers();
        let col_len = N_SPECIES * layers;
        let dt = input.dt_min;
        scratch.k_layers.resize(layers, Vec::new());
        for (kl, &sun) in scratch.k_layers.iter_mut().zip(&input.sun_layers) {
            self.mech.rate_constants(input.temp_k, sun, kl);
        }

        for (col, &n) in buf.chunks_mut(col_len).zip(cols_idx) {
            self.inject_point_sources(n, col, dt);
        }

        // Gas-phase kinetics: the partition's cells of a layer are one
        // stream of independent lanes, one column apart.
        scratch.col_stats.clear();
        scratch.col_stats.resize(cols_idx.len(), YbStats::default());
        scratch.ran = LaneOccupancy::default();
        for (l, k) in scratch.k_layers.iter().enumerate() {
            scratch.ran.absorb(integrate_stream(
                &self.mech,
                &mut buf[l * N_SPECIES..],
                col_len,
                &mut scratch.col_stats,
                k,
                dt,
                &self.chem_opts,
                &mut scratch.lanes,
            ));
        }

        // Vertical diffusion + emission + deposition: four columns per
        // solve, each lane the scalar solve's bits; only the surface
        // emission flux differs per lane. A last group short of four
        // repeats its last column in the spare lanes and stores only the
        // real ones.
        scratch.col4.resize(layers, F64x4::zero());
        for k0 in (0..cols_idx.len()).step_by(LANES) {
            let live = LANES.min(cols_idx.len() - k0);
            let lane_col: [usize; LANES] = std::array::from_fn(|j| k0 + j.min(live - 1));
            for (s, info) in SPECIES.iter().enumerate() {
                for (l, c) in scratch.col4.iter_mut().enumerate() {
                    *c = F64x4(lane_col.map(|k| buf[k * col_len + l * N_SPECIES + s]));
                }
                let (w, hod) = (info.urban_emission_weight, input.hour_of_day);
                let emis = F64x4(lane_col.map(|k| self.inventory.area_flux(w, cols_idx[k], hod)));
                diffuse_column4(
                    &self.geom,
                    &input.kz,
                    info.deposition_m_per_min,
                    emis,
                    dt,
                    &mut scratch.col4,
                    &mut scratch.thomas4,
                );
                for (l, c) in scratch.col4.iter().enumerate() {
                    for (j, &k) in lane_col.iter().enumerate().take(live) {
                        buf[k * col_len + l * N_SPECIES + s] = c.lane(j);
                    }
                }
            }
        }

        let n_rx = self.mech.n_reactions() as f64;
        let per_column = N_SPECIES as f64 * self.coeffs.vertical_per_column_species;
        let per_reaction_eval = self.coeffs.chem_per_reaction_eval;
        let work = |col: &YbStats| col.evals as f64 * n_rx * per_reaction_eval + per_column;
        scratch.work.clear();
        scratch.work.extend(scratch.col_stats.iter().map(work));
    }

    /// The aerosol equilibrium over the replicated array. Returns
    /// (result, work units).
    ///
    /// Pass 1 (domain burdens) is the inherently sequential global scan
    /// the paper replicates; Pass 2 (per-cell uptake) blocks cells
    /// across workers, writing volume-weighted transfers into cell-
    /// indexed slots that are reduced in cell order — bit-identical to
    /// the sequential scan for every backend.
    pub fn aerosol_step(
        &self,
        state: &mut SimState,
        input: &HourlyInput,
        cell_volumes: &[f64],
    ) -> (AerosolResult, f64) {
        let layers = state.layers;
        let nodes = state.nodes;
        let cells = layers * nodes;
        let work = 2.0 * cells as f64 * self.coeffs.aerosol_per_cell;
        let (sulf, hno3, nh3) = species_blocks_mut(&mut state.conc, layers, nodes);
        let params = AerosolParams::default();
        let Some(scale) = uptake_scale(
            sulf,
            hno3,
            nh3,
            cell_volumes,
            input.temp_k,
            input.dt_min,
            &params,
        ) else {
            return (
                AerosolResult {
                    neutralization: 0.0,
                    sulfate_transferred: 0.0,
                    nitrate_transferred: 0.0,
                    ammonia_consumed: 0.0,
                },
                work,
            );
        };

        let mut deltas = self.delta_pool.take(Vec::new);
        deltas.clear();
        deltas.resize(cells, CellDelta::default());
        {
            let parts = ItemLayout::Block.partition(cells, self.exec.parallelism());
            let mut tasks: Vec<Task> = Vec::with_capacity(parts.len());
            let mut sulf = &mut *sulf;
            let mut hno3 = &mut *hno3;
            let mut nh3 = &mut *nh3;
            let mut vol = cell_volumes;
            let mut dl = deltas.as_mut_slice();
            let mut consumed = 0usize;
            for part in &parts {
                if part.is_empty() {
                    continue;
                }
                // Block partitions are contiguous ascending ranges.
                let len = part.len();
                debug_assert_eq!(part[0], consumed);
                consumed += len;
                let (s_head, s_tail) = sulf.split_at_mut(len);
                let (h_head, h_tail) = hno3.split_at_mut(len);
                let (a_head, a_tail) = nh3.split_at_mut(len);
                let (v_head, v_tail) = vol.split_at(len);
                let (d_head, d_tail) = dl.split_at_mut(len);
                sulf = s_tail;
                hno3 = h_tail;
                nh3 = a_tail;
                vol = v_tail;
                dl = d_tail;
                let scale = &scale;
                tasks.push(Box::new(move || {
                    apply_uptake(s_head, h_head, a_head, v_head, scale, d_head);
                }));
            }
            let hook = PoolHook::new(&self.obs, "aerosol", self.obs_hour);
            self.exec.run_observed(tasks, hook.as_observer());
        }
        let r = reduce_deltas(&deltas, scale.neutralization);
        self.delta_pool.put(deltas);
        (r, work)
    }

    /// `outputhour`: compute the hour summary (and stand in for writing
    /// the concentration file). Sequential.
    pub fn output_hour(&self, state: &SimState, hour: usize) -> (HourSummary, f64) {
        let summary = HourSummary::compute(state, &self.dataset, hour);
        let bytes = (state.len() * 8) as f64;
        (summary, bytes * self.coeffs.output_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetChoice;

    fn engine() -> PhaseEngine {
        PhaseEngine::new(DatasetChoice::Tiny(80).build(), 0.012, YbOptions::default())
    }

    #[test]
    fn input_hour_reports_volume_work() {
        let e = engine();
        let (input, work) = e.input_hour(8);
        assert!(work > 0.0);
        assert!((work / input.data_bytes() as f64 - e.coeffs.input_per_byte).abs() < 1e-9);
    }

    #[test]
    fn pretrans_builds_operators_for_all_layers() {
        let e = engine();
        let (input, _) = e.input_hour(10);
        let (op, work) = e.pretrans(&input);
        assert_eq!(op.layers.len(), 5);
        assert!(work > 0.0);
    }

    #[test]
    fn transport_half_step_reports_per_layer_work() {
        let e = engine();
        let mut state = SimState::from_background(&e.dataset);
        let (input, _) = e.input_hour(12);
        let (op, _) = e.pretrans(&input);
        let per_layer = e.transport_half_step(&op, &mut state);
        assert_eq!(per_layer.len(), 5);
        assert!(per_layer.iter().all(|&w| w > 0.0));
        assert!(state.is_physical());
    }

    #[test]
    fn chemistry_step_reports_per_column_work_with_imbalance() {
        let e = engine();
        let mut state = SimState::from_background(&e.dataset);
        let (input, _) = e.input_hour(12); // midday: active photochemistry
        let per_col = e.chemistry_step(&mut state, &input);
        assert_eq!(per_col.len(), e.dataset.nodes());
        assert!(per_col.iter().all(|&w| w > 0.0));
        assert!(state.is_physical());
        // Urban columns (more pollutants) should not all cost exactly the
        // same as clean ones: the distribution of work is non-uniform.
        let min = per_col.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_col.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 1.05 * min, "work should be imbalanced: {min}..{max}");
    }

    #[test]
    fn backends_match_bit_for_bit() {
        // The parallel phase loops must give identical results to the
        // serial executor (bitwise: same operations per item, merges in
        // item order) at any thread count.
        let mut e = engine();
        let (input, _) = e.input_hour(13);
        let vols = SimState::cell_volumes(&e.dataset);
        let run = |e: &PhaseEngine| {
            let mut s = SimState::from_background(&e.dataset);
            let (op, _) = e.pretrans(&input);
            let wt = e.transport_half_step(&op, &mut s);
            let wc = e.chemistry_step(&mut s, &input);
            let (ar, _) = e.aerosol_step(&mut s, &input, &vols);
            (s, wt, wc, ar)
        };
        e.exec = ExecSpec::serial();
        let (s1, wt1, wc1, ar1) = run(&e);
        for threads in [2usize, 8] {
            e.exec = ExecSpec::rayon(threads);
            let (s2, wt2, wc2, ar2) = run(&e);
            assert_eq!(s1.conc, s2.conc, "threads={threads}");
            assert_eq!(wt1, wt2, "threads={threads}");
            assert_eq!(wc1, wc2, "threads={threads}");
            assert_eq!(ar1, ar2, "threads={threads}");
        }
    }

    #[test]
    fn transport_is_bit_identical_at_every_thread_count() {
        // One kernel at every thread count: the state and the per-layer
        // charges equal serial's bit for bit, whether the (layer,
        // species-group) items outnumber the threads or not (tiny: 45
        // items against 64 threads).
        let mut e = engine();
        let (input, _) = e.input_hour(13);
        let (op, _) = e.pretrans(&input);
        // Chemistry first, so no plane is the uniform background.
        let mut start = SimState::from_background(&e.dataset);
        e.exec = ExecSpec::serial();
        e.chemistry_step(&mut start, &input);
        let run = |e: &PhaseEngine| {
            let mut s = start.clone();
            let w1 = e.transport_half_step(&op, &mut s);
            let w2 = e.transport_half_step(&op, &mut s);
            (s.conc, w1, w2)
        };
        let want = run(&e);
        assert!(want.1.iter().all(|&w| w > 0.0) && want.1 != want.2);
        for spec in [2usize, 4, 8, 64].map(ExecSpec::rayon) {
            e.exec = spec;
            assert!(run(&e) == want, "{} differs from serial", spec.describe());
        }
    }

    #[test]
    fn unconverged_planes_are_counted_on_the_trace() {
        use crate::obs::{SpanSink, Track};
        use std::sync::Arc;
        let mut e = engine();
        let sink = Arc::new(SpanSink::new());
        e.obs = Obs::new(sink.clone());
        let (input, _) = e.input_hour(13);
        let (mut op, _) = e.pretrans(&input);
        let mut state = SimState::from_background(&e.dataset);
        e.chemistry_step(&mut state, &input);
        let counters = |sink: &SpanSink| -> Vec<f64> {
            e.obs.flush();
            sink.events()
                .iter()
                .filter(|r| r.name == "transport.unconverged")
                .map(|r| {
                    assert_eq!(r.track, Track::Counter("solver"));
                    r.dur_us
                })
                .collect()
        };
        // Every plane converges: nothing is recorded.
        let converged = e.transport_half_step(&op, &mut state.clone());
        assert!(counters(&sink).is_empty());
        // One iteration is not enough for most planes; the state still
        // advances, and the count says how many planes that was.
        op.max_iter = 1;
        let capped = e.transport_half_step(&op, &mut state);
        let seen = counters(&sink);
        assert_eq!(seen.len(), 1);
        let planes = (state.species * state.layers) as f64;
        assert!(seen[0] >= 1.0 && seen[0] <= planes, "{seen:?} of {planes}");
        // A capped plane is charged the one iteration it did.
        assert!(capped.iter().zip(&converged).all(|(c, w)| c < w));
    }

    /// Per grid column, Σ over its cells of the scalar integrator's
    /// statistics on the state `chemistry_step` integrates.
    fn scalar_column_stats(e: &PhaseEngine, state: &SimState, input: &HourlyInput) -> Vec<YbStats> {
        use airshed_chem::youngboris::{integrate_cell_with_k, YbWorkspace};
        let mut ws = YbWorkspace::new(N_SPECIES);
        let mut k = Vec::new();
        let mut col = vec![0.0; N_SPECIES * state.layers];
        (0..state.nodes)
            .map(|n| {
                state.read_column_cells(n, &mut col);
                e.inject_point_sources(n, &mut col, input.dt_min);
                let mut total = YbStats::default();
                for (cell, &sun) in col.chunks_mut(N_SPECIES).zip(&input.sun_layers) {
                    e.mech.rate_constants(input.temp_k, sun, &mut k);
                    total.absorb(integrate_cell_with_k(
                        &e.mech,
                        cell,
                        &k,
                        input.dt_min,
                        &e.chem_opts,
                        &mut ws,
                    ));
                }
                total
            })
            .collect()
    }

    /// The production/loss evaluations behind a column's chemistry
    /// charge `w`.
    fn charged_evals(e: &PhaseEngine, w: f64) -> f64 {
        let per_eval = e.mech.n_reactions() as f64 * e.coeffs.chem_per_reaction_eval;
        let per_column = N_SPECIES as f64 * e.coeffs.vertical_per_column_species;
        (w - per_column) / per_eval
    }

    /// A state a few steps away from the uniform background.
    fn developed_state(e: &PhaseEngine, input: &HourlyInput) -> SimState {
        let mut state = SimState::from_background(&e.dataset);
        let (op, _) = e.pretrans(input);
        for _ in 0..2 {
            e.chemistry_step(&mut state, input);
            e.transport_half_step(&op, &mut state);
        }
        state
    }

    #[test]
    fn every_column_is_charged_its_own_cells_evaluations_on_every_backend() {
        // The virtual machine's chemistry work is the scalar count: a
        // column's charge is Σ `integrate_cell_with_k(..).evals` over
        // its cells, whichever cells shared its lanes.
        let mut e = engine();
        let (input, _) = e.input_hour(13);
        let start = developed_state(&e, &input);
        let want = scalar_column_stats(&e, &start, &input);
        for spec in [ExecSpec::serial(), ExecSpec::rayon(3)] {
            e.exec = spec;
            let charged = e.chemistry_step(&mut start.clone(), &input);
            for (n, (&w, stats)) in charged.iter().zip(&want).enumerate() {
                let evals = charged_evals(&e, w);
                assert_eq!(evals, stats.evals as f64, "{} column {n}", spec.describe());
            }
        }
    }

    #[test]
    fn lane_occupancy_on_the_trace_reconciles_with_the_charged_evaluations() {
        use crate::obs::{SpanSink, Track};
        use airshed_chem::simd::Instantiation;
        use std::sync::Arc;
        let mut e = engine();
        e.exec = ExecSpec::rayon(3);
        let (input, _) = e.input_hour(13);
        let start = developed_state(&e, &input);
        let stats = scalar_column_stats(&e, &start, &input);
        // Untraced: nothing recorded, same bits.
        let mut untraced = start.clone();
        let charged = e.chemistry_step(&mut untraced, &input);
        let sink = Arc::new(SpanSink::new());
        e.obs = Obs::new(sink.clone());
        let mut traced = start.clone();
        assert_eq!(e.chemistry_step(&mut traced, &input), charged);
        assert_eq!(traced.conc, untraced.conc);
        e.obs.flush();
        let counter = |name: &str| {
            let seen: Vec<f64> = sink
                .events()
                .iter()
                .filter(|r| r.name == name)
                .map(|r| {
                    assert_eq!(r.track, Track::Counter("lanes"));
                    r.dur_us
                })
                .collect();
            assert_eq!(seen.len(), 1, "{name}");
            seen[0]
        };
        let occupancy = counter("chem.lane_occupancy");
        let width = counter("chem.lane_width");
        assert_eq!(width, Instantiation::host().lanes() as f64);
        let lanes_run = width * counter("chem.vector_attempts");
        // The charged evaluations, measured through the work vector ...
        let evals: f64 = charged.iter().map(|&w| charged_evals(&e, w)).sum();
        // ... are two per lane-attempt, less the evaluation at the top of
        // an attempt that follows a rejected one: that slack, exactly.
        let rejected: u64 = stats.iter().map(|s| s.rejected).sum();
        assert!(rejected > 0);
        let from_evals = evals / (2.0 * lanes_run);
        let slack = rejected as f64 / (2.0 * lanes_run);
        assert!(
            (occupancy - (from_evals + slack)).abs() < 1e-12,
            "{occupancy} vs {from_evals} + {slack}"
        );
        assert!(occupancy > 0.7 && occupancy <= 1.0, "occupancy {occupancy}");
    }

    #[test]
    fn emissions_accumulate_in_urban_surface_air() {
        let e = engine();
        let mut state = SimState::from_background(&e.dataset);
        // Flatten CO so the signal is the rush-hour emission flux, not
        // the initial urban enrichment being mixed aloft.
        let co_bg = sp::SPECIES[sp::CO].background_ppm;
        for l in 0..state.layers {
            state
                .plane_mut(sp::CO, l)
                .iter_mut()
                .for_each(|c| *c = co_bg);
        }
        let (input, _) = e.input_hour(8); // morning rush
        let hot = e
            .dataset
            .mesh
            .nearest_free(airshed_grid::geometry::Point::new(35.0, 40.0));
        let cold = e
            .dataset
            .mesh
            .nearest_free(airshed_grid::geometry::Point::new(95.0, 95.0));
        for _ in 0..4 {
            e.chemistry_step(&mut state, &input);
        }
        let co = state.plane(sp::CO, 0);
        assert!(
            co[hot] > co_bg * 1.05,
            "urban surface CO should rise above background: {}",
            co[hot]
        );
        assert!(
            co[hot] > co[cold],
            "urban CO {} should exceed rural {}",
            co[hot],
            co[cold]
        );
    }

    #[test]
    fn aerosol_step_runs_and_charges_fixed_work() {
        let e = engine();
        let mut state = SimState::from_background(&e.dataset);
        let (input, _) = e.input_hour(14);
        let vols = SimState::cell_volumes(&e.dataset);
        let (r, work) = e.aerosol_step(&mut state, &input, &vols);
        assert!(work > 0.0);
        assert!(r.neutralization >= 0.0);
        assert!(state.is_physical());
    }

    #[test]
    fn aerosol_step_matches_standalone_equilibrium() {
        // The engine's partitioned aerosol pass must equal the chem
        // crate's sequential reference exactly — state and diagnostics.
        let mut e = engine();
        e.exec = ExecSpec::rayon(4);
        let mut state = SimState::from_background(&e.dataset);
        let (input, _) = e.input_hour(14);
        let vols = SimState::cell_volumes(&e.dataset);
        let mut reference = state.conc.clone();
        let want = airshed_chem::aerosol::equilibrium_step(
            &mut reference,
            state.layers,
            state.nodes,
            &vols,
            input.temp_k,
            input.dt_min,
            &AerosolParams::default(),
        );
        let (got, _) = e.aerosol_step(&mut state, &input, &vols);
        assert_eq!(want, got);
        assert_eq!(state.conc, reference);
    }

    #[test]
    fn output_hour_summarises() {
        let e = engine();
        let state = SimState::from_background(&e.dataset);
        let (summary, work) = e.output_hour(&state, 3);
        assert_eq!(summary.hour, 3);
        assert!(work > 0.0);
    }
}
