//! `dsol`: the paper's production scenario on one block — the
//! `directional_solidification` example at 48×48×64 with 2 sweep threads
//! and the moving window, ending with per-phase mesh output and the
//! census / S2 / PCA analysis. No comm and no pfio traffic: the kernels
//! and the sweep pool do almost all of the work.

use std::collections::BTreeMap;
use std::time::Instant;

use eutectica_analysis::correlation::{radial_average, two_point_correlation};
use eutectica_analysis::front::{front_height_map, front_mean};
use eutectica_analysis::patterns::census_slice;
use eutectica_analysis::pca::Pca;
use eutectica_campaign::field_checksum;
use eutectica_core::health::{scan_block, HealthConfig};
use eutectica_core::kernels::{self, MuPart};
use eutectica_core::prelude::*;
use eutectica_core::sweep_pool::SweepPool;
use eutectica_mesh::extract::extract_isosurface;
use eutectica_mesh::reduce::{reduce_local, ReduceOptions};
use eutectica_telemetry::Telemetry;
use eutectica_thermo::Phase;

use crate::trace::{Trace, Tracer};
use crate::{layers, secs, Checks, EndToEnd, Outcome, RunOpts};

const CELLS: [usize; 3] = [48, 48, 64];
const THREADS: usize = 2;
const STEPS: usize = 240;
/// Untraced jobs per run, at least (the median over jobs needs a few).
const MIN_JOBS: usize = 5;
/// Lower than the example's 0.6, which never shifts in a run this short:
/// at 0.25 the first shift comes after about 100 steps.
const TRIGGER: f64 = 0.25;
/// Every `PROBE_EVERY`-th traced step also runs the serial kernels on a
/// copy of the same state (the sweep pool's single-threaded baseline).
const PROBE_EVERY: usize = 16;

/// The example's process parameters.
pub fn params() -> ModelParams {
    let mut p = ModelParams::ag_al_cu();
    p.t0 = 0.93;
    p.grad_g = 0.002;
    p.vel_v = 0.05;
    p
}

fn setup(seed: u64) -> Simulation {
    let mut sim = Simulation::new(params(), CELLS).expect("valid dsol setup");
    sim.set_telemetry(Telemetry::disabled());
    sim.set_threads(THREADS);
    sim.init_directional(seed);
    sim.enable_moving_window(TRIGGER);
    sim
}

/// One step of [`Simulation::step`] replayed through the public functions
/// it is built from, each call in its own span. Bit-identical to
/// `Simulation::step` on a simulation without an attached pool.
pub fn replay_step(sim: &mut Simulation, pool: &SweepPool, window: Option<f64>, tr: &mut Tracer) {
    sweeps(sim, pool, tr);
    advance(sim, window, tr);
}

/// The φ-sweep, φ boundaries, µ-sweep and µ boundaries of one step;
/// returns the seconds the two sweeps took.
fn sweeps(sim: &mut Simulation, pool: &SweepPool, tr: &mut Tracer) -> f64 {
    let tel = Telemetry::disabled();
    let (time, cfg) = (sim.time(), sim.cfg);
    let (params, state) = (&sim.params, &mut sim.state);
    let t = Instant::now();
    tr.time("kernels.phi", || {
        pool.phi_sweep(params, state, time, cfg, &tel)
    });
    let phi = t.elapsed();
    tr.time("solver.bc", || state.bc_phi.apply(&mut state.phi_dst));
    let t = Instant::now();
    tr.time("kernels.mu", || {
        pool.mu_sweep(params, state, time, cfg, MuPart::Full, &tel)
    });
    let mu = t.elapsed();
    tr.time("solver.bc", || state.bc_mu.apply(&mut state.mu_dst));
    secs(phi + mu)
}

/// The rest of the step: swap, moving-window shifts, progress counters.
fn advance(sim: &mut Simulation, window: Option<f64>, tr: &mut Tracer) {
    tr.time("solver.swap", || sim.state.swap());
    let mut shifts = sim.window_shifts();
    if let Some(frac) = window {
        let s = tr.open("solver.window");
        let trigger = sim.state.dims.nz as f64 * frac;
        while sim.front_position() - sim.state.origin[2] as f64 > trigger {
            let st = &mut sim.state;
            st.shift_window_up();
            shifts += 1;
            st.apply_bc_src();
            st.bc_phi.apply(&mut st.phi_dst);
            st.bc_mu.apply(&mut st.mu_dst);
        }
        tr.close(s);
    }
    sim.set_progress(sim.time() + sim.params.dt, sim.steps() + 1, shifts);
}

/// Serial φ- and µ-sweep of a copy of `sim`'s state: returns the seconds
/// they took and the copy, for comparison with the pooled result.
fn serial_probe(sim: &Simulation) -> (f64, BlockState) {
    let mut copy = sim.state.clone();
    let t = Instant::now();
    kernels::phi_sweep(&sim.params, &mut copy, sim.time(), sim.cfg);
    let phi = t.elapsed();
    copy.bc_phi.apply(&mut copy.phi_dst);
    let t = Instant::now();
    kernels::mu_sweep(&sim.params, &mut copy, sim.time(), sim.cfg, MuPart::Full);
    let serial = secs(phi + t.elapsed());
    copy.bc_mu.apply(&mut copy.mu_dst);
    (serial, copy)
}

fn same_dst_bits(a: &BlockState, b: &BlockState) -> bool {
    let bits = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
    (0..N_PHASES).all(|c| bits(a.phi_dst.comp(c), b.phi_dst.comp(c)))
        && (0..N_COMP).all(|c| bits(a.mu_dst.comp(c), b.mu_dst.comp(c)))
}

/// Mesh output, analysis and output checks of a finished job; returns its
/// final checksum and the triangle counts before and after reduction.
fn finish(sim: &Simulation, tr: &mut Tracer, checks: &mut Checks) -> (u64, usize, usize) {
    let (mut tris_in, mut tris_out) = (0, 0);
    for phase in [Phase::AlFcc, Phase::Ag2Al, Phase::Al2Cu] {
        let st = &sim.state;
        let mesh = tr.time("mesh.extract", || {
            extract_isosurface(
                st.phi_src.comp(phase as usize),
                st.dims,
                [0.0, 0.0, st.origin[2] as f64],
                0.5,
            )
        });
        tris_in += mesh.num_triangles();
        let reduced = tr.time("mesh.reduce", || {
            reduce_local(vec![mesh], &ReduceOptions::default())
        });
        tris_out += reduced.num_triangles();
        let mut stl = Vec::new();
        let written = tr.time("mesh.write", || reduced.write_stl(&mut stl));
        checks.check(
            written.is_ok() && reduced.num_triangles() > 0 && !stl.is_empty(),
            format_args!("dsol writes a non-empty {} mesh", phase.name()),
        );
    }
    let explained = tr.time("analysis", || analyze(sim));
    checks.check(
        (0.0..=1.0 + 1e-9).contains(&explained),
        format_args!("dsol PCA explains a valid share of the variance ({explained})"),
    );
    let scan = tr.time("health.scan", || {
        scan_block(&sim.state, &HealthConfig::for_params(&sim.params), 0)
    });
    checks.check(
        scan.violations() == 0,
        format_args!("dsol final state passes the health invariants ({scan:?})"),
    );
    checks.check(
        sim.window_shifts() >= 1,
        "dsol shifts the moving window at least once",
    );
    let sum = tr.time("bench.check", || field_checksum(&sim.state));
    (sum, tris_in, tris_out)
}

/// Front map, cross-section pattern census and the S2 + PCA summary of the
/// example; returns the share of variance the first component explains.
fn analyze(sim: &Simulation) -> f64 {
    let map = front_height_map(&sim.state);
    std::hint::black_box(front_mean(&map));
    let g = sim.state.dims.ghost;
    for phase in [Phase::AlFcc, Phase::Ag2Al, Phase::Al2Cu] {
        std::hint::black_box(census_slice(&sim.state, phase as usize, g + 4, 4));
    }
    let sub = 32usize;
    let features: Vec<Vec<f64>> = (0..3)
        .map(|phase| {
            let mask: Vec<f64> = (0..sub * sub * sub)
                .map(|i| {
                    let (x, y, z) = (i % sub, (i / sub) % sub, i / (sub * sub));
                    f64::from(u8::from(
                        sim.state.phi_src.at(phase, x + g, y + g, z + g) > 0.5,
                    ))
                })
                .collect();
            let corr = two_point_correlation(&mask, [sub, sub, sub]);
            radial_average(&corr, [sub, sub, sub], 12)
        })
        .collect();
    Pca::fit(&features).explained_variance(1)
}

/// Seconds of one set-up (construction and init), dropped afterwards.
pub fn setup_secs(opts: &RunOpts) -> f64 {
    let t = Instant::now();
    let sim = setup(opts.seed);
    let s = secs(t.elapsed());
    drop(sim);
    s
}

/// One untraced job; returns its checksum.
fn job(opts: &RunOpts, e2e: &mut EndToEnd, checks: &mut Checks) -> u64 {
    let mut sim = setup(opts.seed);
    let start = Instant::now();
    let mut step_ms = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let t = Instant::now();
        sim.step();
        step_ms.push(secs(t.elapsed()) * 1e3);
    }
    e2e.step_ms.push(step_ms);
    let step_secs = secs(start.elapsed());
    let (sum, _, _) = finish(&sim, &mut Tracer::off(), checks);
    let cell_updates = (CELLS.iter().product::<usize>() * STEPS) as f64;
    e2e.job(secs(start.elapsed()), cell_updates, step_secs, (1, 1));
    checks.check(true, "dsol job");
    sum
}

/// Sums of one traced replay.
#[derive(Default)]
struct Replay {
    serial_s: f64,
    pooled_s: f64,
    tris_in: usize,
    tris_out: usize,
    shifts: usize,
    tts_s: Vec<f64>,
}

/// One traced job: every step replayed call by call.
fn traced_job(opts: &RunOpts, tr: &mut Tracer, r: &mut Replay, checks: &mut Checks) -> u64 {
    let mut sim = setup(opts.seed);
    let pool = sim.take_pool().expect("dsol runs a sweep pool");
    let root = tr.open("dsol.job");
    let start = Instant::now();
    let mut probe_s = 0.0;
    for step in 0..STEPS {
        if step % PROBE_EVERY != 0 {
            replay_step(&mut sim, &pool, Some(TRIGGER), tr);
            continue;
        }
        let p = tr.open("bench.probe");
        let t = Instant::now();
        let (serial, copy) = serial_probe(&sim);
        probe_s += secs(t.elapsed());
        tr.close(p);
        r.serial_s += serial;
        r.pooled_s += sweeps(&mut sim, &pool, tr);
        // Compare before the swap hides the freshly written fields.
        let p = tr.open("bench.probe");
        let t = Instant::now();
        checks.check(
            same_dst_bits(&copy, &sim.state),
            "dsol pooled sweeps equal the serial sweeps bit for bit",
        );
        drop(copy);
        probe_s += secs(t.elapsed());
        tr.close(p);
        advance(&mut sim, Some(TRIGGER), tr);
    }
    let (sum, tin, tout) = finish(&sim, tr, checks);
    r.tts_s.push(secs(start.elapsed()) - probe_s);
    tr.close(root);
    r.tris_in += tin;
    r.tris_out += tout;
    r.shifts += sim.window_shifts();
    sum
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::default();
    let mut checksums = Vec::new();
    let mut layers_out = BTreeMap::new();
    let start = Instant::now();
    if !opts.trace {
        while opts.more(start, checksums.len(), MIN_JOBS) {
            checksums.push(job(opts, &mut e2e, &mut checks));
        }
    } else {
        let mut tr = Tracer::new(0, Instant::now());
        let mut r = Replay::default();
        let mut jobs = 0;
        while opts.more(start, jobs, 1) {
            checksums.push(job(opts, &mut e2e, &mut checks));
            let traced = traced_job(opts, &mut tr, &mut r, &mut checks);
            checks.check(
                traced == checksums[0],
                "dsol traced replay ends on the untraced checksum",
            );
            jobs += 1;
        }
        let mut trace = Trace::default();
        trace.absorb(tr);
        let n = jobs as f64;
        let mut m = layers::zeroed();
        let cell_updates = (CELLS.iter().product::<usize>() * STEPS) as f64;
        layers::kernels(
            &mut m,
            &params(),
            cell_updates,
            trace.secs("kernels.phi") / n,
            trace.secs("kernels.mu") / n,
            THREADS,
            opts.host.expect("traced runs probe the host first"),
        );
        m.insert("sweep_pool.speedup", r.serial_s / r.pooled_s);
        m.insert("solver.bc_s", trace.secs("solver.bc") / n);
        m.insert("solver.window_s", trace.secs("solver.window") / n);
        m.insert("solver.window_shifts", r.shifts as f64 / n);
        m.insert("health.scan_s", trace.secs("health.scan") / n);
        m.insert("health.scans", trace.count("health.scan") as f64 / n);
        m.insert("mesh.extract_s", trace.secs("mesh.extract") / n);
        m.insert("mesh.reduce_s", trace.secs("mesh.reduce") / n);
        m.insert("mesh.triangles_in", r.tris_in as f64 / n);
        m.insert("mesh.triangles_out", r.tris_out as f64 / n);
        m.insert("analysis.s", trace.secs("analysis") / n);
        m.insert("unattributed_pct", trace.unattributed_pct(&["bench.probe"]));
        m.insert(
            "trace.overhead_pct",
            layers::overhead_pct(&r.tts_s, &e2e.tts_s),
        );
        layers::write_trace(&trace, opts, "dsol", usize::MAX);
        layers_out = m;
    }
    Outcome {
        checks,
        checksums,
        e2e,
        layers: layers_out,
    }
}
