//! `dist`: 2 thread-ranks × 1 sweep thread on a 32×32×64 domain split into
//! 2×2×4 blocks of 16³ (static contiguous placement), seeded Voronoi init,
//! both comm-hiding options, cadenced health scans, in-situ observation
//! and checkpoint sets; the job ends with a restore into a fresh
//! simulation and a hierarchical mesh reduction over the ranks. Small
//! blocks and many ghost faces: comm, ghost, health, pfio, obsv and mesh
//! work weigh more than on `dsol`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::{ghost, Face};
use eutectica_campaign::field_checksum;
use eutectica_comm::{Rank, Universe};
use eutectica_core::health::{scan_block, HealthConfig, HealthMonitor};
use eutectica_core::init::{default_seed_count, init_directional_block, VoronoiSeeds};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{DistributedSim, OverlapOptions};
use eutectica_core::{N_COMP, N_PHASES};
use eutectica_mesh::extract::extract_isosurface;
use eutectica_mesh::reduce::{reduce_local, reduce_over_ranks, ReduceOptions};
use eutectica_obsv::{InSituObserver, ObservablesConfig};
use eutectica_pfio::ckpt::{find_latest_checkpoint, Precision, DEFAULT_BYTE_BUDGET};
use eutectica_pfio::resilient::SimCheckpointExt;
use eutectica_telemetry::Telemetry;

use crate::trace::{Trace, Tracer};
use crate::{layers, secs, stats, Checks, EndToEnd, Outcome, RunOpts};

const CELLS: [usize; 3] = [32, 32, 64];
const BLOCKS: [usize; 3] = [2, 2, 4];
const RANKS: usize = 2;
const STEPS: usize = 200;
/// Untraced jobs per run, at least (the median over jobs needs a few).
const MIN_JOBS: usize = 5;
const HEALTH_EVERY: usize = 10;
const OBSERVE_EVERY: usize = 20;
/// A divisor of `STEPS`, so the newest set holds the final state.
const CKPT_EVERY: usize = 50;
const OVERLAP: OverlapOptions = OverlapOptions {
    hide_mu: true,
    hide_phi: true,
};

fn decomp() -> Decomposition {
    Decomposition::new(DomainSpec::directional(CELLS, BLOCKS))
}

/// Ghost bytes and messages one step sends between ranks, from the
/// analytic face-message sizes: with both hiding options on, a step sends
/// the sequenced φ_dst exchange (4 components, edges included) and the
/// plain µ_src exchange (2 components, faces only) over every face whose
/// neighbour lives on another rank.
fn analytic_ghost_traffic(decomp: &Decomposition) -> (u64, u64) {
    let (mut bytes, mut msgs) = (0, 0);
    for b in decomp.blocks() {
        let dims = b.dims(1);
        for face in Face::ALL {
            let Some(nb) = b.neighbors[face as usize] else {
                continue;
            };
            if decomp.rank_of(nb, RANKS) != decomp.rank_of(b.id, RANKS) {
                bytes += ghost::message_bytes(dims, face, N_PHASES)
                    + ghost::message_bytes_plain(dims, face, N_COMP);
                msgs += 2;
            }
        }
    }
    (bytes, msgs)
}

fn same_fields(a: &BlockState, b: &BlockState) -> bool {
    a.origin == b.origin
        && a.dims.interior_iter().all(|(x, y, z)| {
            (0..N_PHASES)
                .all(|c| a.phi_src.at(c, x, y, z).to_bits() == b.phi_src.at(c, x, y, z).to_bits())
                && (0..N_COMP)
                    .all(|c| a.mu_src.at(c, x, y, z).to_bits() == b.mu_src.at(c, x, y, z).to_bits())
        })
}

/// Layer numbers the program's own telemetry recorded (traced jobs only).
#[derive(Default)]
struct Recorded {
    step_s: f64,
    phi_s: f64,
    mu_s: f64,
    comm_s: f64,
    bc_s: f64,
    scan_s: f64,
    scans: f64,
}

impl Recorded {
    fn read(tel: &Telemetry) -> Self {
        let node = |p: &str| tel.node_secs(p).unwrap_or(0.0);
        Self {
            step_s: node("step"),
            phi_s: node("step/phi_sweep"),
            mu_s: node("step/mu_sweep_local") + node("step/mu_sweep_neighbor"),
            comm_s: node("step/phi_comm") + node("step/mu_comm"),
            bc_s: node("step/bc"),
            scan_s: node("step/health_scan"),
            scans: tel
                .metrics_snapshot()
                .counters
                .get("health/scans")
                .copied()
                .unwrap_or(0) as f64,
        }
    }
}

/// One rank's share of one job.
struct RankOut {
    /// First step and validated output, seconds since the job's epoch.
    start_s: f64,
    end_s: f64,
    step_s: Vec<f64>,
    parts: Vec<(usize, u64)>,
    checks: Checks,
    ghost_bytes: u64,
    ghost_msgs: u64,
    recv_wait_s: f64,
    ckpt_bytes: u64,
    records: usize,
    tris: (usize, usize),
    recorded: Recorded,
    tracer: Tracer,
}

/// Construction and init of one rank's share of a job; returns the
/// simulation and its health-scan configuration.
fn build(rank: &Rank, seed: u64, traced: bool) -> (DistributedSim<'_>, HealthConfig) {
    let params = crate::dsol::params();
    let health = HealthConfig::for_params(&params);
    let seeds = VoronoiSeeds::generate(
        [CELLS[0], CELLS[1]],
        default_seed_count(CELLS[0], CELLS[1]),
        params.sys.eutectic_fractions(),
        seed,
    );
    let mut sim = DistributedSim::new(rank, params, decomp(), KernelConfig::default(), OVERLAP);
    if !traced {
        sim.set_telemetry(Telemetry::disabled());
    }
    sim.set_threads(1);
    sim.init_blocks(|b| init_directional_block(b, &seeds, CELLS[2] / 4));
    sim.set_health_monitor(Some(HealthMonitor::new(health.with_every(HEALTH_EVERY))));
    (sim, health)
}

/// Seconds of one set-up on every rank (the slowest rank's).
pub fn setup_secs(opts: &RunOpts) -> f64 {
    let seed = opts.seed;
    let per_rank = Universe::run(RANKS, move |rank| {
        let t = Instant::now();
        let built = build(&rank, seed, false);
        rank.barrier();
        let s = secs(t.elapsed());
        drop(built);
        s
    });
    per_rank.into_iter().fold(0.0, f64::max)
}

/// One job on one rank.
fn rank_job(rank: &Rank, seed: u64, root: &Path, epoch: Instant, traced: bool) -> RankOut {
    let mut tr = if traced {
        Tracer::new(rank.rank(), epoch)
    } else {
        Tracer::off()
    };
    let mut checks = Checks::default();
    let (mut sim, health) = build(rank, seed, traced);
    let mut observer = InSituObserver::new(ObservablesConfig::with_every(OBSERVE_EVERY));
    let traffic0 = sim.comm_field_traffic();
    let wait0 = rank.stats().recv_wait_time;
    rank.barrier();

    let start_s = secs(epoch.elapsed());
    let root_span = tr.open("dist.job");
    let mut step_s = Vec::with_capacity(STEPS);
    let mut ckpt_bytes = 0;
    for s in 1..=STEPS {
        let t = Instant::now();
        tr.time("timeloop.step", || sim.step());
        step_s.push(secs(t.elapsed()));
        if observer.due(sim.step_index()) {
            tr.time("obsv.observe", || observer.observe_distributed(&sim));
        }
        if s % CKPT_EVERY == 0 {
            let w = tr.time("pfio.ckpt_write", || {
                sim.write_checkpoint_set(root, Precision::F64)
            });
            if checks.check(
                w.is_ok(),
                format_args!("dist checkpoint set at step {s}: {w:?}"),
            ) {
                ckpt_bytes += w.unwrap_or(0);
            }
        }
    }

    // Per-step ghost traffic, read before the restore's ghost refresh and
    // the mesh reduction add traffic of their own.
    let traffic = sim.comm_field_traffic();
    let sent = |f: &str| {
        let (now, then) = (
            traffic.get(f).copied().unwrap_or_default(),
            traffic0.get(f).copied().unwrap_or_default(),
        );
        (
            now.bytes_sent - then.bytes_sent,
            now.messages_sent - then.messages_sent,
        )
    };
    let ghost_bytes = sent("phi_dst").0 + sent("mu_src").0;
    let ghost_msgs = sent("phi_dst").1 + sent("mu_src").1;
    let recv_wait_s = secs(rank.stats().recv_wait_time - wait0);

    let scan = tr.time("health.scan", || {
        sim.blocks
            .iter()
            .zip(sim.local_block_ids())
            .map(|(b, &id)| scan_block(b, &health, id as u64).violations())
            .sum::<u64>()
    });
    checks.check(scan == 0, "dist final state passes the health invariants");
    checks.check(
        sim.take_unhealthy_report().is_none(),
        "dist cadenced health scans stay healthy",
    );

    let restored = tr.time("pfio.restore", || {
        let mut fresh = DistributedSim::new(
            rank,
            sim.params.clone(),
            decomp(),
            KernelConfig::default(),
            OVERLAP,
        );
        fresh.set_telemetry(Telemetry::disabled());
        let latest = find_latest_checkpoint(root).ok().flatten();
        let ok = matches!(latest, Some((step, _)) if step as usize == STEPS);
        let dir = latest.map_or_else(|| root.to_path_buf(), |(_, d)| d);
        fresh
            .restore_from_set(&dir, DEFAULT_BYTE_BUDGET)
            .map(|()| (ok, fresh))
    });
    let restored_ok = match &restored {
        Ok((latest_ok, fresh)) => {
            *latest_ok
                && fresh.step_index() == sim.step_index()
                && fresh.time().to_bits() == sim.time().to_bits()
                && fresh
                    .blocks
                    .iter()
                    .zip(&sim.blocks)
                    .all(|(a, b)| same_fields(a, b))
        }
        Err(_) => false,
    };
    checks.check(
        restored_ok,
        "dist restored set equals the in-memory blocks bit for bit",
    );
    drop(restored);

    let (mut tris_in, mut tris_out) = (0, 0);
    let opts = ReduceOptions::default();
    for phase in 0..3 {
        let meshes: Vec<_> = tr.time("mesh.extract", || {
            sim.blocks
                .iter()
                .map(|b| {
                    let o = b.origin.map(|v| v as f64);
                    extract_isosurface(b.phi_src.comp(phase), b.dims, o, 0.5)
                })
                .collect()
        });
        tris_in += meshes.iter().map(|m| m.num_triangles()).sum::<usize>();
        let reduced = tr.time("mesh.reduce", || {
            reduce_over_ranks(rank, reduce_local(meshes, &opts), &opts)
        });
        if let Some(mesh) = reduced {
            tris_out += mesh.num_triangles();
            checks.check(
                mesh.num_triangles() > 0,
                format_args!("dist reduces a non-empty phase-{phase} mesh"),
            );
        }
    }
    let parts = tr.time("bench.check", || {
        sim.blocks
            .iter()
            .zip(sim.local_block_ids())
            .map(|(b, &id)| (id, field_checksum(b)))
            .collect()
    });
    tr.close(root_span);
    let end_s = secs(epoch.elapsed());
    RankOut {
        start_s,
        end_s,
        step_s,
        parts,
        checks,
        ghost_bytes,
        ghost_msgs,
        recv_wait_s,
        ckpt_bytes,
        records: observer.records().len(),
        tris: (tris_in, tris_out),
        recorded: if traced {
            Recorded::read(sim.telemetry())
        } else {
            Recorded::default()
        },
        tracer: tr,
    }
}

/// One job over all ranks, with its checkpoints under `root`.
fn job(seed: u64, root: PathBuf, traced: bool) -> Vec<RankOut> {
    let _ = std::fs::remove_dir_all(&root);
    let root = Arc::new(root);
    let epoch = Instant::now();
    let dir = Arc::clone(&root);
    let out = Universe::run(RANKS, move |rank| {
        rank_job(&rank, seed, &dir, epoch, traced)
    });
    let _ = std::fs::remove_dir_all(&*root);
    out
}

/// Fold one job's rank results into the run: returns (checksum, tts).
fn absorb(outs: &mut [RankOut], checks: &mut Checks, e2e: Option<&mut EndToEnd>) -> (u64, f64) {
    let parts: Vec<_> = outs.iter().flat_map(|o| o.parts.iter().copied()).collect();
    checks.check(
        parts.len() == BLOCKS.iter().product::<usize>(),
        "dist job returns every block",
    );
    let (bytes, msgs) = analytic_ghost_traffic(&decomp());
    let (sent_b, sent_m): (u64, u64) = outs
        .iter()
        .fold((0, 0), |(b, m), o| (b + o.ghost_bytes, m + o.ghost_msgs));
    checks.check(
        sent_b == bytes * STEPS as u64 && sent_m == msgs * STEPS as u64,
        format_args!(
            "dist ghost traffic {sent_b} B / {sent_m} msgs over {STEPS} steps equals the analytic \
             {bytes} B / {msgs} msgs per step"
        ),
    );
    for o in outs.iter_mut() {
        checks.merge(std::mem::take(&mut o.checks));
    }
    let start = outs.iter().map(|o| o.start_s).fold(f64::INFINITY, f64::min);
    let end = outs.iter().map(|o| o.end_s).fold(0.0, f64::max);
    if let Some(e2e) = e2e {
        let slowest: Vec<f64> = (0..STEPS)
            .map(|s| outs.iter().map(|o| o.step_s[s]).fold(0.0, f64::max))
            .collect();
        e2e.step_ms.push(slowest.iter().map(|s| s * 1e3).collect());
        let cell_updates = (CELLS.iter().product::<usize>() * STEPS) as f64;
        e2e.job(end - start, cell_updates, slowest.iter().sum(), (1, 1));
    }
    checks.check(true, "dist job");
    (stats::combine_checksums(&parts), end - start)
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::default();
    let mut checksums = Vec::new();
    let start = Instant::now();
    let root = |k: usize| opts.work.join(format!("dist-ckpt-{k}"));
    if !opts.trace {
        while opts.more(start, checksums.len(), MIN_JOBS) {
            let mut outs = job(opts.seed, root(checksums.len()), false);
            checksums.push(absorb(&mut outs, &mut checks, Some(&mut e2e)).0);
        }
        return Outcome {
            checks,
            checksums,
            e2e,
            layers: Default::default(),
        };
    }

    let mut trace = Trace::default();
    let (mut traced_tts, mut jobs) = (Vec::new(), 0usize);
    let mut rec = Recorded::default();
    let (mut ghost_b, mut ghost_m, mut wait, mut ckpt_b, mut records) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut tris_in, mut tris_out) = (0.0, 0.0);
    while opts.more(start, jobs, 1) {
        let mut outs = job(opts.seed, root(2 * jobs), false);
        checksums.push(absorb(&mut outs, &mut checks, Some(&mut e2e)).0);
        let mut outs = job(opts.seed, root(2 * jobs + 1), true);
        let (sum, tts) = absorb(&mut outs, &mut checks, None);
        checks.check(
            sum == checksums[0],
            "dist traced job ends on the untraced checksum",
        );
        traced_tts.push(tts);
        for o in outs {
            let r = &o.recorded;
            rec.step_s += r.step_s;
            rec.phi_s += r.phi_s;
            rec.mu_s += r.mu_s;
            rec.comm_s += r.comm_s;
            rec.bc_s += r.bc_s;
            rec.scan_s += r.scan_s;
            rec.scans = rec.scans.max(r.scans);
            ghost_b += o.ghost_bytes as f64;
            ghost_m += o.ghost_msgs as f64;
            wait += o.recv_wait_s;
            ckpt_b += o.ckpt_bytes as f64;
            records += o.records as f64;
            tris_in += o.tris.0 as f64;
            tris_out += o.tris.1 as f64;
            trace.absorb(o.tracer);
        }
        jobs += 1;
    }
    let n = jobs as f64;
    let per_step = n * STEPS as f64;
    let mut m = layers::zeroed();
    layers::kernels(
        &mut m,
        &crate::dsol::params(),
        (CELLS.iter().product::<usize>() * STEPS) as f64,
        rec.phi_s / n,
        rec.mu_s / n,
        1,
        opts.host.expect("traced runs probe the host first"),
    );
    let write_s = trace.secs("pfio.ckpt_write") / n;
    m.insert("timeloop.step_s", rec.step_s / n);
    m.insert("timeloop.compute_s", (rec.phi_s + rec.mu_s) / n);
    m.insert("timeloop.comm_s", rec.comm_s / n);
    m.insert("timeloop.bc_s", rec.bc_s / n);
    m.insert("comm.ghost_bytes_per_step", ghost_b / per_step);
    m.insert("comm.ghost_msgs_per_step", ghost_m / per_step);
    m.insert("comm.recv_wait_s", wait / n);
    m.insert(
        "health.scan_s",
        (rec.scan_s + trace.secs("health.scan")) / n,
    );
    m.insert("health.scans", rec.scans + 1.0);
    m.insert("pfio.ckpt_write_s", write_s);
    m.insert("pfio.ckpt_bytes", ckpt_b / n);
    m.insert(
        "pfio.ckpt_write_mb_s",
        ckpt_b / n / 1e6 / (write_s / RANKS as f64),
    );
    m.insert("pfio.restore_s", trace.secs("pfio.restore") / n);
    m.insert("mesh.extract_s", trace.secs("mesh.extract") / n);
    m.insert("mesh.reduce_s", trace.secs("mesh.reduce") / n);
    m.insert("mesh.triangles_in", tris_in / n);
    m.insert("mesh.triangles_out", tris_out / n);
    m.insert("obsv.observe_s", trace.secs("obsv.observe") / n);
    m.insert("obsv.records", records / n);
    m.insert("unattributed_pct", trace.unattributed_pct(&[]));
    m.insert(
        "trace.overhead_pct",
        layers::overhead_pct(&traced_tts, &e2e.tts_s),
    );
    layers::write_trace(&trace, opts, "dist", usize::MAX);
    Outcome {
        checks,
        checksums,
        e2e,
        layers: m,
    }
}
