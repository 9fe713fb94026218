//! `campaign`: `run_campaign` on 2 thread-ranks × 1 thread over the
//! `campaign_sweep` grid (2 velocities × 2 gradients × 2 compositions per
//! nucleation seed, 8×8×12 jobs), 64 points, without per-job checkpoints.
//! The kernels of the small jobs do about nine tenths of a rank's work;
//! the rest is the engine's round-robin slicing and its progress rounds.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use eutectica_campaign::{
    field_checksum, plan, run_campaign, standalone_sim, CampaignOpts, CampaignSpec, JobSpec,
};
use eutectica_comm::Universe;
use eutectica_core::health::{scan_block, HealthConfig};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::DEFAULT_REGION_RATES;
use eutectica_core::sweep_pool::SweepPool;
use eutectica_pfio::resilient::{ShrinkPolicy, ShrinkSource};

use crate::trace::{Trace, Tracer};
use crate::{layers, secs, stats, Checks, EndToEnd, Outcome, RunOpts};

const RANKS: usize = 2;
const POINTS: usize = 64;
const JOB_CELLS: [usize; 3] = [8, 8, 12];
const STEPS: usize = 100;
/// Untraced jobs per run, at least (the median over jobs needs a few).
const MIN_JOBS: usize = 5;
const SLICE: usize = 4;

/// The `campaign_sweep` grid with `POINTS / 8` nucleation seeds derived
/// from the workload seed.
fn spec(seed: u64) -> CampaignSpec {
    let rows = (POINTS / 8) as u64;
    let seeds = (0..rows)
        .map(|r| seed.wrapping_mul(rows).wrapping_add(r + 1))
        .collect();
    let mut spec = CampaignSpec::around(ModelParams::ag_al_cu(), JOB_CELLS, STEPS, seeds);
    spec.velocities = vec![0.015, 0.02];
    spec.gradients = vec![0.001, 0.002];
    spec.compositions = vec![[1.0 / 3.0; 3], [0.4, 0.3, 0.3]];
    spec
}

/// Fleet options: no checkpoint root, so no per-job checkpoints.
fn opts() -> CampaignOpts {
    CampaignOpts {
        threads: 1,
        slice_steps: SLICE,
        shrink: Some(ShrinkPolicy::new(ShrinkSource::Disk)),
        ..CampaignOpts::default()
    }
}

/// What one rank brings back from one campaign.
struct RankOut {
    /// Seconds since the job's epoch at the call into `run_campaign` and
    /// after the rank's resident results were validated.
    call_s: f64,
    end_s: f64,
    /// Final checksums and health violations of the rank's jobs, by key.
    fleet: Option<Vec<(u32, String, u64)>>,
    violations: u64,
    rounds: u64,
    recv_wait_s: f64,
    error: Option<String>,
}

/// Result of one untraced campaign.
struct Fleet {
    /// Final checksum per job key.
    checksums: BTreeMap<u32, u64>,
    rounds: u64,
    recv_wait_s: f64,
}

/// Everything before the call into `run_campaign`: the spec, its
/// validation and the options.
fn prepare(seed: u64) -> (bool, Arc<CampaignSpec>, Arc<CampaignOpts>) {
    let spec = spec(seed);
    let valid = spec.expand().is_ok();
    (valid, Arc::new(spec), Arc::new(opts()))
}

/// Seconds of one set-up: [`prepare`] and the rank universe's start, up to
/// the latest rank's call into `run_campaign`.
pub fn setup_secs(opts: &RunOpts) -> f64 {
    let epoch = Instant::now();
    let ready = prepare(opts.seed);
    let calls = Universe::run(RANKS, move |_rank| {
        let _ = &ready; // the ranks hold the spec and options, as in a job
        secs(epoch.elapsed())
    });
    calls.into_iter().fold(0.0, f64::max)
}

/// One untraced campaign.
fn job(seed: u64, e2e: &mut EndToEnd, checks: &mut Checks) -> Fleet {
    let epoch = Instant::now();
    let (valid, spec, opts) = prepare(seed);
    checks.check(valid, "campaign spec expands");
    let outs = Universe::run(RANKS, move |rank| {
        let call_s = secs(epoch.elapsed());
        let report = run_campaign(&rank, &spec, &opts);
        let recv_wait_s = secs(rank.stats().recv_wait_time);
        match report {
            Ok(r) => {
                // The base point has the grid's smallest gradient, so its µ
                // bounds are the tightest: a job inside them is inside its own.
                let health = HealthConfig::for_params(&ModelParams::ag_al_cu());
                let violations = r
                    .local
                    .iter()
                    .map(|j| scan_block(&j.state, &health, u64::from(j.key)).violations())
                    .sum();
                let fleet = r.fleet.map(|f| {
                    f.jobs
                        .into_iter()
                        .map(|j| (j.job, j.status, j.checksum))
                        .collect()
                });
                RankOut {
                    call_s,
                    end_s: secs(epoch.elapsed()),
                    fleet,
                    violations,
                    rounds: r.rounds,
                    recv_wait_s,
                    error: None,
                }
            }
            Err(e) => RankOut {
                call_s,
                end_s: secs(epoch.elapsed()),
                fleet: None,
                violations: 0,
                rounds: 0,
                recv_wait_s,
                error: Some(e.to_string()),
            },
        }
    });

    for o in &outs {
        if let Some(e) = &o.error {
            checks.check(false, format_args!("campaign rank fails: {e}"));
        }
    }
    let fleet = outs
        .iter()
        .find_map(|o| o.fleet.clone())
        .unwrap_or_default();
    let done = fleet.iter().filter(|j| j.1 == "done").count();
    let failed = fleet.iter().filter(|j| j.1 == "failed").count();
    checks.check(
        done + failed == POINTS,
        format_args!("campaign finishes done + failed == points ({done} + {failed} of {POINTS})"),
    );
    checks.many(POINTS as u64, (POINTS - done) as u64, "campaign jobs");
    let violations: u64 = outs.iter().map(|o| o.violations).sum();
    checks.check(
        violations == 0,
        format_args!("campaign final states pass the health invariants ({violations} violations)"),
    );
    let checksums: BTreeMap<u32, u64> = fleet.iter().map(|j| (j.0, j.2)).collect();
    let done_sums: Vec<u64> = fleet
        .iter()
        .filter(|j| j.1 == "done")
        .map(|j| j.2)
        .collect();
    let end = outs.iter().map(|o| o.end_s).fold(0.0, f64::max);
    let first_call = outs.iter().map(|o| o.call_s).fold(f64::INFINITY, f64::min);
    let rounds = outs.iter().map(|o| o.rounds).max().unwrap_or(0);
    let tts = end - first_call;
    e2e.step_ms.push(vec![tts * 1e3 / rounds.max(1) as f64]);
    let cell_updates = (POINTS * JOB_CELLS.iter().product::<usize>() * STEPS) as f64;
    e2e.job(
        tts,
        cell_updates,
        tts,
        (done, stats::distinct_count(&done_sums)),
    );
    Fleet {
        checksums,
        rounds,
        recv_wait_s: outs.iter().map(|o| o.recv_wait_s).sum(),
    }
}

fn fleet_checksum(fleet: &Fleet) -> u64 {
    let parts: Vec<(usize, u64)> = fleet
        .checksums
        .iter()
        .map(|(&k, &c)| (k as usize, c))
        .collect();
    stats::combine_checksums(&parts)
}

/// Replay of one rank's jobs: `standalone_sim`, the stepping split into
/// its kernel, boundary and swap calls, then a final health scan and
/// checksum. Returns each job's key and final checksum.
fn replay_rank(jobs: &[JobSpec], tr: &mut Tracer) -> Vec<(u32, u64)> {
    let pool = SweepPool::new(1);
    let mut out = Vec::new();
    let lane = tr.open("campaign.rank");
    for job in jobs {
        let mut sim = tr
            .time("campaign.standalone_sim", || standalone_sim(job))
            .expect("campaign point is valid");
        for _ in 0..job.steps {
            crate::dsol::replay_step(&mut sim, &pool, None, tr);
        }
        let health = HealthConfig::for_params(&sim.params);
        tr.time("health.scan", || {
            scan_block(&sim.state, &health, u64::from(job.key))
        });
        let sum = tr.time("bench.check", || field_checksum(&sim.state));
        out.push((job.key, sum));
    }
    tr.close(lane);
    out
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::default();
    let mut checksums = Vec::new();
    let start = Instant::now();
    if !opts.trace {
        while opts.more(start, checksums.len(), MIN_JOBS) {
            let fleet = job(opts.seed, &mut e2e, &mut checks);
            checksums.push(fleet_checksum(&fleet));
        }
        return Outcome {
            checks,
            checksums,
            e2e,
            layers: Default::default(),
        };
    }

    let mut trace = Trace::default();
    let (mut traced_tts, mut jobs, mut rounds, mut wait) = (Vec::new(), 0, 0, 0.0);
    let mut sched_s = 0.0;
    // A traced campaign records about 32 000 spans; the file keeps the
    // first one's, the metrics use all.
    let mut first_job_spans = 0;
    while opts.more(start, jobs, 1) {
        let fleet = job(opts.seed, &mut e2e, &mut checks);
        checksums.push(fleet_checksum(&fleet));
        rounds = fleet.rounds;
        wait += fleet.recv_wait_s;

        let epoch = Instant::now();
        let specs = spec(opts.seed).expand().expect("campaign spec expands");
        let t = Instant::now();
        let schedule = plan(
            &specs,
            DEFAULT_REGION_RATES,
            &(0..RANKS).collect::<Vec<_>>(),
        );
        sched_s += secs(t.elapsed());
        let lanes: Vec<(Tracer, Vec<(u32, u64)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..RANKS)
                .map(|r| {
                    let mine: Vec<JobSpec> = schedule
                        .jobs_of(r)
                        .iter()
                        .map(|&k| specs[k as usize].clone())
                        .collect();
                    s.spawn(move || {
                        let mut tr = Tracer::new(r, epoch);
                        let out = replay_rank(&mine, &mut tr);
                        (tr, out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay lane panicked"))
                .collect()
        });
        traced_tts.push(secs(epoch.elapsed()));
        let mut replayed = 0;
        for (tr, out) in lanes {
            trace.absorb(tr);
            if jobs == 0 {
                first_job_spans = trace.spans().len();
            }
            for (key, sum) in out {
                replayed += 1;
                checks.check(
                    fleet.checksums.get(&key) == Some(&sum),
                    format_args!("campaign replay of job {key} ends on the fleet's checksum"),
                );
            }
        }
        checks.check(replayed == POINTS, "campaign replay covers every point");
        jobs += 1;
    }
    let n = jobs as f64;
    let mut m = layers::zeroed();
    layers::kernels(
        &mut m,
        &ModelParams::ag_al_cu(),
        (POINTS * JOB_CELLS.iter().product::<usize>() * STEPS) as f64,
        trace.secs("kernels.phi") / n,
        trace.secs("kernels.mu") / n,
        1,
        opts.host.expect("traced runs probe the host first"),
    );
    let (done, distinct) = e2e.points[0];
    m.insert("solver.bc_s", trace.secs("solver.bc") / n);
    m.insert("comm.recv_wait_s", wait / n);
    m.insert("health.scan_s", trace.secs("health.scan") / n);
    m.insert("health.scans", trace.count("health.scan") as f64 / n);
    m.insert("campaign.sched_s", sched_s / n);
    m.insert("campaign.rounds", rounds as f64);
    m.insert("campaign.distinct_ratio", distinct as f64 / done as f64);
    m.insert("unattributed_pct", trace.unattributed_pct(&[]));
    m.insert(
        "trace.overhead_pct",
        layers::overhead_pct(&traced_tts, &e2e.tts_s),
    );
    layers::write_trace(&trace, opts, "campaign", first_job_spans);
    Outcome {
        checks,
        checksums,
        e2e,
        layers: m,
    }
}
