//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dsol --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`dsol`, `dist` or `campaign`, see `README.md`) in a
//! closed loop — one job at a time, the next started when the previous
//! one's output has been validated — for `--seconds`, checks every job's
//! output, and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics with tracing off; `--trace 1` alternates untraced
//! jobs with traced replays and reports the per-layer metrics.

mod campaign;
mod dist;
mod dsol;
mod host;
mod layers;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eutectica_telemetry::JsonObject;

/// End-to-end metrics: name and unit. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("step_ms_p50", "ms"),
    ("mlups", "MLUP/s"),
    ("campaign_points_per_hour", "points/h"),
    ("campaign_distinct_points_per_hour", "points/h"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit. Every workload
/// reports each one; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.phi_s", "s"),
    ("kernels.mu_s", "s"),
    ("kernels.phi_mlups", "MLUP/s"),
    ("kernels.mu_mlups", "MLUP/s"),
    ("kernels.phi_roofline_frac", "ratio"),
    ("kernels.mu_roofline_frac", "ratio"),
    ("sweep_pool.speedup", "x"),
    ("solver.bc_s", "s"),
    ("solver.window_s", "s"),
    ("solver.window_shifts", "count"),
    ("timeloop.step_s", "s"),
    ("timeloop.compute_s", "s"),
    ("timeloop.comm_s", "s"),
    ("timeloop.bc_s", "s"),
    ("comm.ghost_bytes_per_step", "B"),
    ("comm.ghost_msgs_per_step", "count"),
    ("comm.recv_wait_s", "s"),
    ("health.scan_s", "s"),
    ("health.scans", "count"),
    ("pfio.ckpt_write_s", "s"),
    ("pfio.ckpt_bytes", "B"),
    ("pfio.ckpt_write_mb_s", "MB/s"),
    ("pfio.restore_s", "s"),
    ("mesh.extract_s", "s"),
    ("mesh.reduce_s", "s"),
    ("mesh.triangles_in", "count"),
    ("mesh.triangles_out", "count"),
    ("analysis.s", "s"),
    ("obsv.observe_s", "s"),
    ("obsv.records", "count"),
    ("campaign.sched_s", "s"),
    ("campaign.rounds", "count"),
    ("campaign.distinct_ratio", "ratio"),
    ("step_ms_p95", "ms"),
    ("unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.stream_gib_s", "GiB/s"),
    ("host.peak_gflops", "GFLOP/s"),
];

/// Counts of attempted and failed operations (jobs, checkpoint writes and
/// restores, output checks). A failed check is reported on stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl Display) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
        ok
    }

    /// Count `n` operations of which `failed` failed.
    pub fn many(&mut self, n: u64, failed: u64, what: impl Display) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            eprintln!("perfbench: FAILED: {failed} of {n} {what}");
        }
    }

    /// Fold another set of counts into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Set-up samples per run: at least `MIN_SETUP_SAMPLES`, then as many as
/// fit in `SETUP_SECONDS`; `setup_s` is their median. One sample is the
/// mean of back-to-back set-ups that together take at least
/// `SETUP_BATCH_SECONDS`, so a set-up of microseconds is not timed as one
/// thread start's jitter.
const MIN_SETUP_SAMPLES: usize = 9;
const SETUP_SECONDS: f64 = 1.0;
const SETUP_BATCH_SECONDS: f64 = 0.01;

/// End-to-end samples of the untraced jobs of one run.
#[derive(Default)]
pub struct EndToEnd {
    /// Set-up seconds, one per sample (the mean of a batch of set-ups).
    pub setup_s: Vec<f64>,
    /// First step to validated output, one per job.
    pub tts_s: Vec<f64>,
    /// Step wall times in ms, one list per job (for `dist` the slowest
    /// rank per step; for `campaign` one campaign round, averaged over the
    /// job's rounds).
    pub step_ms: Vec<Vec<f64>>,
    /// Cell updates over summed step time, one per job.
    pub mlups: Vec<f64>,
    /// Points completed and distinct final checksums, one pair per job.
    pub points: Vec<(usize, usize)>,
    /// Peak RSS after the first job. Later jobs reuse freed memory in an
    /// order that depends on thread timing, so the process-lifetime peak
    /// would vary with the number of jobs that fit in the run.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Record one finished job.
    pub fn job(&mut self, tts_s: f64, cell_updates: f64, step_secs: f64, points: (usize, usize)) {
        self.tts_s.push(tts_s);
        self.mlups.push(cell_updates / step_secs / 1e6);
        self.points.push(points);
        if self.tts_s.len() == 1 {
            self.peak_rss_mb = host::peak_rss_mb();
        }
    }

    /// The step tail: per job, the highest percentile with at least ten
    /// of the job's samples beyond it, then the median over jobs. Taken per
    /// job so one disturbed stretch of a shared host does not set the tail.
    fn step_tail_ms(&self) -> f64 {
        let tail = stats::supported_tail(self.step_ms[0].len());
        let tails: Vec<f64> = self
            .step_ms
            .iter()
            .map(|job| stats::percentile(job, tail))
            .collect();
        eprintln!(
            "perfbench: step_ms_p95 is the median over {} job(s) of each job's p{tail} of {} \
             step sample(s)",
            self.step_ms.len(),
            self.step_ms[0].len(),
        );
        stats::median(&tails)
    }

    fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let (s1, s3) = stats::quartiles(&self.setup_s);
        eprintln!(
            "perfbench: {} set-up sample(s), quartiles {:.3e}/{:.3e} s",
            self.setup_s.len(),
            s1,
            s3
        );
        let (q1, q3) = stats::quartiles(&self.tts_s);
        let tts: Vec<String> = self.tts_s.iter().map(|t| format!("{t:.3}")).collect();
        eprintln!(
            "perfbench: time to solution per job [s] (quartiles {q1:.3}/{q3:.3}): {}",
            tts.join(" ")
        );
        let per_hour = |pick: fn(&(usize, usize)) -> usize| {
            let v: Vec<f64> = self
                .points
                .iter()
                .zip(&self.tts_s)
                .map(|(p, t)| pick(p) as f64 * 3600.0 / t)
                .collect();
            stats::median(&v)
        };
        BTreeMap::from([
            ("setup_s", stats::median(&self.setup_s)),
            ("time_to_solution_s", stats::median(&self.tts_s)),
            ("step_ms_p50", stats::median(&self.step_ms.concat())),
            ("mlups", stats::median(&self.mlups)),
            ("campaign_points_per_hour", per_hour(|p| p.0)),
            ("campaign_distinct_points_per_hour", per_hour(|p| p.1)),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub checks: Checks,
    /// Final checksum of every untraced job (all equal for `dsol`/`dist`).
    pub checksums: Vec<u64>,
    pub e2e: EndToEnd,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Options shared by all workloads.
pub struct RunOpts {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Scratch directory for checkpoints, under `.bench_work/` in the
    /// working directory.
    pub work: PathBuf,
    /// Host rates for the roofline fractions (traced runs only).
    pub host: Option<host::HostRates>,
}

impl RunOpts {
    /// Whether another job fits: always at least `min_jobs`, then until
    /// the measuring budget is spent.
    pub fn more(&self, start: Instant, done: usize, min_jobs: usize) -> bool {
        done < min_jobs || start.elapsed() < self.budget
    }
}

/// Seconds in `d`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <dsol|dist|campaign> --seed <n> --seconds <n> \
         --trace <0|1>"
    );
    std::process::exit(2);
}

fn arg(args: &[String], flag: &str) -> String {
    let pos = args
        .iter()
        .position(|a| a == flag)
        .unwrap_or_else(|| usage());
    args.get(pos + 1).cloned().unwrap_or_else(|| usage())
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, decl: &[(&str, &str)]) -> String {
    let mut obj = JsonObject::new();
    for (name, unit) in decl {
        assert!(
            stats::valid_name(name) && stats::valid_unit(unit),
            "{name} [{unit}]"
        );
        let v = JsonObject::new()
            .num_field("value", values[name])
            .str_field("unit", unit)
            .finish();
        obj = obj.raw_field(name, &v);
    }
    obj.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload");
    let seed: u64 = arg(&args, "--seed").parse().unwrap_or_else(|_| usage());
    let seconds: u64 = arg(&args, "--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match arg(&args, "--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    type Workload = (fn(&RunOpts) -> f64, fn(&RunOpts) -> Outcome);
    let (setup, run): Workload = match workload.as_str() {
        "dsol" => (dsol::setup_secs, dsol::run),
        "dist" => (dist::setup_secs, dist::run),
        "campaign" => (campaign::setup_secs, campaign::run),
        _ => usage(),
    };

    let work = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the benchmark's scratch directory");
    // The traced run needs the host rates for its roofline fractions, so
    // it probes first; the untraced run probes after measuring, so the
    // probes' arrays stay out of its peak RSS.
    let pre = trace.then(host::HostRates::probe);
    let opts = RunOpts {
        seed,
        budget: Duration::from_secs(seconds),
        trace,
        work: work.clone(),
        host: pre,
    };
    // Set-up is timed on its own, back to back before the jobs, so its
    // median does not depend on what the previous job left in the heap.
    let mut setups = Vec::new();
    let t = Instant::now();
    while !trace && (setups.len() < MIN_SETUP_SAMPLES || secs(t.elapsed()) < SETUP_SECONDS) {
        let (mut batch_s, mut n) = (0.0, 0);
        while batch_s < SETUP_BATCH_SECONDS {
            batch_s += setup(&opts);
            n += 1;
        }
        setups.push(batch_s / n as f64);
    }
    let mut out = run(&opts);
    out.e2e.setup_s = setups;
    let rates = pre.unwrap_or_else(host::HostRates::probe);
    let _ = std::fs::remove_dir_all(&work);
    // Leaves `.bench_work` in place only when it holds a trace file.
    let _ = work.parent().map(std::fs::remove_dir);
    rates.print();

    let first = out.checksums[0];
    out.checks.check(
        out.checksums.iter().all(|&c| c == first),
        "every job of the run ends on the same checksum",
    );
    println!("final checksum {workload} seed {seed}: {first:016x}");

    let metrics = if trace {
        let mut layers = out.layers;
        // The step tail is reported ungated: on `dsol` it follows the host's
        // scheduling jitter more than the program (see README.md).
        layers.insert("step_ms_p95", out.e2e.step_tail_ms());
        layers.insert(
            "host.stream_gib_s",
            rates.stream_bytes_s / (1u64 << 30) as f64,
        );
        layers.insert("host.peak_gflops", rates.peak_flops / 1e9);
        json_metrics(&layers, PER_LAYER)
    } else {
        json_metrics(&out.e2e.metrics(), END_TO_END)
    };
    let result = JsonObject::new()
        .raw_field(
            "correct",
            if out.checks.failed == 0 {
                "true"
            } else {
                "false"
            },
        )
        .int_field("attempted", out.checks.attempted)
        .int_field("failed", out.checks.failed)
        .raw_field("metrics", &metrics)
        .finish();
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_obsv::json;

    /// The metric lists above and `BENCHMARK.json` must agree name for
    /// name and unit for unit, and every name and unit must be valid.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, decl) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.str("name").unwrap().to_string(),
                        m.str("unit").unwrap().to_string(),
                    )
                })
                .collect();
            let declared: Vec<(String, String)> = decl
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, declared, "{key} differs from BENCHMARK.json");
            for (name, unit) in &declared {
                assert!(stats::valid_name(name), "bad metric name {name}");
                assert!(stats::valid_unit(unit), "bad unit {unit} of {name}");
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads");
        for w in workloads {
            assert!(stats::valid_name(w.str("name").unwrap()));
        }
    }
}
