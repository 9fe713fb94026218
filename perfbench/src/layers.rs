//! Per-layer metric helpers shared by the workloads' traced runs.

use std::collections::BTreeMap;

use eutectica_core::metrics::{
    mu_bytes_per_cell, mu_flops_per_cell, phi_bytes_per_cell, phi_flops_per_cell,
};
use eutectica_core::params::ModelParams;
use eutectica_perfmodel::roofline::{analyze, MachineRates};

use crate::host::HostRates;
use crate::trace::Trace;
use crate::{stats, RunOpts, PER_LAYER};

/// Every per-layer metric at 0: a layer the workload does not exercise.
pub fn zeroed() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Kernel seconds, rates and roofline fractions. `phi_s`/`mu_s` are kernel
/// seconds summed over lanes, so the rates are per lane; each lane runs its
/// sweeps on `threads` threads. The ceiling is the lower of `threads` ×
/// the measured FMA peak over the `core::metrics` FLOPs per cell and the
/// measured STREAM bandwidth over the computed `core::metrics` bytes per
/// cell (computed from array sizes under the paper's cache model, not
/// measured).
pub fn kernels(
    m: &mut BTreeMap<&'static str, f64>,
    params: &ModelParams,
    cell_updates: f64,
    phi_s: f64,
    mu_s: f64,
    threads: usize,
    host: HostRates,
) {
    let rates = MachineRates {
        bandwidth: host.stream_bytes_s,
        peak_flops: host.peak_flops * threads as f64,
    };
    let phi_mlups = cell_updates / phi_s / 1e6;
    let mu_mlups = cell_updates / mu_s / 1e6;
    let phi_roof = analyze(rates, phi_flops_per_cell(params), phi_bytes_per_cell());
    let mu_roof = analyze(rates, mu_flops_per_cell(params), mu_bytes_per_cell());
    m.insert("kernels.phi_s", phi_s);
    m.insert("kernels.mu_s", mu_s);
    m.insert("kernels.phi_mlups", phi_mlups);
    m.insert("kernels.mu_mlups", mu_mlups);
    m.insert(
        "kernels.phi_roofline_frac",
        phi_mlups / phi_roof.roofline_mlups,
    );
    m.insert(
        "kernels.mu_roofline_frac",
        mu_mlups / mu_roof.roofline_mlups,
    );
}

/// Traced against untraced median time to solution, in %.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    100.0 * (stats::median(traced) / stats::median(untraced) - 1.0)
}

/// Write the first `limit` spans of the run next to the scratch
/// directory, as `.bench_work/trace-<workload>-seed<seed>.jsonl`.
pub fn write_trace(trace: &Trace, opts: &RunOpts, workload: &str, limit: usize) {
    let dir = opts.work.parent().expect("scratch directory has a parent");
    let path = dir.join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
    let written = limit.min(trace.spans().len());
    match trace.write_jsonl(&path, limit) {
        Ok(()) => eprintln!(
            "perfbench: {written} of {} span(s) written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
