//! Host-regime diagnostics: memory bandwidth and peak FLOP rate from the
//! `perfmodel::roofline` probes, the last-level cache they are sized
//! against, and the process's peak resident set.

use eutectica_perfmodel::roofline::{measure_peak_flops, measure_stream_bandwidth};

/// Bytes of the three STREAM-triad arrays `measure_stream_bandwidth` uses
/// (3 × 64 MiB).
const STREAM_ARRAY_BYTES: u64 = 3 << 26;

/// Machine rates measured in this run.
#[derive(Clone, Copy, Debug)]
pub struct HostRates {
    /// STREAM-triad bandwidth, bytes/s (one thread).
    pub stream_bytes_s: f64,
    /// FMA peak, FLOP/s (one thread).
    pub peak_flops: f64,
}

impl HostRates {
    /// Run both probes.
    pub fn probe() -> Self {
        Self {
            stream_bytes_s: measure_stream_bandwidth(),
            peak_flops: measure_peak_flops(),
        }
    }

    /// Print the rates with the conditions they were measured under.
    pub fn print(&self) {
        let llc = llc_bytes();
        let rule = match llc {
            Some(l) if STREAM_ARRAY_BYTES >= 4 * l => "meets",
            Some(_) => "is below",
            None => "cannot be checked against",
        };
        println!(
            "host: stream {:.2} GiB/s, peak {:.2} GFLOP/s (one thread); STREAM arrays {} MiB, \
             LLC {} MiB: the array size {rule} the 4x-LLC rule, so the bandwidth may be \
             partly cache bandwidth",
            self.stream_bytes_s / (1u64 << 30) as f64,
            self.peak_flops / 1e9,
            STREAM_ARRAY_BYTES >> 20,
            llc.map_or("unknown".to_string(), |l| (l >> 20).to_string()),
        );
    }
}

/// Size of the largest cache the kernel reports for CPU 0.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let text = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let t = text.trim();
        let (num, mult) = match t.strip_suffix('K') {
            Some(n) => (n, 1u64 << 10),
            None => match t.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (t, 1),
            },
        };
        num.parse::<u64>().ok().map(|n| n * mult)
    })
    .max()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
