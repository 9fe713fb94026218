//! Sample statistics, checksum bookkeeping and metric-name rules.

use std::collections::BTreeSet;

/// Linear-interpolated percentile `p` (0–100) of `values` (any order).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so the spread the
/// benchmark reports matches the one its acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = |k: f64| {
        let m = n + 1.0;
        let pos = k * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1.0), q(3.0))
}

/// Tail percentiles the benchmark will report, highest first, in permille
/// (exact integers, so the ten-beyond rule has no rounding edge).
const TAIL_CANDIDATES: [u64; 5] = [999, 990, 950, 900, 750];

/// The highest candidate percentile that leaves at least ten samples
/// beyond it in a sample of `n`, or the median when none does.
pub fn supported_tail(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pm| n as u64 * (1000 - pm) >= 10 * 1000)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

/// Number of distinct values among `checksums`.
pub fn distinct_count(checksums: &[u64]) -> usize {
    checksums.iter().collect::<BTreeSet<_>>().len()
}

/// Fold per-block checksums (in block-id order) into one 64-bit value
/// with the same FNV-1a mixing the per-block checksum uses.
pub fn combine_checksums(parts: &[(usize, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut sorted = parts.to_vec();
    sorted.sort_unstable();
    for (id, c) in sorted {
        for b in (id as u64).to_le_bytes().into_iter().chain(c.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(9_999), 99.0);
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(39), 50.0);
        assert_eq!(supported_tail(3), 50.0);
    }

    #[test]
    fn distinct_checksums_ignore_duplicates() {
        assert_eq!(distinct_count(&[]), 0);
        assert_eq!(distinct_count(&[7, 7, 7]), 1);
        assert_eq!(distinct_count(&[1, 2, 1, 3, 2]), 3);
        // A fleet in which every point has a twin reads half distinct.
        let fleet: Vec<u64> = (0..64).map(|k| k / 2).collect();
        assert_eq!(distinct_count(&fleet), 32);
    }

    #[test]
    fn combined_checksum_is_order_free_but_content_sensitive() {
        let a = combine_checksums(&[(0, 11), (1, 22)]);
        assert_eq!(a, combine_checksums(&[(1, 22), (0, 11)]));
        assert_ne!(a, combine_checksums(&[(0, 22), (1, 11)]));
        assert_ne!(a, combine_checksums(&[(0, 11), (1, 23)]));
    }

    #[test]
    fn metric_names_and_units_follow_the_contract() {
        for ok in [
            "setup_s",
            "kernels.phi_mlups",
            "trace.overhead_pct",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "pct%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MLUP/s", "GiB/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "two words", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
