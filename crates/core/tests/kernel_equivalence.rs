//! Cross-variant kernel equivalence — the paper's Sec. 5.1.1: "To decrease
//! the maintenance effort for the various kernels, a regularly running test
//! suite checks all kernel versions for equivalence."
//!
//! Within one implementation (scalar or SIMD), the T(z) / staggered-buffer /
//! shortcut flags must be **bit-exact** (they only reorganize identical
//! arithmetic or skip exactly-zero terms). Across implementations (reference
//! ↔ scalar ↔ SIMD), FMA contraction and summation order differ, so
//! equivalence holds to tight floating-point tolerance.

use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::{
    mu_sweep, mu_sweep_range, phi_sweep, phi_sweep_range, KernelConfig, MuPart, MuVariant,
    PhiVariant, SimdIsa,
};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::{build_scenario, Scenario};
use eutectica_core::simplex::project_to_simplex;
use eutectica_core::state::BlockState;
use rand::{Rng, SeedableRng};

fn random_state(seed: u64, dims: GridDims) -> BlockState {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut s = BlockState::new(dims, [0, 0, 3]);
    for z in 0..dims.tz() {
        for y in 0..dims.ty() {
            for x in 0..dims.tx() {
                let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
                let phi = project_to_simplex(raw);
                s.phi_src.set_cell(x, y, z, phi);
                let nudged: [f64; 4] =
                    core::array::from_fn(|a| phi[a] + rng.random_range(-0.02..0.02));
                s.phi_dst.set_cell(x, y, z, project_to_simplex(nudged));
                s.mu_src.set_cell(
                    x,
                    y,
                    z,
                    [rng.random_range(-0.3..0.3), rng.random_range(-0.3..0.3)],
                );
            }
        }
    }
    s
}

/// Test states: random (worst case) plus the three benchmark scenarios
/// (which exercise the bulk/pure/solid shortcut paths heavily).
fn states(dims: GridDims) -> Vec<(String, BlockState)> {
    let mut v = vec![
        ("random-1".to_string(), random_state(101, dims)),
        ("random-2".to_string(), random_state(202, dims)),
    ];
    for sc in Scenario::ALL {
        v.push((format!("{:?}", sc), build_scenario(sc, dims)));
    }
    v
}

fn max_phi_diff(a: &BlockState, b: &BlockState) -> f64 {
    let mut m = 0.0f64;
    for c in 0..4 {
        for (x, y, z) in a.dims.interior_iter() {
            m = m.max((a.phi_dst.at(c, x, y, z) - b.phi_dst.at(c, x, y, z)).abs());
        }
    }
    m
}

fn max_mu_diff(a: &BlockState, b: &BlockState) -> f64 {
    let mut m = 0.0f64;
    for c in 0..2 {
        for (x, y, z) in a.dims.interior_iter() {
            m = m.max((a.mu_dst.at(c, x, y, z) - b.mu_dst.at(c, x, y, z)).abs());
        }
    }
    m
}

fn cfg(phi: PhiVariant, mu: MuVariant, tz: bool, stag: bool, sc: bool) -> KernelConfig {
    KernelConfig {
        phi,
        mu,
        isa: SimdIsa::Auto,
        tz_precompute: tz,
        staggered_buffer: stag,
        shortcuts: sc,
    }
}

#[test]
fn phi_all_variants_agree() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10); // not a multiple of 4: remainder path too
    for (name, base) in states(dims) {
        let mut oracle = base.clone();
        phi_sweep(
            &params,
            &mut oracle,
            1.5,
            cfg(PhiVariant::Scalar, MuVariant::Scalar, false, false, false),
        );
        let variants = [
            (PhiVariant::Reference, false, false, false),
            (PhiVariant::Scalar, true, true, true),
            (PhiVariant::SimdCellwise, false, false, false),
            (PhiVariant::SimdCellwise, true, true, true),
            (PhiVariant::SimdFourCell, false, false, false),
            (PhiVariant::SimdFourCell, true, false, true),
        ];
        for (variant, tz, stag, sc) in variants {
            let mut s = base.clone();
            phi_sweep(
                &params,
                &mut s,
                1.5,
                cfg(variant, MuVariant::Scalar, tz, stag, sc),
            );
            let d = max_phi_diff(&oracle, &s);
            assert!(
                d < 1e-11,
                "{name}: φ {variant:?} (tz={tz},stag={stag},sc={sc}) differs by {d:e}"
            );
        }
    }
}

#[test]
fn mu_all_variants_agree() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    for (name, base) in states(dims) {
        let mut oracle = base.clone();
        mu_sweep(
            &params,
            &mut oracle,
            1.5,
            cfg(PhiVariant::Scalar, MuVariant::Scalar, false, false, false),
            MuPart::Full,
        );
        let variants = [
            (MuVariant::Reference, false, false, false),
            (MuVariant::Scalar, true, true, true),
            (MuVariant::SimdFourCell, false, false, false),
            (MuVariant::SimdFourCell, true, false, false),
            (MuVariant::SimdFourCell, true, true, false),
            (MuVariant::SimdFourCell, true, true, true),
        ];
        for (variant, tz, stag, sc) in variants {
            let mut s = base.clone();
            mu_sweep(
                &params,
                &mut s,
                1.5,
                cfg(PhiVariant::Scalar, variant, tz, stag, sc),
                MuPart::Full,
            );
            let d = max_mu_diff(&oracle, &s);
            assert!(
                d < 1e-11,
                "{name}: µ {variant:?} (tz={tz},stag={stag},sc={sc}) differs by {d:e}"
            );
        }
    }
}

#[test]
fn simd_cellwise_flags_are_bit_exact() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(8);
    for (name, base) in states(dims) {
        let mut oracle = base.clone();
        phi_sweep(
            &params,
            &mut oracle,
            0.7,
            cfg(
                PhiVariant::SimdCellwise,
                MuVariant::Scalar,
                false,
                false,
                false,
            ),
        );
        for tz in [false, true] {
            for stag in [false, true] {
                for sc in [false, true] {
                    let mut s = base.clone();
                    phi_sweep(
                        &params,
                        &mut s,
                        0.7,
                        cfg(PhiVariant::SimdCellwise, MuVariant::Scalar, tz, stag, sc),
                    );
                    let d = max_phi_diff(&oracle, &s);
                    assert_eq!(
                        d, 0.0,
                        "{name}: cellwise flags ({tz},{stag},{sc}) not bit-exact: {d:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn simd_mu_flags_are_bit_exact() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::new(12, 8, 8, 1); // multiple of 4: pure vector path
    for (name, base) in states(dims) {
        let mut oracle = base.clone();
        mu_sweep(
            &params,
            &mut oracle,
            0.7,
            cfg(
                PhiVariant::Scalar,
                MuVariant::SimdFourCell,
                false,
                false,
                false,
            ),
            MuPart::Full,
        );
        for tz in [false, true] {
            for stag in [false, true] {
                for sc in [false, true] {
                    let mut s = base.clone();
                    mu_sweep(
                        &params,
                        &mut s,
                        0.7,
                        cfg(PhiVariant::Scalar, MuVariant::SimdFourCell, tz, stag, sc),
                        MuPart::Full,
                    );
                    let d = max_mu_diff(&oracle, &s);
                    assert_eq!(
                        d, 0.0,
                        "{name}: four-cell µ flags ({tz},{stag},{sc}) not bit-exact: {d:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn split_mu_equals_full_for_all_variants() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    let base = random_state(7, dims);
    for variant in [MuVariant::Scalar, MuVariant::SimdFourCell] {
        let c = cfg(PhiVariant::Scalar, variant, true, true, true);
        let mut full = base.clone();
        mu_sweep(&params, &mut full, 0.3, c, MuPart::Full);
        let mut split = base.clone();
        mu_sweep(&params, &mut split, 0.3, c, MuPart::LocalOnly);
        mu_sweep(&params, &mut split, 0.3, c, MuPart::NeighborOnly);
        let d = max_mu_diff(&full, &split);
        assert!(d < 1e-12, "{variant:?}: split differs from full by {d:e}");
    }
}

#[test]
fn disabled_anti_trapping_changes_results_near_front_only() {
    // The ATC ablation: J_at only acts at the solidification front.
    let mut params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(12);
    let base = build_scenario(Scenario::Interface, dims);
    let c = KernelConfig::default();
    let mut with_atc = base.clone();
    mu_sweep(&params, &mut with_atc, 0.0, c, MuPart::Full);
    params.enable_atc = false;
    let mut without = base.clone();
    mu_sweep(&params, &mut without, 0.0, c, MuPart::Full);
    let d = max_mu_diff(&with_atc, &without);
    assert!(d > 0.0, "ATC had no effect at the front");
    // In the pure-liquid scenario the ATC changes nothing.
    let liquid = build_scenario(Scenario::Liquid, dims);
    params.enable_atc = true;
    let mut a = liquid.clone();
    mu_sweep(&params, &mut a, 0.0, c, MuPart::Full);
    params.enable_atc = false;
    let mut b = liquid.clone();
    mu_sweep(&params, &mut b, 0.0, c, MuPart::Full);
    assert_eq!(max_mu_diff(&a, &b), 0.0, "ATC acted in bulk liquid");
}

// ---------------------------------------------------------------------------
// Backend registry + autotuner equivalence (PR 8).

use eutectica_core::kernels::backend::{self, AutotunePolicy, BackendError};

/// Every resolvable registry backend agrees with `reference` on the full
/// φ+µ step, to the suite's stated 1e-11 cross-implementation tolerance
/// (bit-exact within the `simd-*` family is pinned separately below).
#[test]
fn registry_backends_agree_with_reference() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    let reference = backend::resolve("reference").unwrap();
    for (name, base) in states(dims) {
        let (z0, z1) = dims.interior_z_range();
        let mut oracle = base.clone();
        reference.phi_sweep_range(&params, &mut oracle, 1.5, z0, z1);
        reference.mu_sweep_range(&params, &mut oracle, 1.5, MuPart::Full, z0, z1);
        for bname in backend::registry_names() {
            let b = match backend::resolve(&bname) {
                Ok(b) => b,
                Err(BackendError::Unavailable { .. }) => {
                    // Only simd-avx2 may be unavailable, and only when the
                    // runtime detection says so.
                    assert!(bname.starts_with("simd-avx2"));
                    assert!(!eutectica_simd::avx2_available());
                    continue;
                }
                Err(e) => panic!("{bname}: {e}"),
            };
            let mut s = base.clone();
            b.phi_sweep_range(&params, &mut s, 1.5, z0, z1);
            b.mu_sweep_range(&params, &mut s, 1.5, MuPart::Full, z0, z1);
            let (dp, dm) = (max_phi_diff(&oracle, &s), max_mu_diff(&oracle, &s));
            assert!(
                dp < 1e-11 && dm < 1e-11,
                "{name}: backend {bname} differs from reference by φ {dp:e} / µ {dm:e}"
            );
        }
    }
}

/// The runtime-detected AVX2 instantiation and the forced portable
/// fallback are bit-identical — the property that makes `SimdIsa::Auto`
/// (and the autotuner's ISA switching) invisible to physics.
#[test]
fn simd_isa_instantiations_are_bit_exact() {
    if !eutectica_simd::avx2_available() {
        eprintln!("skipping: AVX2+FMA not selectable on this host/build");
        return;
    }
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    for (name, base) in states(dims) {
        for phi in [PhiVariant::SimdCellwise, PhiVariant::SimdFourCell] {
            for (tz, stag, sc) in [(false, false, false), (true, true, true)] {
                let mut c = cfg(phi, MuVariant::SimdFourCell, tz, stag, sc);
                c.isa = SimdIsa::Avx2;
                let mut avx = base.clone();
                phi_sweep(&params, &mut avx, 0.9, c);
                mu_sweep(&params, &mut avx, 0.9, c, MuPart::Full);
                c.isa = SimdIsa::Portable;
                let mut port = base.clone();
                phi_sweep(&params, &mut port, 0.9, c);
                mu_sweep(&params, &mut port, 0.9, c, MuPart::Full);
                assert_eq!(
                    max_phi_diff(&avx, &port),
                    0.0,
                    "{name}: φ {phi:?} ({tz},{stag},{sc}) avx2 vs portable not bit-exact"
                );
                assert_eq!(
                    max_mu_diff(&avx, &port),
                    0.0,
                    "{name}: µ ({tz},{stag},{sc}) avx2 vs portable not bit-exact"
                );
            }
        }
    }
}

/// First position where the destination fields of `a` and `b` differ
/// bitwise, ghosts included.
fn first_dst_bit_diff(a: &BlockState, b: &BlockState) -> Option<String> {
    let phi = (0..4).map(|c| ("φ", c, a.phi_dst.comp(c), b.phi_dst.comp(c)));
    let mu = (0..2).map(|c| ("µ", c, a.mu_dst.comp(c), b.mu_dst.comp(c)));
    for (field, c, x, y) in phi.chain(mu) {
        if let Some(i) = x
            .iter()
            .zip(y)
            .position(|(p, q)| p.to_bits() != q.to_bits())
        {
            return Some(format!("{field}[{c}] linear index {i}"));
        }
    }
    None
}

/// The vectorized sweeps [`simd_isa_instantiations_are_bit_exact_on_every_slab`]
/// covers: both φ strategies and the µ-kernel in each [`MuPart`].
#[derive(Copy, Clone, Debug)]
enum SimdSweep {
    Phi(PhiVariant),
    Mu(MuPart),
}

const SIMD_SWEEPS: [SimdSweep; 5] = [
    SimdSweep::Phi(PhiVariant::SimdCellwise),
    SimdSweep::Phi(PhiVariant::SimdFourCell),
    SimdSweep::Mu(MuPart::Full),
    SimdSweep::Mu(MuPart::LocalOnly),
    SimdSweep::Mu(MuPart::NeighborOnly),
];

/// Run `sweep` with instantiation `isa` over the z-slab `z0..z1`.
fn run_slab(
    params: &ModelParams,
    base: &BlockState,
    sweep: SimdSweep,
    mut c: KernelConfig,
    isa: SimdIsa,
    (z0, z1): (usize, usize),
) -> BlockState {
    let mut s = base.clone();
    c.isa = isa;
    match sweep {
        SimdSweep::Phi(phi) => {
            c.phi = phi;
            phi_sweep_range(params, &mut s, 0.9, c, z0, z1);
        }
        SimdSweep::Mu(part) => mu_sweep_range(params, &mut s, 0.9, c, part, z0, z1),
    }
    s
}

/// AVX2 vs portable, bit for bit, on every contiguous z-slab `z0..z1` of
/// the block, for all eight T(z)/buffer/shortcut combinations of every
/// sweep in [`SIMD_SWEEPS`]. Restarting a sweep at an arbitrary `z0` runs
/// the staggered-buffer prefill there, and every row start runs the
/// x-carry, so this pins those paths per ISA. The 8×8×12 block is the
/// campaign job size; the 10-wide block adds the four-cell kernels' scalar
/// remainder.
#[test]
fn simd_isa_instantiations_are_bit_exact_on_every_slab() {
    if !eutectica_simd::avx2_available() {
        eprintln!("skipping: AVX2+FMA not selectable on this host/build");
        return;
    }
    let params = ModelParams::ag_al_cu();
    for dims in [GridDims::new(8, 8, 12, 1), GridDims::new(10, 6, 6, 1)] {
        let mut bases = vec![("random".to_string(), random_state(303, dims))];
        for sc in Scenario::ALL {
            bases.push((format!("{sc:?}"), build_scenario(sc, dims)));
        }
        let (g, top) = (dims.ghost, dims.ghost + dims.nz);
        for (name, base) in &bases {
            for flags in 0..8 {
                let (tz, stag, sc) = (flags & 4 != 0, flags & 2 != 0, flags & 1 != 0);
                let c = cfg(
                    PhiVariant::SimdCellwise,
                    MuVariant::SimdFourCell,
                    tz,
                    stag,
                    sc,
                );
                for sweep in SIMD_SWEEPS {
                    for z0 in g..top {
                        for z1 in z0 + 1..=top {
                            let slab = (z0, z1);
                            let avx = run_slab(&params, base, sweep, c, SimdIsa::Avx2, slab);
                            let port = run_slab(&params, base, sweep, c, SimdIsa::Portable, slab);
                            if let Some(at) = first_dst_bit_diff(&avx, &port) {
                                panic!(
                                    "{}x{}x{} {name}: {sweep:?} (tz={tz}, stag={stag}, sc={sc}) \
                                     slab {z0}..{z1}: avx2 vs portable differ at {at}",
                                    dims.nx, dims.ny, dims.nz
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Bitwise equality of the evolved source fields (post-swap).
fn bits_equal(a: &BlockState, b: &BlockState) -> bool {
    for c in 0..4 {
        for (x, y, z) in a.dims.interior_iter() {
            if a.phi_src.at(c, x, y, z).to_bits() != b.phi_src.at(c, x, y, z).to_bits() {
                return false;
            }
        }
    }
    for c in 0..2 {
        for (x, y, z) in a.dims.interior_iter() {
            if a.mu_src.at(c, x, y, z).to_bits() != b.mu_src.at(c, x, y, z).to_bits() {
                return false;
            }
        }
    }
    true
}

/// Run `schedule.len()` φ+µ steps, picking the kernel variant per step from
/// the autotune candidate list — the autotuner's warmup walk, condensed.
fn run_schedule(
    params: &ModelParams,
    base: &BlockState,
    policy: &AutotunePolicy,
    schedule: &[usize],
) -> BlockState {
    let mut s = base.clone();
    for &i in schedule {
        let c = policy.candidates[i % policy.candidates.len()].cfg;
        phi_sweep(params, &mut s, 0.5, c);
        mu_sweep(params, &mut s, 0.5, c, MuPart::Full);
        s.swap();
    }
    s
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Property: any mid-run switching schedule over the bit-exact
    /// candidate set evolves bit-identically to pinning any single
    /// candidate for the whole run — the autotuner cannot change physics.
    #[test]
    fn autotuner_variant_switches_are_bit_identical(
        schedule in proptest::collection::vec(0usize..8, 1..5),
        seed in 0u64..3,
    ) {
        let params = ModelParams::ag_al_cu();
        let policy = AutotunePolicy::bit_exact();
        let base = random_state(900 + seed, GridDims::cube(8));
        let switched = run_schedule(&params, &base, &policy, &schedule);
        for pin in 0..policy.candidates.len() {
            let pinned = run_schedule(&params, &base, &policy, &vec![pin; schedule.len()]);
            proptest::prop_assert!(
                bits_equal(&switched, &pinned),
                "schedule {:?} differs from pinning '{}'",
                schedule,
                policy.candidates[pin].name
            );
        }
    }
}
