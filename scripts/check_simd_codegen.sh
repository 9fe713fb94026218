#!/usr/bin/env bash
# Check that the AVX2+FMA kernel instantiations compiled to AVX2 code.
#
# `kernels::avx2_entry` enables AVX2+FMA per LLVM function, so anything the
# kernels leave out of line (a closure, a `core::array::from_fn` body, a
# non-`#[inline(always)]` helper) compiles without those features, and the
# intrinsics inside it become un-inlinable local functions. This script
# fails if the release binary
#
#   * defines any `core::core_arch::x86::{avx,avx2,fma}::` intrinsic as a
#     function of its own,
#   * defines any closure of `kernels::simd_{phi,mu,common}`, or
#   * calls a closure or `core::array::try_from_fn` from `avx2_entry`.
#
# Usage: scripts/check_simd_codegen.sh [BINARY]
# Without BINARY it builds and checks `--release --example quickstart`.
# Needs `nm` and `objdump` (binutils).
set -euo pipefail
cd "$(dirname "$0")/.."

bin=${1:-}
if [ -z "$bin" ]; then
    cargo build --release --quiet --example quickstart
    bin=${CARGO_TARGET_DIR:-target}/release/examples/quickstart
fi

status=0
report() {
    echo "simd-codegen: $1" >&2
    sed 's/^/    /' >&2
    status=1
}

syms=$(nm -C "$bin")
if ! grep -q 'kernels::avx2_entry::' <<<"$syms"; then
    echo "simd-codegen: no kernels::avx2_entry symbols in $bin" >&2
    exit 1
fi

bad=$(grep -E 'core::core_arch::x86::(avx|avx2|fma)::' <<<"$syms" || true)
[ -z "$bad" ] || report "outlined AVX/AVX2/FMA intrinsics (compiled without the target features):" <<<"$bad"

bad=$(grep -E 'kernels::simd_(phi|mu|common)::.*\{\{closure\}\}' <<<"$syms" || true)
[ -z "$bad" ] || report "outlined closures in the vectorized kernels:" <<<"$bad"

calls=$(objdump -d --no-show-raw-insn -C "$bin" |
    awk '/^[0-9a-f]+ <.*>:$/ { inside = /avx2_entry::/ }
         inside && /call/ { sub(/.*call +[0-9a-f]+ /, ""); print }' | sort | uniq -c)
bad=$(grep -E '\{\{closure\}\}|try_from_fn' <<<"$calls" || true)
[ -z "$bad" ] || report "avx2_entry calls out-of-line closures (count, target):" <<<"$bad"

if [ "$status" -eq 0 ]; then
    echo "simd-codegen: ok ($bin)"
fi
exit "$status"
