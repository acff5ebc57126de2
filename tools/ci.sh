#!/usr/bin/env bash
# CI's tests job; run it here with `bash tools/ci.sh`.  It stops at the first
# failing command.  Outside GitHub Actions `curvipat` is `python -m curvipat`, so
# no stale console script is tested, and an unset RUNNER_TEMP is a temporary
# directory, removed on exit.
set -eo pipefail
cd "$(dirname "$0")/.."
if [ -z "$RUNNER_TEMP" ]; then
    RUNNER_TEMP=$(mktemp -d)
    trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
export CURVIPAT_THREADS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} RUNNER_TEMP
[ -n "$GITHUB_ACTIONS" ] || curvipat() { python -m curvipat "$@"; }

for kind in theta phi rho2 rho3 z lambda; do curvipat props --kind "$kind" --n-list 8; done
curvipat run --model bvam_disk --n-rho 6 --n-theta 8 --m 2 --tstar 0.01 --out "$RUNNER_TEMP/o"
curvipat converge --model bvam_disk --n-rho 6 --n-theta 8 --tstar 0.01 --m-list 2,4 --fe --dense
# the cylinder's bulk reaction covers one slice in all three schemes, and the split scheme
# holds the bulk in an eigenbasis, so every sample and heatmap forms its physical fields
curvipat run --model bsdib_cylinder --n-rho 4 --n-theta 6 --n-z 4 --m 2 --tstar 0.01 --snapshots 1 --heatmap --out "$RUNNER_TEMP/c"
curvipat converge --model bsdib_cylinder --n-rho 4 --n-theta 6 --n-z 4 --tstar 0.01 --m-list 2,4 --fe --dense
# the ball's components have two field shapes: each scheme sets up per shape
curvipat converge --model bulk_surface_schnakenberg_ball --n-rho 4 --n-theta 6 --n-phi 4 --tstar 0.001 --m-list 2,4 --fe --dense
# the other two models, so that every model runs each scheme
curvipat run --model dib_sphere --n-theta 8 --n-phi 5 --m 2 --tstar 0.01 --out "$RUNNER_TEMP/s"
curvipat converge --model dib_sphere --n-theta 8 --n-phi 5 --tstar 0.01 --m-list 2,4 --fe --dense
curvipat run --model schnakenberg_anomalous_disk --n-rho 5 --n-theta 8 --m 2 --tstar 0.001 --out "$RUNNER_TEMP/a"
curvipat converge --model schnakenberg_anomalous_disk --n-rho 5 --n-theta 8 --tstar 0.001 --m-list 2,4 --fe --dense
rc=0; curvipat run --model bvam_disk --n-rho 4 --n-theta 6 --m 2 --tstar 0.01 --set params.rho_star=1e150 --out "$RUNNER_TEMP/bad" || rc=$?; test "$rc" -eq 2
rc=0; curvipat props --kind rho2 --n-list 8 --set params.rho_star=1e300 || rc=$?; test "$rc" -eq 2

python -m pytest -q --continue-on-collection-errors

# normal draws take numpy's float64 cos and sin, which dispatch on the CPU: the seed
# contract must also hold below AVX-512 (a subshell, so the smoke test keeps the default)
(
    export NPY_DISABLE_CPU_FEATURES="AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"
    python -c "from numpy.lib.introspect import opt_func_info; level = opt_func_info(func_name='^cos$', signature='float64')['cos']['dd']['current']; assert level != 'X86_V4', level; print('float64 cos on', level)"
    python -m pytest -q tests/test_models.py -k "rng or initial"
)

python -m pytest -q perfbench/test_smoke.py
