import dataclasses
import hashlib
import itertools
import math
import tracemalloc
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from curvipat import operators as op
from curvipat import tensor
from curvipat.integrators import (
    ComponentOps,
    DivergenceError,
    Geometry,
    GeometryOps,
    apply_diffusion,
    dense_diffusion,
    diffusion_factors,
    prepare,
    prepared_bytes,
    SplitFactor,
    run_simulation,
    step_forward_euler,
    step_split,
)
from curvipat.phifun import phi1_dense_oracle, phi1_matrix
from curvipat import cli, integrators, models
from oracles import (
    MeanSeries,
    banded_gather_product,
    coupled_exponential_euler,
    dense_operator,
    kronecker_summands,
    plain_split_step,
    step_exact_ee_reference,
    unfolded_step,
    unfused_split_step,
)


def disk_base(n_rho=4, n_theta=4, coeff=0.7):
    return ComponentOps(
        Geometry.DISK, coeff, rho=op.build_rho(2, n_rho, 1.0), theta=op.build_theta(n_theta)
    )


def sphere_base(n_theta=4, n_phi=4, coeff=0.9):
    return ComponentOps(
        Geometry.SPHERE, coeff, theta=op.build_theta(n_theta), phi=op.build_phi_op(n_phi)
    )


def ball_base(n_rho=3, n_theta=4, n_phi=3, coeff=1.1):
    return ComponentOps(
        Geometry.BALL,
        coeff,
        rho=op.build_rho(3, n_rho, 1.0),
        theta=op.build_theta(n_theta),
        phi=op.build_phi_op(n_phi),
    )


def cylinder_base(n_rho=3, n_theta=4, n_z=4, coeff=0.8):
    return ComponentOps(
        Geometry.CYLINDER,
        coeff,
        rho=op.build_rho(2, n_rho, 1.0),
        theta=op.build_theta(n_theta),
        z=op.build_z(n_z, 1.0),
    )


ALL_BASES = {
    "disk": disk_base,
    "sphere": sphere_base,
    "ball": ball_base,
    "cylinder": cylinder_base,
}


def dense_split_reference(ops, W, G, tau):
    """vec-form split step with dense phi1 factors in the printed order."""
    factors = kronecker_summands(ops.base)
    M = reduce(np.add, factors)
    action = M @ tensor.vec(W) + tensor.vec(G)
    for Mi in reversed(factors):
        action = phi1_dense_oracle(tau * Mi, max_dim=4096) @ action
    return tensor.unvec(tensor.vec(W) + tau * action, W.shape)


# ---------------------------------------------------------------------------
# diffusion action
# ---------------------------------------------------------------------------


def test_apply_diffusion_disk_annihilates_constants():
    ops = prepare(disk_base(), 0.1)
    out = apply_diffusion(ops, np.full((4, 4), 2.5))
    assert np.max(np.abs(out)) <= 1e-11 * np.max(np.abs(ops.base.rho.toarray()))


def test_apply_diffusion_sphere_annihilates_constants():
    ops = prepare(sphere_base(), 0.1)
    out = apply_diffusion(ops, np.full((4, 4), -1.3))
    assert np.max(np.abs(out)) <= 1e-11 * np.max(np.abs(ops.base.phi.toarray()))


@pytest.mark.parametrize(
    "name,dims",
    [pytest.param(name, ALL_BASES[name]().shape, id=name) for name in sorted(ALL_BASES)]
    + [
        # block-banded operators, with the periodic corners along theta
        pytest.param(name, dims, id=f"{name}-{'x'.join(map(str, dims))}")
        for name, dims in [
            ("disk", (20, 4)),
            ("sphere", (20, 4)),
            ("ball", (20, 20, 3)),
            ("cylinder", (20, 20, 3)),
            ("disk", (4, 128)),
            ("sphere", (128, 4)),
            ("cylinder", (2, 128, 2)),
            # block-banded theta, weighted after its product, with a
            # V^-1/V phi1
            ("cylinder", (3, 32, 8)),
        ]
    ],
)
def test_apply_diffusion_matches_kronecker_oracle(name, dims):
    base = ALL_BASES[name](*dims)
    ops = prepare(base, 0.0)
    rng = np.random.RandomState(20)
    W = rng.randn(*base.shape)
    ref = dense_operator(base) @ tensor.vec(W)
    assert np.max(np.abs(tensor.vec(apply_diffusion(ops, W)) - ref)) <= 1e-12 * max(
        1.0, np.max(np.abs(ref))
    )


@pytest.mark.parametrize(
    "name,dims,blocks,fourier",
    [
        # n <= 16, a prime n and a last mode below BLOCK_LAST_MIN stay dense
        ("cylinder", (20, 17, 20), [10, None, None], False),
        ("disk", (16, 128), [None, 16], True),
        ("sphere", (127, 6), [None, None], False),
        ("sphere", (128, 6), [16, None], True),
        ("cylinder", (4, 128, 4), [None, 16, None], True),
        # the last-mode summand of the ball, weighted by rho alone, is
        # stacked while n_phi <= n_theta, else block-banded or dense
        ("ball", (30, 50, 30), [15, 10, "stacked"], False),
        ("ball", (30, 20, 96), [15, 10, 16], False),
        ("ball", (30, 50, 60), [15, 10, None], False),
        ("disk", (16, 64), [None, None], False),
        # the other benchmark shapes (the ball's is above)
        ("cylinder", (160, 160, 20), [16, 16, None], True),
        ("disk", (160, 160), [16, 16], True),
        ("cylinder", (20, 20, 3), [10, 10, None], False),
    ],
)
def test_prepare_picks_forms_from_mode_size_and_position(name, dims, blocks, fourier):
    ops = prepare(ALL_BASES[name](*dims), 0.01)
    got = {}
    for f in ops.factors:
        if isinstance(f.A, tensor.BlockBanded):
            got[f.mode] = f.A.blocks.shape[1]
        elif f.A.ndim == 3:
            got[f.mode] = "stacked"
            n = dims[f.mode - 1]
            assert f.mode == len(dims) and f.weight is None
            assert f.A.shape == f.phi1.shape == (dims[0], n, n)
            # laid out transposed, so that the batched GEMM reads each
            # stack as a contiguous right factor
            assert f.A.transpose(0, 2, 1).flags.c_contiguous
            assert f.phi1.transpose(0, 2, 1).flags.c_contiguous
        else:
            got[f.mode] = None
        if f.mode == ops.base.geometry.axes.index("theta") + 1:
            assert isinstance(f.phi1, tuple) is not fourier
    assert [got[mu] for mu in range(1, len(dims) + 1)] == blocks


def test_apply_diffusion_shape_error():
    ops = prepare(disk_base(), 0.1)
    with pytest.raises(ValueError):
        apply_diffusion(ops, np.zeros((5, 4)))


# ---------------------------------------------------------------------------
# split steppers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_BASES))
def test_step_split_tau_zero_is_identity(name):
    base = ALL_BASES[name]()
    ops = prepare(base, 0.0)
    rng = np.random.RandomState(21)
    W = rng.randn(*base.shape)
    out = step_split(ops, W, rng.randn(*base.shape))
    assert np.array_equal(out, W)


@pytest.mark.parametrize("name", ["disk", "sphere", "ball"])
def test_step_split_constant_fixed_point(name):
    base = ALL_BASES[name]()
    ops = prepare(base, 0.05)
    W = np.full(base.shape, 3.7)
    out = step_split(ops, W, np.zeros(base.shape))
    assert np.max(np.abs(out - W)) <= 1e-10


def test_step_split_cylinder_zero_field_fixed_point():
    # constants are not fixed (Dirichlet top row acts); the zero field is
    base = cylinder_base()
    ops = prepare(base, 0.05)
    zero = np.zeros(base.shape)
    assert np.array_equal(step_split(ops, zero, zero), zero)
    const = np.full(base.shape, 1.0)
    assert np.max(np.abs(step_split(ops, const, zero) - const)) > 1e-6


@pytest.mark.parametrize(
    "name,dims",
    [
        ("disk", (4, 4)),
        ("sphere", (4, 4)),
        ("ball", (3, 4, 3)),
        ("cylinder", (3, 4, 4)),
        # block-banded M W (along the disk's last mode too); rfft phi1
        # along theta (n_theta >= 128); the ball's stacked phi summand
        ("ball", (3, 20, 3)),
        ("disk", (4, 128)),
        ("sphere", (128, 4)),
        ("cylinder", (2, 128, 2)),
        # block-banded theta M W with a V^-1/V phi1
        ("cylinder", (3, 32, 8)),
    ],
)
def test_step_split_matches_dense_oracle(name, dims):
    base = ALL_BASES[name](*dims)
    assert base.shape == dims
    tau = 0.037
    ops = prepare(base, tau)
    rng = np.random.RandomState(22)
    W = rng.randn(*dims)
    G = rng.randn(*dims)
    mine = step_split(ops, W, G)
    ref = dense_split_reference(ops, W, G, tau)
    assert np.max(np.abs(mine - ref)) <= 1e-10


# ---------------------------------------------------------------------------
# forward Euler and the dense classical reference
# ---------------------------------------------------------------------------


def test_forward_euler_tau_zero_identity():
    base = disk_base()
    ops = prepare(base, 0.0)
    W = np.random.RandomState(23).randn(4, 4)
    assert np.array_equal(step_forward_euler(ops, W, np.zeros((4, 4))), W)


def test_forward_euler_matches_split_to_second_order():
    base = disk_base(coeff=1.0)
    rng = np.random.RandomState(24)
    W = rng.randn(4, 4)
    G = np.zeros((4, 4))

    def gap(tau):
        ops = prepare(base, tau)
        return np.max(np.abs(step_split(ops, W, G) - step_forward_euler(ops, W, G)))

    g1, g2 = gap(1e-3), gap(5e-4)
    assert 3.0 <= g1 / g2 <= 5.0


def test_forward_euler_blows_up_where_split_stays_bounded():
    dims = {"n_rho": 40, "n_theta": 80}
    with pytest.raises(DivergenceError):
        run_simulation(
            models.build_system("bvam_disk", dims, 1), 3000, 1.0, method="forward_euler"
        )
    res = run_simulation(models.build_system("bvam_disk", dims, 1), 3000, 1.0)
    assert max(np.max(np.abs(W)) for W in res.fields.values()) < 1e6


def test_exact_ee_reference_tau_zero_and_zero_matrix():
    rng = np.random.RandomState(25)
    w, g = rng.randn(6), rng.randn(6)
    M = rng.randn(6, 6)
    assert np.array_equal(step_exact_ee_reference(M, w, g, 0.0), w)
    out = step_exact_ee_reference(np.zeros((6, 6)), w, g, 0.25)
    assert np.allclose(out, w + 0.25 * g, atol=1e-15)


def test_exact_ee_reference_size_cap():
    with pytest.raises(ValueError):
        step_exact_ee_reference(np.zeros((5000, 5000)), np.zeros(5000), np.zeros(5000), 0.1)


def test_one_step_split_defect_second_order_vs_exact_ee():
    # disk at (6, 8) with the BVAM diffusion coefficient (the unscaled
    # operators are out of the asymptotic regime at these tau).  The raw
    # one-step difference carries an extra factor tau (local error ~ tau^3),
    # so the second-order phi1 defect is read off from gap/tau.
    base = ComponentOps(
        Geometry.DISK, 3.87e-3, rho=op.build_rho(2, 6, 1.0), theta=op.build_theta(8)
    )
    rng = np.random.RandomState(26)
    w = rng.randn(48)
    g = rng.randn(48)
    M = dense_operator(base)

    def defect(tau):
        ops = prepare(base, tau)
        split = step_split(ops, tensor.unvec(w, (6, 8)), tensor.unvec(g, (6, 8)))
        exact = step_exact_ee_reference(M, w, g, tau)
        return np.linalg.norm(tensor.vec(split) - exact) / tau

    taus = [2.0**-k for k in range(3, 8)]
    gaps = [defect(t) for t in taus]
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    assert all(3.3 <= r <= 4.8 for r in ratios)


def superdiffusive_disk_base(n_rho=4, n_theta=4, coeff=0.6):
    return ComponentOps(
        Geometry.DISK,
        coeff,
        rho=op.build_lambda(n_rho, 1.0, -1.95),
        theta=op.build_theta(n_theta),
    )


@pytest.mark.parametrize(
    "make,dims",
    [pytest.param(ALL_BASES[name], (), id=name) for name in sorted(ALL_BASES)]
    + [
        pytest.param(ALL_BASES[name], dims, id=f"{name}-{'x'.join(map(str, dims))}")
        for name, dims in [
            ("disk", (7, 5)),
            ("sphere", (5, 7)),
            ("ball", (4, 5, 6)),
            ("cylinder", (5, 6, 4)),
        ]
    ]
    + [pytest.param(superdiffusive_disk_base, (5, 6), id="superdiffusive-disk")],
)
def test_dense_split_factors_equal_the_written_out_oracle(make, dims):
    # M assembled from the split factors is the hand-written one, bit for
    # bit, including the rho^-(2+lambda) weights of build_lambda; the
    # ball's theta summand multiplies w_rho w_phi before A, where the
    # oracle takes w_phi (A w_rho), so there an entry may differ by 1 ulp
    base = make(*dims)
    mine, oracle = dense_diffusion(base), dense_operator(base)
    assert mine.shape == oracle.shape == (math.prod(base.shape),) * 2
    if base.geometry is Geometry.BALL:
        np.testing.assert_array_max_ulp(mine, oracle, maxulp=1)
    else:
        assert mine.tobytes() == oracle.tobytes()


@pytest.mark.parametrize(
    "method,prepares,workspaces",
    [("split", 2, 1), ("forward_euler", 0, 1), ("dense", 0, 0)],
)
def test_each_scheme_builds_only_what_it_applies(monkeypatch, method, prepares, workspaces):
    # the dense scheme applies only its own matrices and needs no scratch;
    # forward Euler applies only M W, so it builds no phi1, and steps
    # through the same Workspace as the split scheme, one per field shape;
    # each prepare of a disk component takes one phi1 matrix (rho) and one
    # phi1 tensor (theta).  The ball's bulk (rho, theta, phi: one matrix,
    # two tensors) and surface (theta, phi: one tensor, one matrix) make
    # two shapes, each of two components with their own coefficients
    calls = {"prepare": 0, "Workspace": 0, "phi1_matrix": 0, "phi1_outer": 0}

    def spy(name):
        real = getattr(integrators, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(integrators, name, counted)

    for name in calls:
        spy(name)
    system = models.build_system("bvam_disk", {"n_rho": 4, "n_theta": 6}, seed=5)
    run_simulation(system, 3, 0.06, method=method)
    assert calls == {
        "prepare": prepares, "Workspace": workspaces,
        "phi1_matrix": prepares, "phi1_outer": prepares,
    }
    calls.update(dict.fromkeys(calls, 0))
    dims = {"n_rho": 4, "n_theta": 6, "n_phi": 4}
    system = models.build_system("bulk_surface_schnakenberg_ball", dims, seed=5)
    run_simulation(system, 3, 1e-3, method=method)
    assert calls == {
        "prepare": 2 * prepares, "Workspace": 2 * workspaces,
        "phi1_matrix": 2 * prepares, "phi1_outer": 3 * prepares,
    }


def test_run_simulation_prepares_once_per_distinct_operator_set(monkeypatch):
    # the cylinder's u and v diffuse with the same coefficient on the same
    # axis objects, so they share one set of prepared factors, each in its
    # own GeometryOps (whose base names the component); the bvam disk's u
    # and v differ in their coefficient.  The fields equal those of
    # separately prepared components (test_run_simulation_single_step_equals_manual)
    real_prepare, real_step = integrators.prepare, integrators.step_split
    prepared, stepped = [], []

    def prepare_spy(base, tau):
        prepared.append(base)
        return real_prepare(base, tau)

    def step_spy(ops, *args, **kwargs):
        stepped.append(ops)
        return real_step(ops, *args, **kwargs)

    monkeypatch.setattr(integrators, "prepare", prepare_spy)
    monkeypatch.setattr(integrators, "step_split", step_spy)
    cases = [
        ("bsdib_cylinder", {"n_rho": 4, "n_theta": 6, "n_z": 4}, 3),
        ("bvam_disk", {"n_rho": 4, "n_theta": 6}, 2),
    ]
    for name, dims, prepares in cases:
        prepared.clear()
        stepped.clear()
        system = models.build_system(name, dims, seed=5)
        run_simulation(system, 1, 0.06)
        assert len(prepared) == prepares, name
        assert [id(ops.base) for ops in stepped] == [id(c.ops) for c in system.components]
        assert len({id(ops.factors) for ops in stepped}) == prepares, name


# ---------------------------------------------------------------------------
# stability of the linear step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_BASES))
@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_linear_step_operator_is_power_bounded(name, tau):
    base = ALL_BASES[name]()
    factors = kronecker_summands(base)
    M = reduce(np.add, factors)
    P = np.eye(M.shape[0])
    for Mi in factors:
        P = P @ phi1_dense_oracle(tau * Mi, max_dim=4096)
    T = np.eye(M.shape[0]) + tau * (P @ M)
    radius = np.max(np.abs(np.linalg.eigvals(T)))
    assert radius <= 1.0 + 1e-10


@pytest.mark.parametrize("name", ["disk", "sphere", "ball"])
def test_linear_trajectories_stay_bounded(name):
    base = ALL_BASES[name]()
    ops = prepare(base, 10.0)
    rng = np.random.RandomState(27)
    W = rng.randn(*base.shape)
    zero = np.zeros(base.shape)
    start = np.linalg.norm(W)
    worst = 0.0
    for _ in range(300):
        W = step_split(ops, W, zero)
        worst = max(worst, np.linalg.norm(W) / start)
    assert worst < 50.0
    assert np.all(np.isfinite(W))


@pytest.mark.xfail(
    strict=True,
    reason="per-step non-expansion in the Frobenius norm does not hold for "
    "large tau: the one-step operator has spectral radius 1 (power bounded) "
    "but transient growth up to ~9x",
)
def test_linear_step_never_expands_any_state():
    base = disk_base()
    ops = prepare(base, 10.0)
    rng = np.random.RandomState(28)
    zero = np.zeros(base.shape)
    for _ in range(40):
        W = rng.randn(*base.shape)
        out = step_split(ops, W, zero)
        assert np.linalg.norm(out) <= np.linalg.norm(W) * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------


# Five steps from seed 3 of every model, at dims that take every factor form
# prepare has: dense and block-banded M W (n > 16 off the last mode, and the
# disk's last mode n_theta = 128 >= BLOCK_LAST_MIN), dense phi1 matrices, the
# V^-1/V triple, the rfft (n_theta >= 128, along the first and a middle mode)
# and the ball's stacked phi summand (n_phi = 6 <= n_theta = 8).  Digest:
# SHA-256 of the final fields' bytes in component order.  The disk, ball and
# cylinder digests were re-recorded when the last-mode forms and the cube by
# multiplication (in the DIB kinetics) came in; the anomalous disk (no form
# along its 12-point last mode changed) and the sphere kept theirs.  All but
# the ball's were re-recorded again when tau moved into the first-applied
# phi1 and the cylinder's theta weights into its M W blocks, which round
# differently (test_five_steps_equal_the_unfused_oracle bounds the change);
# the ball's increments of about 1e-4 on fields of about 1 lose those
# roundings in the sum, so its digest stayed.  The cylinder's alone was
# re-recorded when its bulk decay moved into M W
# (test_cylinder_decay_in_m_w_equals_the_unfolded_oracle bounds the change),
# and the sphere's alone when it took the cylinder's DIB kinetics, with
# u = v = 1, which re-associates its eta4 (1 + e5 r) s (1 + e3 s) product
# (test_kinetics_helpers_match_expressions_bitwise pins the formula).  The
# cylinder's alone was re-recorded again when the split scheme came to hold
# its bulk u and v in the eigenbasis of theta and z
# (test_cylinder_decay_in_m_w_equals_the_unfolded_oracle bounds the
# change).
GOLDEN_RUNS = {
    "bvam_disk": (
        {"n_rho": 24, "n_theta": 128}, 0.5,
        "d41ad57105fa98b7b22c8802ed6de7f265d5eba6ab752785af390676325b9e84",
    ),
    "schnakenberg_anomalous_disk": (
        {"n_rho": 20, "n_theta": 12}, 1e-3,
        "f6655aa6ae685a140e6fe436329c5fc9e8481f95da59e33f9fdb1b9d630a7e38",
    ),
    "dib_sphere": (
        {"n_theta": 128, "n_phi": 18}, 0.01,
        "370d414f9b6f534469f237137ffc224977df78c5def51c3c67358abbcd73c3ba",
    ),
    "bulk_surface_schnakenberg_ball": (
        {"n_rho": 18, "n_theta": 8, "n_phi": 6}, 1e-3,
        "1a36b6ed6aafb24c5892eae53cdd5de564693a6c3a491f6e67e2b91ca12d2694",
    ),
    "bsdib_cylinder": (
        {"n_rho": 20, "n_theta": 128, "n_z": 4}, 0.05,
        "e1f7126607f2f820a9e8e8639af045c08ff5fb5310bd631e7e11ee9e9e759955",
    ),
}


def factor_forms(f: SplitFactor, order: int) -> tuple[str, str]:
    """The forms of a prepared factor's M W operator and of its phi1."""
    if f.A is None:
        return "diagonal", "diagonal"
    if isinstance(f.A, tensor.BlockBanded):
        diffusion = "banded-last" if f.mode == order else "banded"
        diffusion += "-shifted" if f.A.blocks.ndim == 4 else ""
    else:
        diffusion = "stacked" if f.A.ndim == 3 else "dense"
    if isinstance(f.phi1, tuple):
        return diffusion, "triple"
    if isinstance(f.phi1, tensor.BlockRows):
        return diffusion, "band"
    if isinstance(f.phi1, tensor.BlockBanded):
        return diffusion, "banded"
    if np.iscomplexobj(f.phi1):
        return diffusion, "rfft"
    return diffusion, "stacked" if f.phi1.ndim == 3 else "dense"


def test_run_simulation_final_fields_frozen():
    forms = set()
    for name, (dims, t_star, digest) in GOLDEN_RUNS.items():
        system = models.build_system(name, dims, seed=3)
        fields = run_simulation(system, 5, t_star).fields
        got = hashlib.sha256(b"".join(fields[c.name].tobytes() for c in system.components))
        assert got.hexdigest() == digest, name
        for c in system.components:
            for f in prepare(c.ops, t_star / 5).factors:
                forms.update(factor_forms(f, len(c.ops.shape)))
    assert forms == {
        "dense", "banded", "banded-last", "banded-shifted", "stacked", "triple", "rfft", "diagonal"
    }


def test_five_steps_equal_the_unfused_oracle():
    # tau on the first-applied phi1, and the cylinder's bulk held in the
    # eigenbasis of theta and z, move only rounding: five steps of every
    # golden model stay within 1e-13 of the step in the physical field
    # that multiplies tau in last
    for name, (dims, t_star, _) in GOLDEN_RUNS.items():
        system = models.build_system(name, dims, seed=3)
        fields = run_simulation(system, 5, t_star).fields
        geo = {c.name: prepare(c.ops, t_star / 5) for c in system.components}
        states = {c.name: c.initial.copy() for c in system.components}
        for _ in range(5):
            gs = system.kinetics(states)
            states = {
                c.name: unfused_split_step(geo[c.name], states[c.name], gs[c.name])
                for c in system.components
            }
        for c in system.components:
            ref = states[c.name]
            error = np.max(np.abs(fields[c.name] - ref)) / np.max(np.abs(ref))
            assert error <= 1e-13, (name, c.name, error)


@pytest.mark.parametrize(
    "method, dims, t_star, m",
    [
        ("split", GOLDEN_RUNS["bsdib_cylinder"][0], 0.05, 5),
        # stable on this grid only at a far smaller t_star
        ("forward_euler", GOLDEN_RUNS["bsdib_cylinder"][0], 0.05e-4, 5),
        # the golden dims are beyond the dense reference cap
        ("dense", {"n_rho": 6, "n_theta": 8, "n_z": 4}, 0.05, 5),
        # the benchmark's size; u and v start at 0, so the decay acts from
        # the second step on
        ("split", {"n_rho": 160, "n_theta": 160, "n_z": 20}, 2 * 50.0 / 8000.0, 2),
        # the split scheme holds u and v in the eigenbasis of theta and z,
        # at desk sizes and at the benchmark's, at its tau
        ("split", {"n_rho": 4, "n_theta": 6, "n_z": 4}, 5 * 50.0 / 8000.0, 5),
        ("split", {"n_rho": 6, "n_theta": 8, "n_z": 4}, 5 * 50.0 / 8000.0, 5),
        ("split", {"n_rho": 160, "n_theta": 160, "n_z": 20}, 3 * 50.0 / 8000.0, 3),
    ],
)
def test_cylinder_decay_in_m_w_equals_the_unfolded_oracle(method, dims, t_star, m):
    # M W applies the cylinder's bulk decay and phi1 does not, so the scheme
    # is the one with -decay W in the reaction term, and only rounding
    # moves: the run stays within 1e-13 of that step on every component.
    # The split scheme steps u and v as coefficients in their eigenbasis,
    # and the kinetics read their physical values on the z = 0 slice
    system = models.build_system("bsdib_cylinder", dims, seed=3)
    assert {c.name: c.ops.decay for c in system.components} == {
        "u": 1.0, "v": 1.0, "r": 0.0, "s": 0.0
    }
    fields = run_simulation(system, m, t_star, method=method).fields
    if method == "dense":
        states = coupled_exponential_euler(system, m, t_star)
    else:
        states = {c.name: c.initial.copy() for c in system.components}
        for _ in range(m):
            gs = system.kinetics(states)
            states = {
                c.name: unfolded_step(method, c.ops, t_star / m, states[c.name], gs[c.name])
                for c in system.components
            }
    for c in system.components:
        ref = states[c.name]
        error = np.max(np.abs(fields[c.name] - ref)) / np.max(np.abs(ref))
        assert error <= 1e-13, (c.name, error)


def test_cylinder_final_fields_do_not_depend_on_sampling():
    # samples read the physical fields of the held bulk from scratch and
    # never write back into its coefficients: a run sampled every step ends
    # bit for bit where an unsampled one does, and its samples are the
    # physical fields
    dims = {"n_rho": 20, "n_theta": 128, "n_z": 4}
    plain = run_simulation(models.build_system("bsdib_cylinder", dims, seed=3), 6, 0.06).fields
    samples = []

    def hook(step, t, states):
        samples.append({k: W.copy() for k, W in states.items()})

    system = models.build_system("bsdib_cylinder", dims, seed=3)
    sampled = run_simulation(system, 6, 0.06, record_every=1, sample_hook=hook).fields
    assert len(samples) == 7
    for c in system.components:
        assert sampled[c.name].tobytes() == plain[c.name].tobytes(), c.name
        assert samples[0][c.name].shape == c.ops.shape
        assert samples[-1][c.name].tobytes() == plain[c.name].tobytes(), c.name
    # u and v start at their equilibrium, 0 once lifted
    assert not samples[0]["u"].any() and not samples[0]["v"].any()


def test_a_third_held_component_of_one_shape_gets_scratch_of_its_own():
    # w copies the cylinder's u, so three components are held in eigenbases
    # of one shape: w gets a new scratch field, which the memory estimate
    # counts, is sampled every step and ends bit for bit as u
    cylinder = models.model_spec("bsdib_cylinder")
    u = cylinder.components["u"]
    record = dataclasses.replace(
        cylinder,
        components=cylinder.components | {"w": u},
        equilibrium=lambda p: (eq := cylinder.equilibrium(p)) | {"w": eq["u"]},
        reaction=lambda *args: (gs := cylinder.reaction(*args)) | {"w": gs["u"]},
    )
    dims, shape = {"n_rho": 6, "n_theta": 8, "n_z": 4}, (6, 8, 4)
    added = models._check_memory(record, dims) - models._check_memory(cylinder, dims)
    assert added == 8 * 2 * math.prod(shape) + prepared_bytes(u.geometry, shape, u.support)
    samples = []

    def hook(step, t, states):
        samples.append(states["w"].tobytes() == states["u"].tobytes())

    system = models.build_system(record, dims, seed=3)
    fields = run_simulation(system, 4, 0.04, record_every=1, sample_hook=hook).fields
    assert samples == [True] * 5 and fields["w"].tobytes() == fields["u"].tobytes()
    assert fields["u"].any() and not np.shares_memory(fields["u"], fields["w"])


def _workspace_bytes(monkeypatch, record, dims) -> int:
    """The bytes of the fields and rfft spectra that the split scheme's
    workspaces allocate over a short run of the record (views excluded)."""
    made = []

    class Recorded(integrators.Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(integrators, "Workspace", Recorded)
    run_simulation(models.build_system(record, dims, seed=3), 2, 0.02)
    arrays = [a for w in made for a in (*w.fields, *w._spectra.values()) if a.base is None]
    return sum(a.nbytes for a in arrays)


def test_held_and_unheld_components_of_one_shape_share_their_scratch(monkeypatch):
    # the cylinder's held bulk and an unheld w of the same field shape, whose
    # theta takes the rfft, share one workspace: what the workspaces
    # allocate fits in the memory estimate's scratch part, two fields and a
    # spectrum bound per field shape, and the plain cylinder allocates its
    # bulk's two fields and the surface's two fields and spectrum
    cylinder = models.model_spec("bsdib_cylinder")
    w = models.Component(Geometry.CYLINDER, lambda *_: 1.0, models.Uniform(0.0, 1e-2))
    record = dataclasses.replace(
        cylinder,
        components=cylinder.components | {"w": w},
        equilibrium=lambda p: cylinder.equilibrium(p) | {"w": 0.0},
        buffers=cylinder.buffers + ("w",),
        reaction=lambda states, out, *rest: cylinder.reaction(states, out[:-1], *rest)
        | {"w": np.negative(states["w"], out=out[-1])},
    )
    dims = {"n_rho": 6, "n_theta": 128, "n_z": 4}
    shapes = models.component_shapes(record, dims)
    bulk, disk = math.prod(shapes["w"]), math.prod(shapes["r"])
    others = record.buffer_bytes(shapes) + sum(
        8 * (1 if c.perturbation is None else 2) * math.prod(shapes[name])
        + prepared_bytes(c.geometry, shapes[name], c.support)
        for name, c in record.components.items()
    )
    scratch = models._check_memory(record, dims) - others
    assert scratch == 8 * 4 * (bulk + disk)
    assert _workspace_bytes(monkeypatch, record, dims) <= scratch
    spectrum = 16 * 6 * (128 // 2 + 1)
    assert _workspace_bytes(monkeypatch, cylinder, dims) == 8 * 2 * (bulk + disk) + spectrum


def random_dims(name: str, rng) -> tuple[int, ...]:
    """Dims of a base from ALL_BASES, drawn so that every form prepare
    picks turns up: angles of up to 219 points (rfft from 128, with and
    without a block size; the cylinder's from 96), radii of up to 89
    (bands from 32)."""
    theta = rng.randint(4, 220)
    if name == "disk":
        return rng.randint(3, 90), theta
    if name == "sphere":
        return theta, rng.randint(3, 70)
    if name == "ball":
        return rng.randint(3, 20), rng.randint(4, 60), rng.randint(3, 40)
    return rng.randint(3, 90), rng.randint(96, 220), rng.randint(2, 13)


def test_every_prepared_form_agrees_with_the_plain_one():
    # one split step in the forms prepare picks for seeded random dims and
    # tau agrees with the same summands in their plain forms: the bands,
    # blocks, stacks and rfft symbols are exact up to rounding, and so are
    # tau and the weights folded into them
    rng = np.random.RandomState(26)
    pairs = set()
    for draw in range(160):
        name = list(ALL_BASES)[draw % len(ALL_BASES)]
        dims, tau = random_dims(name, rng), 10.0 ** rng.uniform(-9, 0)
        base = ALL_BASES[name](*dims)
        ops = prepare(base, tau)
        for f in ops.factors:
            diffusion, phi = factor_forms(f, len(dims))
            pairs.add((diffusion.partition("-")[0], phi))
        W, G = rng.randn(*dims), rng.randn(*dims)
        ref = plain_split_step(base, tau, W, G)
        error = np.max(np.abs(step_split(ops, W, G) - ref)) / np.max(np.abs(ref))
        assert error <= 1e-12, (name, dims, tau, error)
    assert pairs == {
        ("dense", "dense"),
        ("dense", "rfft"),
        ("dense", "triple"),
        ("banded", "dense"),
        ("banded", "band"),
        ("banded", "rfft"),
        ("banded", "triple"),
        ("stacked", "stacked"),
    }, pairs


def held_bytes(ops) -> int:
    """Bytes of every array the prepared factors hold."""
    arrays = []
    for f in ops.factors:
        for part in (f.A, f.weight, f.phi1):
            if isinstance(part, tensor.BlockBanded):
                arrays += [part.blocks, part.up, part.down]
                if f.mode == len(ops.shape):  # built by the first product
                    arrays += part.gather
            elif isinstance(part, tensor.BlockRows):
                arrays.append(part.rows)
            elif isinstance(part, tuple):
                arrays += part
            elif part is not None:
                arrays.append(part)
    if ops.basis is not None:
        arrays += [ops.basis.V, ops.basis.V_inv, ops.basis.U, ops.basis.U_inv]
    return sum(a.nbytes for a in arrays)


def shipped_dims():
    """(model, dims, tau) of the golden runs, the benchmark workloads (at the
    time steps of the configs they share dims with) and every
    configs/*.cfg."""
    yield from ((name, dims, t_star / 5) for name, (dims, t_star, _) in GOLDEN_RUNS.items())
    yield "bsdib_cylinder", {"n_rho": 160, "n_theta": 160, "n_z": 20}, 50 / 8000
    yield "bulk_surface_schnakenberg_ball", {"n_rho": 30, "n_theta": 50, "n_phi": 30}, 20 / 200000
    yield "schnakenberg_anomalous_disk", {"n_rho": 160, "n_theta": 160}, 2.5 / 25000
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        raw = cli.parse_config_file(path)
        keys = models.dim_keys(models.ModelName(raw["model"]))
        tau = float(raw["tstar"]) / int(raw["m"])
        yield raw["model"], {key: int(raw[key]) for key in keys}, tau


def test_prepared_bytes_bounds_what_prepare_holds():
    # the memory check before a run counts prepared factors by this estimate,
    # so it must cover every form prepare picks, stacks and the eigenbasis
    # of the cylinder's bulk included.  It runs before tau is known, so it
    # counts a dense phi1 that prepare may hold as its block tridiagonal
    # band as n x n.  The tightness check takes off what that form leaves
    # out: n^2 - k 3 b^2 entries per matrix (its k block rows, the two cut
    # edges held as zeros)
    held_forms = set()
    for name, dims, tau in shipped_dims():
        system = models.build_system(name, dims, seed=1)
        for c in system.components:
            g, shape = c.ops.geometry, c.ops.shape
            for ops in (prepare(c.ops, 1e-3), prepare(c.ops, tau)):
                held = held_bytes(ops)
                estimate = prepared_bytes(g, shape, c.ops.support)
                dropped = 0
                for f in ops.factors:
                    if isinstance(f.phi1, tensor.BlockRows):
                        p, k, b = f.phi1.rows.shape[:3]
                        dropped += 8 * p * (f.phi1.n**2 - k * 3 * b * b)
                if ops.basis is not None:
                    radial = ops.factors[0].phi1
                    held_forms.add("band" if isinstance(radial, tensor.BlockRows) else "dense")
                assert held <= estimate, (name, dims, c.name)
                assert estimate - dropped <= 1.05 * held, (name, dims, c.name)
    # the cylinder's bulk fields are held with a dense radial phi1 and, on
    # the 160 x 160 x 20 cylinder at its tau, with its band
    assert held_forms == {"band", "dense"}


def test_banded_mode_product_equals_the_gather_oracle_bitwise():
    # the links between blocks, added through views, cost each output
    # element the same floating-point operations as gathering the entries
    # outside the blocks did: on every block-banded operator prepare builds,
    # the radial one of a component held in its eigenbasis included, whose
    # blocks differ per leading index of the coefficients
    rng = np.random.RandomState(21)
    kinds = set()
    for name, dims, _ in shipped_dims():
        system = models.build_system(name, dims, seed=1)
        for c in system.components:
            axes = c.ops.axis_ops()
            ops = prepare(c.ops, 1e-3)
            for f in ops.factors:
                if not isinstance(f.A, tensor.BlockBanded):
                    continue
                T = rng.randn(*(ops.basis or ops).shape)
                axis = axes[0] if ops.basis is not None else axes[f.mode - 1]
                A = c.ops.coeff * axis.toarray()
                if f.A.blocks.ndim == 4:
                    kinds.add("per leading index")
                got = tensor.banded_mode_product(f.mode, f.A, T)
                assert np.array_equal(got, banded_gather_product(f.mode, f.A, A, T)), name
                if f.A.up[..., -1].any():
                    kinds.add("periodic")
                if f.A.up.shape[-1] == 2:
                    kinds.add("k = 2")
                if f.mode == len(dims):
                    kinds.add("last mode")
    assert kinds == {"periodic", "k = 2", "last mode", "per leading index"}


def cylinder_bulk_radial_phi1():
    """The component u of the 160 x 160 x 20 cylinder at its config's tau,
    with a whole support, so that its field is stepped: its prepared ops,
    X = tau coeff A_rho, and the dense phi1(X)."""
    system = models.build_system("bsdib_cylinder", {"n_rho": 160, "n_theta": 160, "n_z": 20}, 1)
    u = dataclasses.replace(system.components[0].ops, support=(...,))
    tau = 50 / 8000
    dense = phi1_matrix(tau * u.coeff, op.eig_tridiag(u.rho))
    return prepare(u, tau), tau * u.coeff * u.rho.toarray(), dense


def test_windowed_radial_phi1_is_no_less_accurate_than_the_dense_one():
    ops, X, dense = cylinder_bulk_radial_phi1()
    windowed = ops.factors[0].phi1
    assert isinstance(windowed, tensor.BlockRows)
    n, b = windowed.n, windowed.rows.shape[2]
    assert (n, b) == (160, 16)
    kept = tensor.windowed_mode_product(1, windowed, np.eye(n))
    oracle = phi1_dense_oracle(X)

    def error(P):
        return np.abs(P - oracle).sum(axis=1).max() / np.abs(oracle).sum(axis=1).max()

    assert error(kept) <= error(dense)
    # the oracle's entries outside the band sum to no more than the Taylor
    # tail bound prepare relies on
    blocks = np.arange(n) // b
    outside = np.abs(blocks[:, None] - blocks[None, :]) > 1
    rho = np.abs(X).sum(axis=1).max()
    tail = rho ** (b + 1) / math.factorial(b + 2) / (1 - rho / (b + 3))
    assert np.abs(np.where(outside, oracle, 0.0)).sum(axis=1).max() <= tail
    assert tail <= n * 2.0**-53 * np.abs(dense).sum(axis=1).max()


def test_prepare_windows_phi1_only_for_the_shipped_cylinder_bulk_fields():
    # the radial band holds at the 160 x 160 x 20 cylinder's tau for u, v
    # and r; s diffuses 20 times as fast, and every other shipped radial
    # operator has too few blocks or too large a norm at its tau.  The
    # cylinder's bulk fields u and v, whose reaction term covers the z = 0
    # slice alone, and no other field, are held in their eigenbasis.  No
    # bound overflows on the way
    for name, dims, tau in shipped_dims():
        system = models.build_system(name, dims, seed=1)
        windowed, held = set(), set()
        for c in system.components:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                ops = prepare(c.ops, tau)
            if any(isinstance(f.phi1, tensor.BlockRows) for f in ops.factors):
                windowed.add(c.name)
            if ops.basis is not None:
                held.add(c.name)
        cylinder_bulk = name == "bsdib_cylinder" and dims["n_rho"] == 160
        assert windowed == ({"u", "v", "r"} if cylinder_bulk else set()), (name, dims)
        assert held == ({"u", "v"} if name == "bsdib_cylinder" else set()), (name, dims)
    # a norm beyond b + 3 fails before its power is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rho = [0.5, 19.0, 2.6e3, 1e300, np.inf, np.nan]
        holds = [integrators._window_holds(r, 160, 16, 1.0) for r in rho]
    assert holds == [True, False, False, False, False, False]


def test_step_with_windowed_radial_phi1_matches_the_dense_one():
    ops, _, dense = cylinder_bulk_radial_phi1()
    first = dataclasses.replace(ops.factors[0], phi1=dense)
    dense_ops = dataclasses.replace(ops, factors=(first, *ops.factors[1:]))
    rng = np.random.RandomState(22)
    W, G = rng.randn(*ops.shape), rng.randn(*ops.shape)
    got, ref = step_split(ops, W, G), step_split(dense_ops, W, G)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_run_simulation_rejects_rounding_that_would_grow_before_any_step():
    # on a sphere of radius 1e-10 the coefficient 1/rho_star^2 turns the
    # rounding error of the phi operator's zero eigenvalue into e^319 over
    # t_star = 0.01 (a false divergence at step 1); at 1e-5 into e^6.4e-7
    dims = {"n_theta": 8, "n_phi": 6}
    tiny = models.build_system(models.model_spec("dib_sphere", {"rho_star": 1e-10}), dims, 1)
    samples = []
    with pytest.raises(ValueError, match="rho_star"):
        run_simulation(tiny, 2, 0.01, sample_hook=lambda *args: samples.append(args))
    assert samples == []
    # at 1e-7 the rounding of M W adds up to 0.011 (r) and 0.22 (s) of the
    # fields over the run, whose means then move visibly
    drifting = models.build_system(models.model_spec("dib_sphere", {"rho_star": 1e-7}), dims, 1)
    with pytest.raises(ValueError, match="diffusion term to 0.0111 of the fields"):
        run_simulation(drifting, 2, 0.01)
    small = models.build_system(models.model_spec("dib_sphere", {"rho_star": 1e-5}), dims, 1)
    run_simulation(small, 2, 0.01)


@pytest.mark.parametrize("method", ["split", "forward_euler", "dense"])
def test_rounding_rejection_names_only_the_limit_that_failed(method):
    # at rho_star = 1e-7 the rounding of M W adds up beyond its limit, while
    # the spectrum's rounding grows by e^3.2e-4 in the split scheme and is
    # not checked in the others: the message names the first limit alone
    dims = {"n_theta": 8, "n_phi": 6}
    drifting = models.build_system(models.model_spec("dib_sphere", {"rho_star": 1e-7}), dims, 1)
    with pytest.raises(ValueError, match="diffusion term to 0.0111 of the fields") as info:
        run_simulation(drifting, 2, 0.01, method=method)
    assert "spectrum" not in str(info.value) and "e^" not in str(info.value)


@pytest.mark.parametrize("method", ["split", "forward_euler", "dense"])
def test_only_the_split_scheme_factorizes_its_axes(monkeypatch, method):
    # the rounding check reads eigenvalues only for the split scheme, whose
    # set-up factorizes the same axes; forward Euler and the dense scheme
    # apply no eigenbasis and compute no eigendecomposition
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args))
    dims = {
        "bvam_disk": {"n_rho": 6, "n_theta": 8},
        "bulk_surface_schnakenberg_ball": {"n_rho": 6, "n_theta": 6, "n_phi": 4},
    }
    for name, size in dims.items():
        calls.clear()
        run_simulation(models.build_system(name, size, 1), 2, 1e-7, method=method)
        assert bool(calls) == (method == "split"), name


def test_workspace_spectrum_covers_the_field():
    # every spectrum has the field's shape with n//2 + 1 along its mode: a
    # middle mode, a long line, a disk's theta and a sphere's first mode
    cases = [((160, 160, 20), 2), ((3, 100000), 2), ((160, 160), 2), ((128, 160), 1)]
    for shape, mode in cases:
        half = list(shape)
        half[mode - 1] = shape[mode - 1] // 2 + 1
        spectrum = integrators.Workspace(shape).spectrum(mode)
        assert spectrum.shape == tuple(half) and spectrum.dtype == complex


def test_run_simulation_single_step_equals_manual():
    # one step and several, on every model, for the split scheme and forward
    # Euler (stable on these grids only at a far smaller t_star): the
    # in-place run loop equals a loop of pure steps, which leave W untouched
    # and add each reaction term at its component's support.  A component
    # that the split scheme holds in an eigenbasis (the cylinder's bulk)
    # is stepped as coefficients, and the kinetics read its physical
    # values on its support, in every index of its last mode
    schemes = (("split", step_split, 1.0), ("forward_euler", step_forward_euler, 1e-4))
    for name, (dims, t_star, _) in GOLDEN_RUNS.items():
        for (method, step, scale), m in itertools.product(schemes, (1, 4)):
            system = models.build_system(name, dims, seed=4)
            res = run_simulation(system, m, scale * t_star, method=method)
            tau = scale * t_star / m
            states = {c.name: c.initial.copy() for c in system.components}
            if method == "split":
                geo = {c.name: prepare(c.ops, tau) for c in system.components}
            else:
                geo = {
                    c.name: GeometryOps(c.ops, tau, diffusion_factors(c.ops))
                    for c in system.components
                }
            bases = {k: ops.basis for k, ops in geo.items() if ops.basis is not None}
            held = (name, method) == ("bsdib_cylinder", "split")
            assert set(bases) == ({"u", "v"} if held else set())
            for k, basis in bases.items():
                states[k] = basis.load(states[k], scratch=np.empty(states[k].shape))
            for _ in range(m):
                read = dict(states)
                for k, basis in bases.items():
                    read[k] = basis.view(states[k], np.empty(geo[k].shape))
                gs = system.kinetics(read)
                for c in system.components:
                    assert gs[c.name].shape == read[c.name][c.ops.support].shape
                before = {k: W.copy() for k, W in states.items()}
                new = {
                    c.name: step(geo[c.name], states[c.name], gs[c.name])
                    for c in system.components
                }
                for k, W in states.items():
                    assert np.array_equal(W, before[k]), (name, method, m)
                states = new
            for k, basis in bases.items():
                states[k] = basis.field(states[k], out=np.empty(geo[k].shape))
            for c in system.components:
                assert np.array_equal(res.fields[c.name], states[c.name]), (name, method, m)


def warm_step_allocation(system, method="split"):
    """Run five steps of ``method`` and return the peak that steps 3 to 5
    allocate beyond what the run loop held after step 2 (its states,
    kinetics outputs and step workspaces), in units of the largest field,
    and the run's result.  Forward Euler takes a t_star small enough for
    its explicit step to stay bounded on these grids."""
    t_star = 1e-3 if method == "split" else 1e-7
    largest = max(c.initial.nbytes for c in system.components)
    marks = {}

    def hook(step, t, states):
        if step == 2:
            tracemalloc.reset_peak()
            marks["start"] = tracemalloc.get_traced_memory()[0]
        elif step == 5:
            marks["peak"] = tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        res = run_simulation(
            system, 5, t_star, record_every=1, sample_hook=hook, method=method
        )
    finally:
        tracemalloc.stop()
    return (marks["peak"] - marks["start"]) / largest, res


WARM_STEP_CASES = [
    ("bvam_disk", {"n_rho": 80, "n_theta": 320}),
    ("schnakenberg_anomalous_disk", {"n_rho": 160, "n_theta": 120}),
    ("dib_sphere", {"n_theta": 128, "n_phi": 160}),
    ("bulk_surface_schnakenberg_ball", {"n_rho": 30, "n_theta": 50, "n_phi": 30}),
    ("bsdib_cylinder", {"n_rho": 40, "n_theta": 128, "n_z": 8}),
]


@pytest.mark.parametrize(
    "name, dims, method",
    [
        pytest.param(name, dims, method, id=f"{name}-dims{i}{suffix}")
        for method, suffix in (("split", ""), ("forward_euler", "-forward_euler"))
        for i, (name, dims) in enumerate(WARM_STEP_CASES)
    ],
)
def test_run_loop_allocates_less_than_one_field(name, dims, method):
    # what a warm split or forward Euler step allocates beyond the run
    # loop's own arrays (ufunc buffers, the products with the links between
    # diagonal blocks) stays below one field
    system = models.build_system(name, dims, seed=3)
    fields, res = warm_step_allocation(system, method)
    assert fields < 1.0
    # the states are updated in place, so no kinetics output may alias one
    gs = system.kinetics(res.fields)
    for G in gs.values():
        assert not any(np.shares_memory(G, W) for W in res.fields.values())


def test_shipped_cylinder_warm_step_allocates_a_small_part_of_a_field():
    # links between blocks added through views keep the shipped cylinder's
    # warm step, every step sampled, a small part of a field (0.388 with
    # the links gathered); its bulk fields' physical fields are formed a
    # sixteenth of a field at a time
    dims = {"n_rho": 160, "n_theta": 160, "n_z": 20}
    fields, _ = warm_step_allocation(models.build_system("bsdib_cylinder", dims, seed=3))
    assert fields < 0.15


def test_run_simulation_zero_data_stays_zero():
    import dataclasses

    dims = {"n_rho": 4, "n_theta": 6}
    system = models.build_system("bvam_disk", dims, seed=4)
    comps = [
        dataclasses.replace(c, initial=np.zeros(c.ops.shape)) for c in system.components
    ]
    system = dataclasses.replace(system, components=comps)
    res = run_simulation(system, 5, 0.05)
    for W in res.fields.values():
        assert np.array_equal(W, np.zeros(W.shape))


def test_run_simulation_divergence_names_step():
    dims = {"n_rho": 6, "n_theta": 8}
    system = models.build_system(
        models.model_spec("bvam_disk", {"alpha1": 1e9}), dims, seed=4
    )
    with pytest.raises(DivergenceError) as err:
        run_simulation(system, 50, 1.0)
    assert 1 <= err.value.step <= 50


@pytest.mark.parametrize("runner", ["forward_euler", "dense"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0001e12, 1e12])
def test_divergence_guard_names_step_and_component(bad, runner):
    # zero fields and zero diffusion: with tau = 1 both runners take the
    # kinetics value into the field exactly
    k = 3
    system = models.build_system("bvam_disk", {"n_rho": 4, "n_theta": 6}, seed=4)
    comps = [
        dataclasses.replace(
            c, initial=np.zeros(c.ops.shape), ops=dataclasses.replace(c.ops, coeff=0.0)
        )
        for c in system.components
    ]
    calls = []

    def kinetics(states):
        calls.append(None)
        gs = {name: np.zeros(W.shape) for name, W in states.items()}
        if len(calls) == k:
            gs["v"][1, 2] = bad
        return gs

    system = dataclasses.replace(system, components=comps, kinetics=kinetics)

    def run():
        return run_simulation(system, k, float(k), method=runner).fields

    if bad == 1e12:
        assert run()["v"][1, 2] == 1e12
        return
    # 0 * inf in the dense runner's mat-vec spreads NaN, which the guard
    # must catch as well
    with np.errstate(invalid="ignore"), pytest.raises(
        DivergenceError, match=f"'v' diverged at step {k}$"
    ) as err:
        run()
    assert err.value.step == k


def max_min_guard(states):
    """The component the max and min test names, or None: the guard's exact
    test, which its one-pass sum of squares must agree with."""
    limit = integrators.DIVERGENCE_LIMIT
    for name, W in states.items():
        if not (W.max() <= limit and W.min() >= -limit):
            return name
    return None


def guard_cases():
    ok = np.random.RandomState(29).randn(6, 8)
    limit = integrators.DIVERGENCE_LIMIT
    above, below = np.nextafter(limit, np.inf), np.nextafter(limit, 0.0)

    def later(value, fill=None):
        bad = ok.copy() if fill is None else np.full(ok.shape, fill)
        bad[3, 5] = value
        return {"u": ok, "v": bad, "w": ok}

    cases = {
        "nan": (later(np.nan), "v"),
        "inf": (later(np.inf), "v"),
        "-inf": (later(-np.inf), "v"),
        "ulp above limit": (later(above), "v"),
        "ulp above -limit": (later(-above), "v"),
        "ulp below limit": (later(below), None),
        "ulp below -limit": (later(-below), None),
        "at the limit": (later(limit, fill=-limit), None),
        # a sum of squares beyond limit^2 with every entry below the limit
        "large sum": (later(0.9 * limit, fill=0.5 * limit), None),
        # the sum of squares overflows to inf; the exact test raises
        "1e200": (later(1e200, fill=-1e200), "v"),
        "first in order": ({"u": ok, "v": later(np.nan)["v"], "w": later(np.inf)["v"]}, "v"),
    }
    return [pytest.param(states, name, id=case) for case, (states, name) in cases.items()]


@pytest.mark.parametrize("states,name", guard_cases())
def test_divergence_guard_raises_exactly_where_max_and_min_do(states, name):
    assert max_min_guard(states) == name
    if name is None:
        integrators.check_divergence(states, 7)
        return
    with pytest.raises(DivergenceError, match=f"'{name}' diverged at step 7$"):
        integrators.check_divergence(states, 7)


def test_divergence_guard_takes_one_pass_over_a_finite_field():
    # no max or min reduction runs while the sum of squares is below limit^2
    class NoReduction(np.ndarray):
        def max(self, *args, **kwargs):
            raise AssertionError("max reduction")

        min = max

    fields = np.random.RandomState(30).randn(3, 6, 8) * 1e11
    integrators.check_divergence({str(i): W.view(NoReduction) for i, W in enumerate(fields)}, 1)


def test_run_simulation_sampling_layout():
    dims = {"n_rho": 4, "n_theta": 6}
    system = models.build_system("bvam_disk", dims, seed=4)
    means = MeanSeries(system)
    run_simulation(system, 10, 0.1, record_every=5, sample_hook=means)
    assert means.steps == [0, 5, 10]
    assert means.times == [step * (0.1 / 10) for step in means.steps]
    assert len(means.series["u"]) == 3


def test_run_simulation_validates_inputs():
    dims = {"n_rho": 4, "n_theta": 6}
    system = models.build_system("bvam_disk", dims, seed=4)
    with pytest.raises(ValueError):
        run_simulation(system, 0, 1.0)
    with pytest.raises(ValueError):
        run_simulation(system, 5, -1.0)
    with pytest.raises(ValueError):
        run_simulation(system, 5, float("nan"))
    with pytest.raises(ValueError):
        run_simulation(system, 5, 1.0, method="leapfrog")

    def no_sample(step, t, states):
        raise AssertionError(f"sampled step {step} of a rejected run")

    # 0 once sampled only steps 0 and m, and -3 every third step
    for every in (0, -3):
        with pytest.raises(ValueError, match="record_every"):
            run_simulation(system, 5, 1.0, record_every=every, sample_hook=no_sample)


def test_dense_exponential_euler_matches_manual_steps():
    # three dense steps of every model at desk dims (the ball and the
    # cylinder hold 480 unknowns each) equal the coupled oracle, which
    # steps all components as one vector with the decay in its reaction
    # term: only rounding moves
    dims = {
        "bvam_disk": {"n_rho": 4, "n_theta": 6},
        "schnakenberg_anomalous_disk": {"n_rho": 4, "n_theta": 6},
        "dib_sphere": {"n_theta": 6, "n_phi": 6},
        "bulk_surface_schnakenberg_ball": {"n_rho": 5, "n_theta": 8, "n_phi": 5},
        "bsdib_cylinder": {"n_rho": 6, "n_theta": 8, "n_z": 4},
    }
    for name, size in dims.items():
        t_star = GOLDEN_RUNS[name][1]
        system = models.build_system(name, size, seed=5)
        out = run_simulation(system, 3, t_star, method="dense").fields
        ref = coupled_exponential_euler(system, 3, t_star)
        for c in system.components:
            error = np.max(np.abs(out[c.name] - ref[c.name])) / np.max(np.abs(ref[c.name]))
            assert error <= 1e-13, (name, c.name, error)


def test_dense_exponential_euler_size_cap(monkeypatch):
    # rejected before any assembly; the 33x32 disk has 1056 unknowns
    monkeypatch.setattr(integrators, "dense_diffusion", None)
    for dims in ({"n_rho": 80, "n_theta": 80}, {"n_rho": 33, "n_theta": 32}):
        system = models.build_system("bvam_disk", dims, seed=5)
        with pytest.raises(ValueError, match="beyond the dense reference cap 1024"):
            run_simulation(system, 2, 0.1, method="dense")


def test_small_forced_problem_first_order_self_convergence():
    dims = {"n_rho": 8, "n_theta": 16}
    ref = run_simulation(models.build_system("bvam_disk", dims, 3), 3200, 1.0).fields

    def err(m):
        fields = run_simulation(models.build_system("bvam_disk", dims, 3), m, 1.0).fields
        return np.sqrt(
            sum(
                (np.linalg.norm(fields[k] - ref[k]) / np.linalg.norm(ref[k])) ** 2
                for k in ref
            )
        )

    ms = [50, 100, 200]
    errs = [err(m) for m in ms]
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    assert 0.9 <= -slope <= 1.1
