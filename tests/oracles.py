"""Reference code that only the tests use: the Tucker operator, the
block-banded mode product as a gather of the entries outside the blocks,
a dense Kronecker assembler, each geometry's Kronecker summands written
out by hand with it, one dense classical
exponential Euler step, one split step with nothing folded into its
factors, one with every summand in its plain form, one split and one
forward Euler step with a component's decay in its reaction term,
classical exponential Euler steps of a whole system as one vector (the
decays in its reaction term), the closed-form axial eigenpairs, the
angular eigenpairs one frequency at a time, the scalar xoshiro256++ draw,
a sample hook that collects integral-mean series, the integral-mean,
stabilization and amplitude checks of the acceptance criteria, and new
``out`` arrays for a kinetics helper."""

import math
from dataclasses import replace
from functools import reduce

import numpy as np

from curvipat import models, tensor
from curvipat.integrators import (
    DENSE_REFERENCE_CAP,
    FACTORS,
    ComponentOps,
    Geometry,
    GeometryOps,
    SplitFactor,
    diffusion_factors,
    prepare,
)
from curvipat.operators import PeriodicTridiagonal, eig_theta, eig_tridiag
from curvipat.phifun import phi1_dense_oracle, phi1_matrix, phi1_outer

KRON_ORACLE_CAP = 4096


def tucker(field: np.ndarray, matrices, skip: set[int] | None = None) -> np.ndarray:
    """Concatenated mode products in ascending mode order.

    ``matrices`` holds one matrix per mode (entry ``None`` leaves the mode
    untouched, as does listing the mode in ``skip``).  Equivalent to applying
    the Kronecker product L_d x ... x L_1 to ``vec(field)``.
    """
    field = np.asarray(field)
    if len(matrices) != field.ndim:
        raise ValueError(f"expected {field.ndim} mode matrices, got {len(matrices)}")
    skip = skip or set()
    out = field
    for mu, L in enumerate(matrices, start=1):
        if mu in skip or L is None:
            continue
        out = tensor.mode_product(mu, L, out)
    return out


def banded_gather_product(
    mu: int, op: tensor.BlockBanded, A: np.ndarray, field: np.ndarray
) -> np.ndarray:
    """The block-banded mode product of ``op``, split from the dense matrix
    ``A`` (or from one per first-mode row, for a stack of one block per
    row), in its first form: the same batched GEMM of the diagonal blocks,
    then every nonzero entry of A outside the blocks gathered and added row
    by row (``banded_mode_product`` must equal it bit for bit)."""
    b = op.blocks.shape[-1]
    k = op.n // b
    pre = math.prod(field.shape[: mu - 1])
    post = math.prod(field.shape[mu:])
    res = np.empty(field.shape)
    if post == 1:
        slabs = (pre, k, b)
        np.matmul(
            field.reshape(slabs).transpose(1, 0, 2),
            op.blocks.transpose(0, 2, 1),
            out=res.reshape(slabs).transpose(1, 0, 2),
        )
    else:
        blocked = (pre, k, b, post)
        np.matmul(op.blocks, field.reshape(blocked), out=res.reshape(blocked))
    outside = np.array(A, dtype=float).reshape(-1, op.n, op.n)
    diag = np.arange(k)
    outside.reshape(-1, k, b, k, b)[:, diag, :, diag, :] = 0.0
    rows, cols = np.nonzero(np.any(outside, axis=0))
    assert len(np.unique(rows)) == len(rows)
    X = field.reshape(pre, op.n, post)
    res.reshape(pre, op.n, post)[:, rows] += outside[:, rows, cols][:, :, None] * X[:, cols]
    return res


def kron_assemble(matrices) -> np.ndarray:
    """Explicit dense Kronecker product L_d x ... x L_1 from per-mode
    matrices listed in ascending mode order.  Oracle-sized only."""
    if not matrices:
        raise ValueError("need at least one matrix")
    total = 1
    for L in matrices:
        total *= np.asarray(L).shape[0]
    if total > KRON_ORACLE_CAP:
        raise ValueError(
            f"assembled dimension {total} exceeds the oracle cap {KRON_ORACLE_CAP}"
        )
    out = np.asarray(matrices[0])
    for L in matrices[1:]:
        out = np.kron(np.asarray(L), out)
    return out


def kronecker_summands(base: ComponentOps) -> list[np.ndarray]:
    """The Kronecker summands M_1, ..., M_d of the diffusion matrix as dense
    matrices (coefficient included), in the fixed splitting order: written
    out per geometry from the base 1-d operators, independently of the
    ``FACTORS`` table that the package builds them from; sizes are capped
    by :func:`kron_assemble`."""
    kron = kron_assemble
    g = base.geometry
    if base.rho is not None:
        A_rho = base.rho.toarray()
        D_rho = np.diag(base.rho.weights)
    if base.phi is not None:
        A_phi = base.phi.toarray()
        D_phi = np.diag(base.phi.weights)
    A_theta = base.theta.toarray()
    eye_t = np.eye(base.theta.n)
    if g is Geometry.DISK:
        ms = [kron([A_rho, eye_t]), kron([D_rho, A_theta])]
    elif g is Geometry.SPHERE:
        ms = [kron([A_theta, D_phi]), kron([eye_t, A_phi])]
    elif g is Geometry.BALL:
        eye_p = np.eye(base.phi.n)
        ms = [
            kron([A_rho, eye_t, eye_p]),
            kron([D_rho, A_theta, D_phi]),
            kron([D_rho, eye_t, A_phi]),
        ]
    else:
        eye_r = np.eye(base.rho.n)
        eye_z = np.eye(base.z.n)
        ms = [
            kron([A_rho, eye_t, eye_z]),
            kron([D_rho, A_theta, eye_z]),
            kron([eye_r, eye_t, base.z.toarray()]),
        ]
    return [base.coeff * m for m in ms]


def dense_operator(base: ComponentOps) -> np.ndarray:
    """Full dense diffusion matrix M (coefficient included); oracle-sized."""
    out = None
    for m in kronecker_summands(base):
        out = m if out is None else out + m
    return out


def step_exact_ee_reference(
    M: np.ndarray, w: np.ndarray, g: np.ndarray, tau: float
) -> np.ndarray:
    """One classical exponential Euler step w + tau phi1(tau M)(M w + g) with
    a dense phi1; limited to DENSE_REFERENCE_CAP unknowns."""
    n = len(w)
    if n > DENSE_REFERENCE_CAP:
        raise ValueError(f"dense reference capped at {DENSE_REFERENCE_CAP} unknowns")
    P = phi1_dense_oracle(tau * M, max_dim=DENSE_REFERENCE_CAP)
    return w + tau * (P @ (M @ w + g))


def unfused_split_step(ops: GeometryOps, W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The split step W + tau P_1 ... P_d (M W + G) on the prepared factors
    of ``ops`` with nothing folded into them: the first-applied P_d is
    rebuilt without tau, which multiplies in after every P_mu.  A component
    that ``ops`` holds in an eigenbasis takes the factors that ``prepare``
    gives it with a whole support, in the physical field."""
    base, tau = ops.base, ops.tau
    if ops.basis is not None:
        ops = prepare(replace(base, support=(...,)), tau)
    factors = list(ops.factors)
    factors[-1] = replace(factors[-1], phi1=_phi1_without_tau(ops))
    T = factors[0].diffusion(W)
    for f in factors[1:]:
        T += f.diffusion(W)
    T[base.support] += G
    for f in reversed(factors):
        T = f.apply_phi1(T)
    T *= tau
    return W + T


def unfolded_step(method: str, base: ComponentOps, tau: float, W: np.ndarray, G: np.ndarray):
    """One step of ``method`` ("split" or "forward_euler") with the
    component's decay left in its reaction term: the diffusion operator
    without the decay, and the reaction -decay W over the whole field plus
    G at its support.  The split step is :func:`unfused_split_step`."""
    plain = replace(base, decay=0.0, support=(...,))
    g = -base.decay * W
    g[base.support] += G
    if method == "split":
        return unfused_split_step(prepare(plain, tau), W, g)
    return W + tau * (reduce(np.add, (f.diffusion(W) for f in diffusion_factors(plain))) + g)


def coupled_exponential_euler(system: models.CoupledSystem, m: int, t_star: float) -> dict:
    """The final fields of m classical exponential Euler steps of the whole
    system, held as one vector (components stacked in order) with one
    block-diagonal dense operator, the diffusion of each component
    (:func:`dense_operator`, no decay).  Each component's decay goes into
    the reaction term as -decay W over the whole field, plus G at its
    support; each step is :func:`step_exact_ee_reference`."""
    comps = system.components
    bounds = np.cumsum([0] + [math.prod(c.ops.shape) for c in comps])
    spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    M = np.zeros((bounds[-1], bounds[-1]))
    for c, span in zip(comps, spans):
        M[span, span] = dense_operator(c.ops)

    def fields(w):
        return {
            c.name: np.ascontiguousarray(tensor.unvec(w[span], c.ops.shape))
            for c, span in zip(comps, spans)
        }

    w = np.concatenate([tensor.vec(c.initial) for c in comps])
    for _ in range(m):
        states = fields(w)
        gs = system.kinetics(states)
        g = np.empty_like(w)
        for c, span in zip(comps, spans):
            G = -c.ops.decay * states[c.name]
            G[c.ops.support] += gs[c.name]
            g[span] = tensor.vec(G)
        w = step_exact_ee_reference(M, w, g, t_star / m)
    return fields(w)


_MASK64 = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def next_uint64(rng: models.Xoshiro256pp) -> int:
    """The scalar xoshiro256++ reference: the next output of ``rng``, whose
    state moves one step, one Python integer at a time."""
    s0, s1, s2, s3 = rng._state
    result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
    t = (s1 << 17) & _MASK64
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = _rotl(s3, 45)
    rng._state = [s0, s1, s2, s3]
    return result


def plain_split_step(base: ComponentOps, tau: float, W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The split step W + tau P_1 ... P_d (M W + G) with every summand in
    its plain form, whatever its size: dense M W, the weights multiplied in
    after the product, and phi1 a dense matrix where the summand is
    unweighted, else the V^-1/V triple; tau multiplies in last."""
    axes = base.axis_ops()
    factors = []
    for mode, weighted_by in FACTORS[base.geometry]:
        axis = axes[mode - 1]
        fac = eig_theta(axis) if isinstance(axis, PeriodicTridiagonal) else eig_tridiag(axis)
        vectors = [np.ones(1)] * len(axes)
        for mu in weighted_by:
            vectors[mu - 1] = axes[mu - 1].weights
        if weighted_by:
            weight = reduce(np.multiply.outer, vectors)
            vectors[mode - 1] = fac.lambdas
            phi1 = (fac.V_inv, phi1_outer(tau * base.coeff, vectors), fac.V)
        else:
            weight, phi1 = None, phi1_matrix(tau * base.coeff, fac)
        factors.append(SplitFactor(mode, base.coeff * axis.toarray(), weight, phi1))
    T = reduce(np.add, (f.diffusion(W) for f in factors)) + G
    for f in reversed(factors):
        T = f.apply_phi1(T)
    return W + tau * T


def _phi1_without_tau(ops: GeometryOps):
    """phi1 of the last summand of ``ops`` in the form prepare holds it
    (dense matrix, V^-1/V triple, rfft symbol or stack), without tau."""
    base = ops.base
    axes = base.axis_ops()
    mode, weighted_by = FACTORS[base.geometry][-1]
    axis = axes[mode - 1]
    fac = eig_theta(axis) if isinstance(axis, PeriodicTridiagonal) else eig_tridiag(axis)
    scale = ops.tau * base.coeff
    folded = ops.factors[-1].phi1
    vectors = [np.ones(1)] * len(axes)
    for mu in weighted_by:
        vectors[mu - 1] = axes[mu - 1].weights
    if isinstance(folded, tuple):
        vectors[mode - 1] = fac.lambdas
        return fac.V_inv, phi1_outer(scale, vectors), fac.V
    if np.iscomplexobj(folded):
        vectors[mode - 1] = fac.lambdas[np.r_[0, 1 : axis.n : 2]]
        return phi1_outer(scale, vectors).astype(complex)
    if folded.ndim == 2:
        return phi1_matrix(scale, fac)
    vectors[mode - 1] = fac.lambdas
    phi = phi1_outer(scale, vectors).reshape(axes[0].n, 1, axis.n)
    return ((fac.V_inv.T * phi) @ fac.V.T).transpose(0, 2, 1)


def explicit_z_eigenpairs(n: int, z_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of the axial stencil.

    Returns (lambdas, V) where lambdas[k-1] = -2/h^2 (1 - cos(pi(k-1/2)/n))
    and column k-1 of V has components sin((n-i+1) pi (k-1/2)/n) normalized
    so that the last one equals 1.
    """
    h = z_star / n
    k = np.arange(1, n + 1, dtype=float)
    alpha = np.pi * (k - 0.5) / n
    lam = (-2.0 / h**2) * (1.0 - np.cos(alpha))
    i = np.arange(1, n + 1, dtype=float)[:, None]
    V = np.sin((n - i + 1.0) * alpha[None, :]) / np.sin(alpha[None, :])
    V[-1, :] = 1.0
    return lam, V


def eig_theta_by_frequency(op: PeriodicTridiagonal) -> tuple[np.ndarray, ...]:
    """(lambdas, Q, xi) of the circulant angular stencil, built one
    frequency at a time in the column order of ``eig_theta``: 0, 1, 1, 2,
    2, ..., with the alternating vector last when n is even."""
    n = op.n
    k = np.arange(n)
    Q = np.empty((n, n))
    lam = np.empty(n)
    Q[:, 0] = 1.0 / math.sqrt(n)
    lam[0] = 0.0
    col = 1
    for j in range(1, n // 2 + 1):
        lj = (2.0 * np.cos(2.0 * np.pi * j / n) - 2.0) / op.h**2
        if 2 * j == n:
            Q[:, col] = np.where(k % 2 == 0, 1.0, -1.0) / math.sqrt(n)
            lam[col] = lj
            col += 1
        else:
            ang = 2.0 * np.pi * j * k / n
            Q[:, col] = math.sqrt(2.0 / n) * np.cos(ang)
            Q[:, col + 1] = math.sqrt(2.0 / n) * np.sin(ang)
            lam[col] = lam[col + 1] = lj
            col += 2
    return lam, Q, np.ones(n)


def integral_mean(field: np.ndarray, cops: ComponentOps) -> float:
    """Domain-averaged field value (stabilization diagnostic)."""
    w = models.quadrature_weights(cops)
    if field.shape != w.shape:
        raise ValueError(f"field shape {field.shape} does not match {w.shape}")
    return float(np.sum(field * (w / np.sum(w))))


class MeanSeries:
    """A ``sample_hook`` for ``run_simulation`` that records each sample's
    step and time and every component's integral mean (lift restored), as
    ``models.mean_diagnostics`` evaluates it."""

    def __init__(self, system: models.CoupledSystem):
        self.means = models.mean_diagnostics(system)
        self.steps: list[int] = []
        self.times: list[float] = []
        self.series: dict[str, list[float]] = {c.name: [] for c in system.components}

    def __call__(self, step: int, t: float, states: dict) -> None:
        self.steps.append(step)
        self.times.append(t)
        for name, value in self.means(states).items():
            self.series[name].append(value)


def is_stabilized(times, values, rel: float = 1e-3, abs_tol: float = 1e-6) -> bool:
    """True when the diagnostic at the final time differs from its value at
    90% of the final time by at most rel*|final| + abs_tol."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_star = times[-1]
    idx = int(np.argmin(np.abs(times - 0.9 * t_star)))
    return abs(values[-1] - values[idx]) <= rel * abs(values[-1]) + abs_tol


def pattern_amplitude(system: models.CoupledSystem, states: dict, name: str):
    """(spatial std of the component, 10x the standard deviation of its
    initial perturbation law)."""
    law = system.spec.components[name].perturbation
    if isinstance(law, models.Uniform):
        scale = (law.hi - law.lo) / math.sqrt(12.0)
    elif isinstance(law, models.Normal):
        scale = law.sigma
    else:
        scale = 0.0
    return float(np.std(states[name])), 10.0 * scale


def kinetics_out(shape: tuple[int, ...], k: int) -> tuple[np.ndarray, ...]:
    """k new arrays of this shape: the ``out`` of a kinetics helper called
    outside a system, which owns the buffers it passes."""
    return tuple(np.empty(shape) for _ in range(k))
