"""The split exponential Euler stepper, the structured diffusion action, and
one simulation driver for three schemes: split exponential Euler, forward
Euler, and a dense classical exponential Euler reference for small problems.

The discretized diffusion operator of every geometry is a sum of Kronecker
products M = M_1 + ... + M_d.  Each summand M_mu acts along one mode with a
1-d operator, scaled by the diagonal weights that the 1-d operators of some
other modes carry; the table ``FACTORS`` lists the summands of each
geometry in the fixed splitting order.  It is the one description of them:
``prepare`` (through its tau-free half :func:`diffusion_factors`, all
that forward Euler applies) and the dense reference
(:func:`dense_split_factors`) are built from it, and the tests check both
against summands written out per geometry by hand in ``tests/oracles.py``.
The split scheme advances W_{n+1} = W_n + tau * P_1 P_2 (... P_d) F_n where
F_n = M W_n + G_n and each P_mu is phi1(tau M_mu).  An unweighted P_mu is
one mode product with a dense phi1 matrix; a weighted one is a mode product
with V^-1, an elementwise product with a precomputed phi1 tensor, and a
mode product with V, or an rfft and an irfft along a long periodic angle.
:func:`_form` picks from the sizes the cheaper exact forms that
:class:`SplitFactor` lists: block-banded M W operators, per-slice stacks,
and, where phi1 is banded to rounding at this tau, its block tridiagonal
band alone (:class:`tensor.BlockRows`).  So one code path serves every
geometry and the cost per step is a fixed number of kernels, with no field
pass of its own for tau, which rides on the phi1 of the factor applied
first (P_d, the last one), nor for the cylinder's theta weights, which its
M W blocks carry.  The factor order must not be permuted (the factors do
not commute).

A component's linear reaction -decay W is applied by M W, not by phi1, so
the scheme is the one with -decay W in G, and only rounding moves; G then
covers only the component's ``support``.

Every kernel can write into a caller's array.  ``SCHEMES`` maps each
``method`` to a set-up that returns one ``step(states, gs)`` over the whole
system, which advances every component in place: the split scheme and
forward Euler through :func:`step_split` and :func:`step_forward_euler`,
one :class:`Workspace` per field shape, so their warm steps allocate no
field (without ``out`` and ``work`` those two stay pure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial, reduce
from typing import Callable

import numpy as np

from . import tensor
from .operators import PeriodicTridiagonal, TridiagonalOperator, eig_theta, eig_tridiag
from .phifun import phi1_dense_oracle, phi1_matrix, phi1_outer

DIVERGENCE_LIMIT = 1e12
_LIMIT_SQUARED = DIVERGENCE_LIMIT**2
# The rounding of M W that a run may add up in its fields (see
# _check_rounding_growth): every shipped config stays below 2e-6, and a
# sphere with rho_star = 1e-7, whose means move visibly, reaches 0.22.
ROUNDING_LIMIT = 1e-3
DENSE_REFERENCE_CAP = 4096

# Diagonal blocks of a block-banded 1-d operator are the largest divisor of
# n in [BLOCK_MIN, BLOCK_MAX]; smaller blocks ran slower than the dense GEMM.
# An n without such a divisor and an n <= BLOCK_MAX stay dense.  Along the
# last mode the rows of the unfolding are short and one dense GEMM is hard
# to beat: there the blocks are used from BLOCK_LAST_MIN points on (on 40,
# 160 and 1600 rows, 80 to 160 points took 0.2-1.0x the dense time; 20 to
# 72 points took up to 2.7x on 40 rows).
BLOCK_MAX = 16
BLOCK_MIN = 8
BLOCK_LAST_MIN = 80
# Periodic angles with at least this many points apply phi1 by rfft; below
# it the dense V^-1 and V products were as fast or faster.
FFT_MIN_THETA = 128


class DivergenceError(RuntimeError):
    """A simulated field left the finite range; ``step`` is the 1-based
    index of the offending time step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class Geometry(Enum):
    DISK = "disk"
    SPHERE = "sphere"
    BALL = "ball"
    CYLINDER = "cylinder"

    @property
    def axes(self) -> tuple[str, ...]:
        """Coordinate names of the field's modes, in mode order."""
        return AXES[self]


# Axis names per geometry; mode mu of a field runs along axes[mu - 1].
AXES: dict[Geometry, tuple[str, ...]] = {
    Geometry.DISK: ("rho", "theta"),
    Geometry.SPHERE: ("theta", "phi"),
    Geometry.BALL: ("rho", "theta", "phi"),
    Geometry.CYLINDER: ("rho", "theta", "z"),
}

# Kronecker summands per geometry, in the fixed splitting order, as
# (mode, modes whose diagonal weights scale the summand).
FACTORS: dict[Geometry, tuple[tuple[int, tuple[int, ...]], ...]] = {
    Geometry.DISK: ((1, ()), (2, (1,))),
    Geometry.SPHERE: ((1, (2,)), (2, ())),
    Geometry.BALL: ((1, ()), (2, (1, 3)), (3, (1,))),
    Geometry.CYLINDER: ((1, ()), (2, (1,)), (3, ())),
}


@dataclass(frozen=True)
class ComponentOps:
    """Time-step independent ingredients for one diffusing component:
    geometry tag, diffusion coefficient, and the 1-d operators of its axes,
    each carrying its own diagonal weights and quadrature measure; the rate
    of a linear reaction -decay W, which M W applies, and the index of the
    part of the field that the rest of its reaction term G covers."""

    geometry: Geometry
    coeff: float
    rho: TridiagonalOperator | None = None
    theta: PeriodicTridiagonal | None = None
    phi: TridiagonalOperator | None = None
    z: TridiagonalOperator | None = None
    decay: float = 0.0
    support: tuple = (...,)

    def axis_ops(self) -> list:
        """The 1-d operators of the geometry's axes, in mode order."""
        return [getattr(self, name) for name in self.geometry.axes]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(axis.n for axis in self.axis_ops())


@dataclass(frozen=True)
class SplitFactor:
    """One Kronecker summand prepared for a fixed time step.

    ``A`` is coeff times the 1-d operator along ``mode`` (less the decay on
    its diagonal, on the first unweighted summand), dense or
    :class:`tensor.BlockBanded`, and ``weight`` the broadcastable product of
    the diagonal weights that M W multiplies in after that product (size 1
    along ``mode`` and along every mode that does not weight it), or None:
    the summand is unweighted, or ``A`` carries its weights.  Along the
    second of three modes, weighted by the first alone, ``A`` holds one
    block per first-mode row i, scaled by coeff w_i (see
    :meth:`tensor.BlockBanded.scaled_rows`).  ``phi1`` is the action of
    phi1(tau coeff M_mu), times tau on the factor applied first (the last
    of a geometry's): a dense matrix along ``mode`` when the summand is
    unweighted, else (V^-1, phi1 tensor, V), the tensor over ``mode`` and
    the modes that weight it; when V is the real Fourier basis, the phi1
    tensor alone, over the rfft frequencies along ``mode`` and stored as
    complex.  Where it is banded to rounding, phi1 is instead one
    :class:`tensor.BlockRows`: along the first mode the dense matrix's
    band, edges cut; along the second of three modes, weighted by the first
    alone, the wrapped bands of the later first-mode rows' circulants, the
    leading rows keeping their rfft symbol (the 160 x 160 x 20 cylinder's
    u and v keep 22 rows of 160 at tau = 50/8000).  :func:`_along` picks
    the kernel for every form but the triple.

    A summand along the last mode weighted by the first mode alone may
    instead be a stack of n_1 matrices, one per slice of the first mode (see
    :func:`tensor.sliced_mode_product`): ``A`` holds coeff w_i A and
    ``phi1`` V diag(phi1(tau coeff w_i lambda)) V^-1, ``weight`` is None,
    and each action is one GEMM.

    ``phi1`` is None on the factors of :func:`diffusion_factors`, which
    forward Euler applies.
    """

    mode: int
    A: np.ndarray | tensor.BlockBanded
    weight: np.ndarray | None
    phi1: np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def diffusion(self, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The summand's action coeff M_mu W, into ``out`` (a C-contiguous
        field not overlapping W) or a new array."""
        T = _along(self.mode, self.A, W, out)
        if self.weight is not None:
            T *= self.weight
        return T

    def apply_phi1(
        self, T: np.ndarray, out: np.ndarray | None = None, work: Workspace | None = None
    ) -> np.ndarray:
        """The action ``phi1`` on T, into ``out`` or a new array.  With
        ``out`` given, T may serve as scratch and is overwritten; ``work``
        lends the rfft spectrum."""
        if isinstance(self.phi1, tuple):
            V_inv, phi, V = self.phi1
            X = tensor.mode_product(self.mode, V_inv, T, out=out)
            X = np.multiply(X, phi, out=None if out is None else T)
            return tensor.mode_product(self.mode, V, X, out=out)
        return _along(self.mode, self.phi1, T, out, work)


class Workspace:
    """Scratch for a split or forward Euler step on fields of one shape: two
    real fields, and one complex rfft spectrum per mode that needs one, made
    on first use.  Each spectrum covers the field, with n//2 + 1 frequencies
    along its mode; the cylinder's theta band also lends it to its wrapped
    edge products.  Components of one shape can share it, since a step uses
    it only while it runs."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.fields = (np.empty(shape), np.empty(shape))
        self._spectra: dict[int, np.ndarray] = {}

    def spectrum(self, mode: int) -> np.ndarray:
        if mode not in self._spectra:
            half = list(self.shape)
            half[mode - 1] = half[mode - 1] // 2 + 1
            self._spectra[mode] = np.empty(half, dtype=complex)
        return self._spectra[mode]


@dataclass(frozen=True)
class GeometryOps:
    """Everything the stepper needs for one (component, tau) pair: the
    prepared split factors in splitting order, the last of which (applied
    first) carries tau in its phi1.

    Built once by :func:`prepare` (for forward Euler, from
    :func:`diffusion_factors`, with no phi1); the step loop performs only
    mode products and elementwise products with these arrays.
    """

    base: ComponentOps
    tau: float
    factors: tuple[SplitFactor, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape


def _along(
    mode: int, op, field: np.ndarray, out: np.ndarray | None, work: Workspace | None = None
) -> np.ndarray:
    """A prepared operator along ``mode``: dense, block-banded, block rows,
    an rfft symbol (complex), or a stack of per-slice matrices (three
    indices).  ``work`` lends its rfft spectrum to a symbol, and to block
    rows with wrapped edges or symbol rows."""
    if isinstance(op, tensor.BlockBanded):
        return tensor.banded_mode_product(mode, op, field, out=out)
    rows = isinstance(op, tensor.BlockRows)
    spectral = (op.wraps or op.symbol is not None) if rows else np.iscomplexobj(op)
    spectrum = work.spectrum(mode) if spectral and work is not None else None
    if rows:
        return tensor.windowed_mode_product(mode, op, field, out=out, spectrum=spectrum)
    if spectral:
        return tensor.fourier_mode_product(mode, op, field, out=out, spectrum=spectrum)
    if op.ndim == 3:
        return tensor.sliced_mode_product(op, field, out=out)
    return tensor.mode_product(mode, op, field, out=out)


def _block_size(n: int) -> int | None:
    """Diagonal block size for a 1-d operator of order n, or None (dense)."""
    if n <= BLOCK_MAX:
        return None
    return next((b for b in range(BLOCK_MAX, BLOCK_MIN - 1, -1) if n % b == 0), None)


def _norm_inf(axis: TridiagonalOperator | PeriodicTridiagonal) -> float:
    """||A||_inf of a 1-d operator, from its bands (no dense matrix)."""
    if isinstance(axis, PeriodicTridiagonal):
        return abs(axis.diag) + 2.0 * abs(axis.off)
    row_sums = np.abs(axis.a)
    row_sums[:-1] += np.abs(axis.b)
    row_sums[1:] += np.abs(axis.c)
    return float(row_sums.max())


def _window_holds(rho, n: int, b: int, norm) -> np.ndarray:
    """Whether P = phi1(X), X of order n tridiagonal (or a tridiagonal
    circulant) with ||X||_inf = rho and ||P||_inf = ``norm``, may drop every
    entry outside its block tridiagonal band of b x b blocks (at least 4
    blocks; for a circulant, the band wraps round) without losing more than
    a dense product with P loses to rounding; elementwise over arrays of
    rho and norm.

    X^j has no entry more than j off its diagonal, and the band holds every
    entry at most b off it, so the dropped entries come from the Taylor
    tail sum_{j > b} X^j / (j + 1)! alone.  For rho < b + 3 the tail's norm
    is at most rho^(b+1) / (b+2)! / (1 - rho / (b+3)); it must not exceed
    n 2^-53 ||P||_inf, the rounding bound of the dense product.  A larger
    rho fails before its power, which could overflow, is taken."""
    rho = np.asarray(rho, dtype=float)
    below = (rho < b + 3) & (n // b >= 4)
    r = np.where(below, rho, 0.0)
    tail = r ** (b + 1) / math.factorial(b + 2) / (1.0 - r / (b + 3))
    return below & (tail <= n * 2.0**-53 * np.asarray(norm))


def _form(
    geometry: Geometry, shape: tuple[int, ...], mode: int, weighted_by: tuple[int, ...]
) -> tuple[int | None, bool, str]:
    """How :func:`prepare` holds one summand, from the sizes alone: the
    block size of its M W operator (None: dense), whether those blocks are
    held one per first-mode row with the row's weight in them, and the form
    of its phi1, one of "dense" (unweighted), "stacked", "rfft", "circulant"
    or "triple".  A "dense" phi1 along the first mode may still be narrowed
    by :func:`prepare` to its block tridiagonal band of that block size,
    which depends on tau; so may the later first-mode rows of a "circulant"
    one, an rfft along the second of three modes weighted by the first alone.

    A last-mode summand weighted by the first mode alone is stacked (M W
    too) when its stack of n_1 matrices holds no more entries than a field,
    i.e. n_d is at most the product of the middle modes.  The M W blocks
    of a periodic angle along the second of three modes, weighted by the
    first mode alone, are all the same, so they are held one per
    first-mode row when those n_1 blocks of b^2 entries hold no more than a
    field, i.e. b^2 <= n_2 n_3.  Likewise an rfft is "circulant" only when
    the band's n_1 block rows of 3 b^2 entries do, i.e. 3 b^2 <= n_2 n_3."""
    n = shape[mode - 1]
    last = mode == len(shape)
    if last and weighted_by == (1,) and n <= math.prod(shape[1:-1]):
        return None, False, "stacked"
    b = None if last and n < BLOCK_LAST_MIN else _block_size(n)
    if not weighted_by:
        return b, False, "dense"
    if geometry.axes[mode - 1] != "theta":
        return b, False, "triple"
    middle = mode == 2 < len(shape) and weighted_by == (1,) and b is not None
    rows = middle and b * b <= math.prod(shape[1:])
    if n < FFT_MIN_THETA:
        return b, rows, "triple"
    return b, rows, "circulant" if middle and 3 * b * b <= math.prod(shape[1:]) else "rfft"


def diffusion_factors(base: ComponentOps) -> tuple[SplitFactor, ...]:
    """The tau-free half of :func:`prepare`: each summand's M W operator
    ``A`` and ``weight``, in the form :func:`_form` picks from the sizes,
    with no phi1, the decay on the first unweighted one's diagonal.  Forward
    Euler applies these alone."""
    axes, shape = base.axis_ops(), base.shape
    factors = []
    decay = base.decay
    for mode, weighted_by in FACTORS[base.geometry]:
        b, rows, form = _form(base.geometry, shape, mode, weighted_by)
        A = base.coeff * axes[mode - 1].toarray()
        if not weighted_by:
            A.flat[:: len(A) + 1] -= decay
            decay = 0.0
        if b is not None:
            A = tensor.BlockBanded.from_dense(A, b, last_mode=mode == len(axes))
        if rows:
            A = A.scaled_rows(axes[0].weights)
        weight = None
        if form == "stacked":
            # slice i of the first mode gets w_i A, built transposed and
            # contiguous, then viewed untransposed
            A = (axes[0].weights[:, None, None] * np.ascontiguousarray(A.T)).transpose(0, 2, 1)
        elif form != "dense" and not rows:
            weight = reduce(np.multiply.outer, _weight_vectors(axes, weighted_by))
        factors.append(SplitFactor(mode, A, weight, None))
    return tuple(factors)


def _weight_vectors(axes, weighted_by: tuple[int, ...]) -> list[np.ndarray]:
    """Per mode, the diagonal weights of the axis if it weights the summand,
    else a single one."""
    return [axis.weights if mu in weighted_by else np.ones(1) for mu, axis in enumerate(axes, 1)]


def prepare(base: ComponentOps, tau: float) -> GeometryOps:
    """Precompute all transforms and phi1 factors for one component at a
    fixed time step; done once before the time loop.  The phi1 half adds to
    each of :func:`diffusion_factors` its phi1, in the form :func:`_form`
    picks.  A dense phi1 along the first mode keeps only its block
    tridiagonal band when :func:`_window_holds` shows that the rest lies
    below the dense product's rounding at this tau; a "circulant" phi1 does
    so on the first-mode rows from which that bound holds for every later
    row, with rho_i = tau coeff w_i ||A||_inf.  The phi1 of the factor
    applied first, the last one, is scaled by tau: it is never along the
    first mode, nor along the second of three, so it is a dense matrix, a
    stack, an rfft symbol or the phi1 tensor of a triple."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    scale = tau * base.coeff
    axes, shape = base.axis_ops(), base.shape
    factors = []
    for f, (mode, weighted_by) in zip(diffusion_factors(base), FACTORS[base.geometry]):
        axis = axes[mode - 1]
        b, _, form = _form(base.geometry, shape, mode, weighted_by)
        periodic = isinstance(axis, PeriodicTridiagonal)
        if form in ("rfft", "circulant"):
            fac = None  # an FFT applies the basis: only axis.lambdas is used
        else:
            fac = eig_theta(axis) if periodic else eig_tridiag(axis)
        vectors = _weight_vectors(axes, weighted_by)
        if form == "dense":
            action = phi1_matrix(scale, fac)
            if b is not None and mode == 1 and not periodic:
                norm = np.abs(action).sum(axis=1).max()
                if _window_holds(scale * _norm_inf(axis), axis.n, b, norm):
                    action = tensor.BlockRows.from_dense(action, b)
        elif form == "stacked":
            # slice i of the first mode gets V diag(phi_i) V^-1, built as A is
            vectors[mode - 1] = fac.lambdas
            phi = phi1_outer(scale, vectors).reshape(axes[0].n, 1, axis.n)
            action = ((fac.V_inv.T * phi) @ fac.V.T).transpose(0, 2, 1)
        elif form == "triple":
            vectors[mode - 1] = fac.lambdas
            action = (fac.V_inv, phi1_outer(scale, vectors), fac.V)
        else:
            # eig_theta orders its columns by frequency 0, 1, 1, 2, 2, ...;
            # the cos and sin columns of one frequency share an eigenvalue
            vectors[mode - 1] = axis.lambdas[np.r_[0, 1 : axis.n : 2]]
            # complex, so that scaling the spectrum needs no cast buffer
            action = phi1_outer(scale, vectors).astype(complex)
        if form == "circulant":
            # column 0 of each first-mode row's circulant; its magnitudes
            # sum to the circulant's inf-norm
            columns = np.fft.irfft(action[:, :, 0], axis.n, axis=1)
            rho = scale * vectors[0] * _norm_inf(axis)
            holds = _window_holds(rho, axis.n, b, np.abs(columns).sum(axis=1))
            r0 = 1 + int(np.flatnonzero(~holds).max(initial=-1))
            if r0 < holds.size:
                action = tensor.BlockRows.from_columns(action[:r0].copy(), columns[r0:], b)
        factors.append(SplitFactor(mode, f.A, f.weight, action))
    first = factors[-1].phi1
    if isinstance(first, tuple):
        first = (first[0], tau * first[1], first[2])
    else:
        first = tau * first  # a stack keeps its transposed layout
    factors[-1] = replace(factors[-1], phi1=first)
    return GeometryOps(base=base, tau=tau, factors=tuple(factors))


def prepared_bytes(geometry: Geometry, shape: tuple[int, ...]) -> int:
    """An upper bound on the bytes :func:`prepare` holds for one component
    of this shape, in the forms :func:`_form` picks.  Per summand: the M W
    operator (n x n, or b x b blocks plus the 2 n / b links between them,
    and along the last mode also the rows, columns and values of those
    links, which its first product builds; or, held one per first-mode row,
    n_1 blocks and n_1 rows of links, which carry the weights), its weights,
    and phi1 (an n x n matrix; V^-1 and V with a phi1 tensor over the mode
    and its weights; or a complex rfft symbol); a stacked summand holds two
    stacks of n_1 matrices instead.  A dense phi1 counts as n x n even where
    prepare keeps only its block tridiagonal band, and a "circulant" one
    counts both its whole symbol and a b x 3b block row for every
    first-mode row, since how many rows take the band depends on tau, which
    the memory check before a run does not know."""
    total = 0
    for mode, weighted_by in FACTORS[geometry]:
        n = shape[mode - 1]
        b, rows, form = _form(geometry, shape, mode, weighted_by)
        if form == "stacked":
            total += 2 * shape[0] * n * n
            continue
        if b is None:
            total += n * n
        elif rows:
            total += shape[0] * (b * b + 2 * (n // b))
        else:
            links = 2 * (n // b)
            total += n * b + links + (3 * links if mode == len(shape) else 0)
        if form == "dense":
            total += n * n
            continue
        weights = math.prod(shape[mu - 1] for mu in weighted_by)
        total += 0 if rows else weights
        if form in ("rfft", "circulant"):
            total += 2 * (n // 2 + 1) * weights
            total += 3 * shape[0] * b * b if form == "circulant" else 0
        else:
            total += 2 * n * n + n * weights
    return 8 * total


def apply_diffusion(
    ops: GeometryOps,
    W: np.ndarray,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Discretized diffusion term M W (including the coefficient and the
    decay), into ``out`` or a new array; each summand after the first goes
    through ``scratch`` (or a new array) on its way into the sum."""
    if W.shape != ops.shape:
        raise ValueError(f"field shape {W.shape} does not match {ops.shape}")
    first, *rest = ops.factors
    out = first.diffusion(W, out=out)
    for f in rest:
        out += f.diffusion(W, out=scratch)
    return out


def step_split(
    ops: GeometryOps, W: np.ndarray, G: np.ndarray, *, out=None, work: Workspace | None = None
) -> np.ndarray:
    """One split exponential Euler step W + tau P_1 ... P_d (M W + G),
    with tau taken in by the prepared P_d and G given on the component's
    support.

    The new state goes into ``out``, which may be W itself, or into a new
    array.  Intermediates live in ``work``, a :class:`Workspace` for W's
    shape (a fresh one when None), so with both given the step allocates
    no field.
    """
    if work is None:
        work = Workspace(W.shape)
    T, spare = work.fields
    T = apply_diffusion(ops, W, out=T, scratch=spare)
    T[ops.base.support] += G
    for f in reversed(ops.factors):
        T, spare = f.apply_phi1(T, out=spare, work=work), T
    return np.add(W, T, out=out)


def step_forward_euler(
    ops: GeometryOps, W: np.ndarray, G: np.ndarray, *, out=None, work: Workspace | None = None
) -> np.ndarray:
    """Classical explicit Euler step W + tau (M W + G) (stability-limited;
    for comparison), into ``out`` through ``work`` as in :func:`step_split`."""
    if work is None:
        work = Workspace(W.shape)
    T = apply_diffusion(ops, W, out=work.fields[0], scratch=work.fields[1])
    T[ops.base.support] += G
    T *= ops.tau
    return np.add(W, T, out=out)


def dense_split_factors(base: ComponentOps) -> list[np.ndarray]:
    """The Kronecker summands M_1, ..., M_d of the diffusion matrix as dense
    matrices (coefficient included), assembled from ``FACTORS`` in the
    splitting order: the 1-d operator along the summand's mode, the
    diagonal weights on the modes that weight it, the identity elsewhere
    (no decay).  Sizes are capped by the Kronecker assembler."""
    axes = base.axis_ops()
    summands = []
    for mode, weighted_by in FACTORS[base.geometry]:
        mats = [
            np.diag(axis.weights) if mu in weighted_by else np.eye(axis.n)
            for mu, axis in enumerate(axes, start=1)
        ]
        mats[mode - 1] = axes[mode - 1].toarray()
        summands.append(base.coeff * tensor.kron_assemble(mats))
    return summands


def _prepared(comps, tau: float, phi1: bool) -> Callable[[dict, dict], None]:
    """Set-up of the split scheme (``phi1``) and of forward Euler, which
    applies only M W: each component's :class:`GeometryOps`, its factors
    from :func:`prepare` or :func:`diffusion_factors`, built once per
    distinct geometry, coefficient, decay and axis objects, and one
    :class:`Workspace` per field shape.  Returns the step that advances
    every component in place, in component order, through
    :func:`step_split` or :func:`step_forward_euler`, looked up when it
    runs."""
    factors: dict[tuple, tuple[SplitFactor, ...]] = {}
    plan = []
    for c in comps:
        key = (c.ops.geometry, c.ops.coeff, c.ops.decay, *map(id, c.ops.axis_ops()))
        if key not in factors:
            factors[key] = prepare(c.ops, tau).factors if phi1 else diffusion_factors(c.ops)
        plan.append((c.name, GeometryOps(base=c.ops, tau=tau, factors=factors[key])))
    work = {shape: Workspace(shape) for shape in {c.ops.shape for c in comps}}

    def step(states, gs):
        advance = step_split if phi1 else step_forward_euler
        for name, ops in plan:
            W = states[name]
            advance(ops, W, gs[name], out=W, work=work[W.shape])

    return step


def _dense(comps, tau: float) -> Callable[[dict, dict], None]:
    """Set-up of the dense scheme, classical exponential Euler W + tau
    phi1(tau M) (M W + G): M and phi1(tau M) per component, dense, capped
    at DENSE_REFERENCE_CAP unknowns.  M applies the decay and phi1 does
    not, as in :func:`prepare`.  Returns the step that advances every
    component in place, in component order, G given on its support."""
    plan = []
    for c in comps:
        size = math.prod(c.ops.shape)
        if size > DENSE_REFERENCE_CAP:
            raise ValueError(
                f"component {c.name!r} has {size} unknowns, beyond the dense "
                f"reference cap {DENSE_REFERENCE_CAP}"
            )
        M = reduce(np.add, dense_split_factors(c.ops))
        P = phi1_dense_oracle(tau * M, max_dim=DENSE_REFERENCE_CAP)
        M.flat[:: len(M) + 1] -= c.ops.decay
        plan.append((c.name, M, P, c.ops.support))

    def step(states, gs):
        for name, M, P, support in plan:
            W = states[name]
            w = tensor.vec(W)
            g = np.zeros(W.shape)
            g[support] = gs[name]
            W[...] = tensor.unvec(w + tau * (P @ (M @ w + tensor.vec(g))), W.shape)

    return step


# method: (set-up, whether the scheme steps in the eigenbasis of the axes)
SCHEMES = {
    "split": (partial(_prepared, phi1=True), True),
    "forward_euler": (partial(_prepared, phi1=False), False),
    "dense": (_dense, False),
}


def _check_rounding_growth(components, t_star: float, spectral: bool) -> None:
    """Reject a run in which rounding alone would double a mode or move the
    fields by more than ROUNDING_LIMIT.

    Every operator here has a nonpositive spectrum, but the eigenvalues of a
    symmetrized tridiagonal operator come out of the eigensolver with
    rounding errors, a near-zero one often positive.  A scheme that steps
    in the eigenbasis (``spectral``, the split scheme, whose set-up
    factorizes the same axes) multiplies each mode by exp(tau coeff w
    lambda) per step, w the largest weight on the summand, so a diffusion
    coefficient large enough (a tiny rho_star makes it 1/rho_star^2) turns
    that rounding into growth, and the run into a false divergence; the
    other schemes apply no eigenbasis and factorize nothing here.  The
    rounding of M W itself, up to coeff w ||A||_inf 2^-53 |W| per unit
    time, reaches the fields at full size through tau phi1 (its constant
    mode is not damped), so over the run it adds up to B = t_star coeff w
    ||A||_inf 2^-53 of them.  A ValueError if B exceeds ROUNDING_LIMIT, or,
    when ``spectral``, t_star coeff w max(lambda, 0) exceeds ln 2, for any
    summand of any component."""
    for c in components:
        axes = c.ops.axis_ops()
        for mode, weighted_by in FACTORS[c.ops.geometry]:
            axis = axes[mode - 1]
            w = math.prod(float(axes[mu - 1].weights.max()) for mu in weighted_by)
            scale = t_star * c.ops.coeff * w
            drift = scale * _norm_inf(axis) * 2.0**-53
            # a periodic operator's eigenvalues are in closed form, none positive
            factorized = spectral and not isinstance(axis, PeriodicTridiagonal)
            lam = eig_tridiag(axis).lambdas[-1] if factorized else 0.0
            growth = scale * max(float(lam), 0.0)
            failed = []
            if growth > math.log(2.0):
                failed.append(
                    f"grow the rounding error of its {c.ops.geometry.axes[mode - 1]} "
                    f"operator's spectrum by a factor e^{growth:.3g} (at most 2)"
                )
            if drift > ROUNDING_LIMIT:
                failed.append(
                    f"add up the rounding of its diffusion term to {drift:.3g} of the "
                    f"fields (at most {ROUNDING_LIMIT:g})"
                )
            if failed:
                raise ValueError(
                    f"component {c.name!r}: over t_star = {t_star:g} its diffusion "
                    f"coefficient {c.ops.coeff:.3g} would {' and '.join(failed)}; the "
                    f"model constants (such as a tiny rho_star) or a huge t_star scale "
                    f"diffusion beyond double precision"
                )


def check_divergence(states: dict[str, np.ndarray], step: int) -> None:
    """Raise DivergenceError naming ``step`` and the first component with a
    NaN or a magnitude beyond DIVERGENCE_LIMIT, in one pass over each
    field that has neither: a BLAS sum of squares strictly below
    DIVERGENCE_LIMIT**2 rules out both, since rounding a sum of nonnegative
    terms never brings it below a rounded term, and a NaN or an infinity
    leaves it NaN or infinite.  Any other field gets the exact test, a max
    and a min reduction, through both of which a NaN propagates."""
    for name, W in states.items():
        v = W.reshape(-1)
        with np.errstate(over="ignore"):  # an overflow to inf falls through
            if np.dot(v, v) < _LIMIT_SQUARED:
                continue
        if not (W.max() <= DIVERGENCE_LIMIT and W.min() >= -DIVERGENCE_LIMIT):
            raise DivergenceError(
                f"component {name!r} diverged at step {step}", step=step
            )


@dataclass
class RunResult:
    """The final (lifted) fields of a run."""

    fields: dict[str, np.ndarray]


def run_simulation(
    system,
    m: int,
    t_star: float,
    *,
    record_every: int | None = None,
    sample_hook: Callable[[int, float, dict], None] | None = None,
    method: str = "split",
) -> RunResult:
    """Advance a coupled system with one of three schemes: ``method`` is
    "split" (split exponential Euler), "forward_euler", or "dense", the
    classical (unsplit) exponential Euler with dense M and phi1(tau M) per
    component, for error comparisons at desk scale (limited to
    DENSE_REFERENCE_CAP unknowns per component).

    ``SCHEMES`` maps ``method`` to the scheme's set-up, which builds once,
    from the components and tau, what its step applies, and returns one
    ``step(states, gs)`` that advances every component in place; the table
    also says whether the scheme steps in the eigenbasis, which
    :func:`_check_rounding_growth` needs.  Each time step evaluates the
    kinetics of all components from the common state at t_n, holds that
    result while the scheme steps (the evaluator reuses its buffers only
    while its last result is held), then runs the divergence guard and
    the samples; the kinetics' outputs must not share memory with the
    states.  ``sample_hook(step, t, states)``, with t = step tau, is called
    at step 0, every ``record_every`` steps (a positive count; default m),
    and at the final step; it must copy what it keeps of the states.
    Non-finite or absurdly large field values abort with a DivergenceError
    naming the step; before any step, :func:`_check_rounding_growth`
    rejects constants under which rounding alone would make one.
    """
    if m < 1:
        raise ValueError("need at least one time step")
    if not t_star > 0:
        raise ValueError("t_star must be positive")
    if record_every is not None and record_every < 1:
        raise ValueError("record_every must be a positive step count")
    if method not in SCHEMES:
        raise ValueError(f"unknown method {method!r}")
    setup, spectral = SCHEMES[method]
    tau = t_star / m
    _check_rounding_growth(system.components, t_star, spectral)
    advance = setup(system.components, tau)
    states = {c.name: np.array(c.initial, dtype=float, copy=True) for c in system.components}
    every = record_every or m
    sample = sample_hook or (lambda step, t, states: None)

    sample(0, 0.0, states)
    for step in range(1, m + 1):
        gs = system.kinetics(states)
        advance(states, gs)
        check_divergence(states, step)
        if step % every == 0 or step == m:
            sample(step, step * tau, states)
    return RunResult(fields=states)
