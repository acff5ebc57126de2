"""One-dimensional finite-difference operators on curvilinear grids.

Builders for the radial, angular and axial second-order stencils used by the
simulation engine, together with the diagonal weights and quadrature
measure of each coordinate, their diagonal symmetrizers and
eigendecompositions.  Every operator built here is tridiagonal (or circulant
tridiagonal for the periodic angle), has positive extra-diagonal entries, and
has a nonpositive real spectrum, which is what makes the exponential-type
time stepping in :mod:`curvipat.integrators` unconditionally stable.

All constructions are deterministic: identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class NumericalFailure(RuntimeError):
    """An iterative numerical procedure failed to converge."""


@dataclass(frozen=True)
class TridiagonalOperator:
    """Tridiagonal matrix with bands ``a`` (diagonal, length n), ``b``
    (superdiagonal, length n-1) and ``c`` (subdiagonal, length n-1), plus the
    coordinate grid it discretizes.

    ``weights`` is the strictly positive diagonal this coordinate puts on
    the Kronecker summands it scales (rho^-2, sin(phi)^-2), or None, and
    ``measure`` the quadrature measure of its nodes: node-centred cell
    widths, clipped to the domain, times the coordinate Jacobian."""

    n: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    grid: np.ndarray
    h: float
    weights: np.ndarray | None = None
    measure: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if len(self.a) != self.n or len(self.grid) != self.n:
            raise ValueError("band/grid length mismatch")
        if len(self.b) != self.n - 1 or len(self.c) != self.n - 1:
            raise ValueError("off-diagonal band length mismatch")
        if self.weights is not None:
            if len(self.weights) != self.n:
                raise ValueError("weights/grid length mismatch")
            if np.any(self.weights <= 0):
                raise ValueError("diagonal weights must be strictly positive")

    def toarray(self) -> np.ndarray:
        A = np.diag(self.a)
        A += np.diag(self.b, 1)
        A += np.diag(self.c, -1)
        return A

    def row_sums(self) -> np.ndarray:
        rs = self.a.copy()
        rs[:-1] += self.b
        rs[1:] += self.c
        return rs

    @cached_property
    def eigen(self) -> "EigenFactorization":
        """The eigendecomposition, computed on first use and then shared
        (read-only) by every component built on this operator."""
        xi, off = symmetrize(self)
        try:
            lam, Q = np.linalg.eigh(np.diag(self.a) + np.diag(off, 1) + np.diag(off, -1))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalFailure(f"tridiagonal eigensolver failed: {exc}") from exc
        for arr in (lam, Q, xi):
            arr.flags.writeable = False
        return EigenFactorization(lambdas=lam, Q=Q, xi=xi)


@dataclass(frozen=True)
class PeriodicTridiagonal:
    """Symmetric circulant tridiagonal matrix (periodic angular stencil);
    ``weights`` and ``measure`` as for :class:`TridiagonalOperator`."""

    n: int
    h: float
    diag: float
    off: float
    grid: np.ndarray
    weights: None = None  # the angle scales no other summand
    measure: np.ndarray | None = None

    def toarray(self) -> np.ndarray:
        A = np.full((self.n, self.n), 0.0)
        np.fill_diagonal(A, self.diag)
        idx = np.arange(self.n)
        A[idx, (idx + 1) % self.n] += self.off
        A[idx, (idx - 1) % self.n] += self.off
        return A

    @cached_property
    def lambdas(self) -> np.ndarray:
        """The eigenvalues of :func:`eig_theta`, in its column order,
        computed on first use and then shared (read-only).  An FFT applies
        the basis, so the rfft forms of ``prepare`` need these alone."""
        n = self.n
        j = np.arange(1, n // 2 + 1)  # the frequencies after the constant
        lam = np.empty(n)
        lam[0] = 0.0
        # frequency j sits in columns 2j - 1 (cosine) and 2j (sine), and
        # for even n, j = n/2 in column n - 1 alone (the alternating vector)
        lam[1:] = np.repeat((2.0 * np.cos(2.0 * np.pi * j / n) - 2.0) / self.h**2, 2)[: n - 1]
        lam.flags.writeable = False
        return lam

    @cached_property
    def eigen(self) -> "EigenFactorization":
        """The closed-form eigendecomposition of :func:`eig_theta`, built in
        one pass on first use and then shared (read-only) by every
        component built on this operator."""
        n = self.n
        k = np.arange(n)
        pairs = np.arange(1, (n + 1) // 2)  # the frequencies with a cosine and a sine
        ang = 2.0 * np.pi * pairs * k[:, None] / n
        Q = np.empty((n, n))
        Q[:, 0] = 1.0 / math.sqrt(n)
        Q[:, 1 : 2 * pairs.size : 2] = math.sqrt(2.0 / n) * np.cos(ang)
        Q[:, 2 : 2 * pairs.size + 1 : 2] = math.sqrt(2.0 / n) * np.sin(ang)
        if n % 2 == 0:
            Q[:, n - 1] = np.where(k % 2 == 0, 1.0, -1.0) / math.sqrt(n)
        xi = np.ones(n)
        Q.flags.writeable = xi.flags.writeable = False
        return EigenFactorization(lambdas=self.lambdas, Q=Q, xi=xi)


@dataclass(frozen=True)
class EigenFactorization:
    """Real diagonalization A = V diag(lambdas) V^-1 with V = Xi Q.

    ``Q`` is orthogonal, ``xi`` is the positive diagonal of the symmetrizer,
    so V^-1 = Q^T Xi^-1 and no inverse ever has to be formed explicitly.
    """

    lambdas: np.ndarray
    Q: np.ndarray
    xi: np.ndarray

    @property
    def V(self) -> np.ndarray:
        return self.xi[:, None] * self.Q

    @property
    def V_inv(self) -> np.ndarray:
        return self.Q.T / self.xi[None, :]


def build_theta(n: int) -> PeriodicTridiagonal:
    """Periodic second-difference matrix on theta_j = j*2pi/n, j = 1..n."""
    if n < 3:
        raise ValueError(f"periodic stencil needs n >= 3, got {n}")
    h = 2.0 * np.pi / n
    grid = h * np.arange(1, n + 1)
    return PeriodicTridiagonal(
        n=n, h=h, diag=-2.0 / h**2, off=1.0 / h**2, grid=grid, measure=np.full(n, h)
    )


def _widths(grid: np.ndarray, h: float, lo: float, hi: float) -> np.ndarray:
    """Node-centred cells of width h, clipped to [lo, hi]."""
    left = np.clip(grid - h / 2.0, lo, hi)
    right = np.clip(grid + h / 2.0, lo, hi)
    return right - left


def eig_theta(op: PeriodicTridiagonal) -> EigenFactorization:
    """Explicit eigenpairs of the circulant angular stencil (cached per
    operator, like :func:`eig_tridiag`).

    Eigenvalues are (2 cos(2 pi j / n) - 2)/h^2 and the eigenvectors form the
    real orthonormal Fourier basis (constant, cosine/sine pairs, and the
    alternating vector when n is even).  Columns are ordered by frequency
    j = 0, 1, 1, 2, 2, ...; the symmetrizer is the identity.
    """
    return op.eigen


def build_rho(d: int, n: int, rho_star: float) -> TridiagonalOperator:
    """Radial stencil for (d-1)/rho d/drho + d^2/drho^2 with a homogeneous
    Neumann condition at rho = rho_star.

    The grid is chosen so that the coefficient of the virtual node at the
    coordinate singularity vanishes: half-point grid for d = 2, integer grid
    for d = 3.
    """
    if d not in (2, 3):
        raise ValueError(f"unsupported dimension d={d}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if rho_star <= 0:
        raise ValueError("rho_star must be positive")
    ell = np.arange(1, n, dtype=float)
    if d == 2:
        h = rho_star / (n - 0.5)
        grid = h / 2.0 + h * np.arange(n)
        b = 2.0 * ell / ((2.0 * ell - 1.0) * h**2)
        c = 2.0 * ell / ((2.0 * ell + 1.0) * h**2)
    else:
        h = rho_star / n
        grid = h * np.arange(1, n + 1)
        b = (ell + 1.0) / (ell * h**2)
        c = ell / ((ell + 1.0) * h**2)
    c[-1] = 2.0 / h**2  # eliminated Neumann ghost at rho_star
    a = np.full(n, -2.0 / h**2)
    jacobian = grid if d == 2 else grid**2
    return TridiagonalOperator(
        n=n, a=a, b=b, c=c, grid=grid, h=h,
        weights=grid**-2.0,
        measure=jacobian * _widths(grid, h, 0.0, grid[-1]),
    )


# Taylor coefficients of 1 - y*cot(y) = y^2/3 + y^4/45 + 2 y^6/945 + ...
_YCOT_SERIES = (1.0 / 3.0, 1.0 / 45.0, 2.0 / 945.0, 1.0 / 4725.0, 2.0 / 93555.0)


def _ycot_minus_one(y: float) -> float:
    # y*cot(y) - 1 without cancellation for small y.
    if y < 0.05:
        y2 = y * y
        s = 0.0
        for coef in reversed(_YCOT_SERIES):
            s = s * y2 + coef
        return -s * y2
    return y * math.cos(y) / math.sin(y) - 1.0


def sigma_residual(n: int, x: float) -> float:
    """Residual f(x) = cot(x pi/(n-1+2x)) - 2(n-1+2x)/pi of the angular-grid
    offset equation, evaluated in a cancellation-free form.

    With y = x pi/(n-1+2x) the identity f = ((1-2x) + (y cot y - 1))/y holds
    exactly; both summands stay tiny near the root, so the returned value is
    accurate even for very large n where the textbook form loses all digits.
    """
    y = x * math.pi / (n - 1 + 2.0 * x)
    return ((1.0 - 2.0 * x) + _ycot_minus_one(y)) / y


def _sigma_residual_prime(n: int, x: float) -> float:
    big = n - 1 + 2.0 * x
    y = x * math.pi / big
    s = math.sin(y)
    return -(4.0 / math.pi + (n - 1) * math.pi / (s * s * big * big))


def sigma_bracket(n: int) -> tuple[float, float]:
    """Guaranteed enclosure of the grid-offset root: lower bound
    (-(n-1)+sqrt(n^2-1))/2 in a cancellation-safe form, upper bound 1/2."""
    lo = (n - 1.0) / (math.sqrt(n * n - 1.0) + n - 1.0)
    return lo, 0.5


SIGMA_TOL = 1e-14
SIGMA_MAX_ITER = 200


def solve_sigma(n: int) -> float:
    """Solve for the fractional grid offset sigma in (0, 1/2).

    Safeguarded Newton iteration with bisection fallback inside the known
    bracket.  Stops when |f(sigma)| <= SIGMA_TOL or when the bracket
    collapses to adjacent doubles, in which case the representable root is
    returned (for very large n the attainable residual is limited by the
    steepness of f).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lo, hi = sigma_bracket(n)
    x = 0.5 * (lo + hi)
    for _ in range(SIGMA_MAX_ITER):
        fx = sigma_residual(n, x)
        if abs(fx) <= SIGMA_TOL:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi = x
        step = fx / _sigma_residual_prime(n, x)
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if np.nextafter(lo, hi) >= hi:
            # bracket has collapsed: pick the endpoint with smaller residual
            return min((lo, hi), key=lambda t: abs(sigma_residual(n, t)))
        x = x_new
    raise NumericalFailure(f"sigma iteration did not converge for n={n}")


def build_phi_op(n: int) -> TridiagonalOperator:
    """Polar-angle stencil for cot(phi) d/dphi + d^2/dphi^2 on the symmetric
    grid phi_k = (sigma + k - 1) h, h = pi/(n - 1 + 2 sigma), with the
    offset sigma of :func:`solve_sigma`."""
    sigma = solve_sigma(n)
    h = math.pi / (n - 1 + 2.0 * sigma)
    grid = (sigma + np.arange(n)) * h
    x = (sigma + np.arange(n - 1)) * h
    b = 1.0 / h**2 + np.cos(x) / np.sin(x) / (2.0 * h)
    c = b[::-1].copy()  # c_l = b_{n-l} by the grid symmetry
    a = np.full(n, -2.0 / h**2)
    sin = np.sin(grid)
    op = TridiagonalOperator(
        n=n, a=a, b=b, c=c, grid=grid, h=h,
        weights=sin**-2.0,
        measure=sin * _widths(grid, h, 0.0, np.pi),
    )
    return op


def build_z(n: int, z_star: float) -> TridiagonalOperator:
    """Axial stencil with a Neumann condition at z = 0 and a homogeneous
    Dirichlet condition at z = z_star; grid z_k = (k-1) z_star/n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if z_star <= 0:
        raise ValueError("z_star must be positive")
    h = z_star / n
    grid = h * np.arange(n)
    a = np.full(n, -2.0 / h**2)
    b = np.full(n - 1, 1.0 / h**2)
    b[0] = 2.0 / h**2
    c = np.full(n - 1, 1.0 / h**2)
    return TridiagonalOperator(
        n=n, a=a, b=b, c=c, grid=grid, h=h, measure=_widths(grid, h, 0.0, grid[-1] + h)
    )


def build_lambda(n: int, rho_star: float, lam: float) -> TridiagonalOperator:
    """Radially weighted (anomalous-diffusion) stencil for superdiffusion
    exponents lam in (-2, 0], with a homogeneous Dirichlet condition at
    rho = rho_star absorbed into the last row.

    lam = 0 degenerates to the classical disk stencil on a Dirichlet grid.
    """
    if not -2.0 < lam <= 0.0:
        raise ValueError(f"superdiffusion exponent must lie in (-2, 0], got {lam}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if rho_star <= 0:
        raise ValueError("rho_star must be positive")
    m = (1.0 - lam) / 2.0
    h = rho_star / (n + m)
    grid = m * h + h * np.arange(n)
    scale = h ** (2.0 + lam)
    ell = np.arange(1, n + 1, dtype=float)
    a = -2.0 / ((m + ell - 1.0) ** lam * scale)
    ell = ell[:-1]
    b = (2.0 * m + ell - 1.0) / ((m + ell - 1.0) ** (1.0 + lam) * scale)
    c = ell / ((m + ell) ** (1.0 + lam) * scale)
    return TridiagonalOperator(
        n=n, a=a, b=b, c=c, grid=grid, h=h,
        weights=grid ** (-2.0 - lam),
        measure=grid * _widths(grid, h, 0.0, grid[-1] + h),
    )


def symmetrize(op: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal symmetrization xi with Xi^-1 A Xi symmetric, and that
    matrix's off-diagonal sqrt(b_l c_l) (its diagonal is A's).

    xi_1 = 1 and xi_{l+1} = sqrt((c_1...c_l)/(b_1...b_l)); the products are
    accumulated as sums of logs so that xi never under- or overflows even for
    n in the thousands.
    """
    if np.any(op.b <= 0) or np.any(op.c <= 0):
        raise ValueError("symmetrization needs strictly positive off-diagonals")
    logs = 0.5 * np.cumsum(np.log(op.c) - np.log(op.b))
    xi = np.concatenate(([1.0], np.exp(logs)))
    return xi, np.sqrt(op.b * op.c)


def eig_tridiag(op: TridiagonalOperator) -> EigenFactorization:
    """Full eigendecomposition via symmetrization (cached per operator).

    Eigenvalues come back sorted ascending with the eigenvector columns of Q
    permuted accordingly; V = Xi Q diagonalizes the original operator.
    """
    return op.eigen


def expm_taylor(A: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring of a 20-term Taylor
    polynomial (scaled so that ||A/2^s||_1 <= 1/2).  Test-grade utility."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = np.linalg.norm(A, 1)
    s = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    X = A / 2.0**s
    eye = np.eye(n)
    E = eye.copy()
    for k in range(20, 0, -1):
        E = eye + (X @ E) / k
    for _ in range(s):
        E = E @ E
    return E


def matrix_exp_nonneg_check(op, t: float) -> float:
    """Smallest entry of exp(t A) for a small operator (n <= 64); the
    essentially-nonnegative structure should keep this >= -1e-12."""
    if op.n > 64:
        raise ValueError("dense exponential check is limited to n <= 64")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(np.min(expm_taylor(t * op.toarray())))
