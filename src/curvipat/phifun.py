"""Evaluation of the phi1 function: scalars, elementwise tensors for the
diagonalized split factors, dense matrices via eigendecomposition, and a
dense augmented-exponential oracle.

phi1(x) = (e^x - 1)/x with phi1(0) = 1; for a matrix argument it is the
integral of the exponential that appears in exponential one-step methods.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .operators import EigenFactorization, expm_taylor

# Below this cutoff a degree-6 Taylor polynomial, exact to double precision
# there, gives phi1(0) = 1 (expm1(x)/x is 0/0) and the bits the goldens pin;
# expm1(x)/x loses no digits there, but differs from it by up to 1 ulp.
_TAYLOR_CUTOFF = 1e-5


def phi1(x):
    """phi1 evaluated elementwise on a scalar or array argument."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = np.abs(arr) < _TAYLOR_CUTOFF
    xs = arr[small]
    p = np.full_like(xs, 1.0 / 5040.0)
    for inv_fact in (720.0, 120.0, 24.0, 6.0, 2.0, 1.0):
        p = p * xs + 1.0 / inv_fact
    out[small] = p
    xl = arr[~small]
    out[~small] = np.expm1(xl) / xl
    return float(out[0]) if scalar else out


def phi1_outer(tau_coeff: float, factors) -> np.ndarray:
    """Array with entries phi1(tau_coeff * f1[i] * f2[j] * f3[k]).

    Two or three factor vectors; pass ``np.ones(1)`` for a mode that the
    split factor does not couple, and the result has size 1 there, so it
    broadcasts against the field.
    """
    if not 2 <= len(factors) <= 3:
        raise ValueError(f"need 2 or 3 factor vectors, got {len(factors)}")
    arrs = [np.asarray(f, dtype=float) for f in factors]
    for f in arrs:
        if f.ndim != 1 or f.size == 0:
            raise ValueError("each factor must be a nonempty 1-d vector")
    return phi1(tau_coeff * reduce(np.multiply.outer, arrs))


def phi1_matrix(tau: float, fac: EigenFactorization) -> np.ndarray:
    """Dense phi1(tau A) from the eigendecomposition A = V diag(lam) V^-1."""
    V = fac.V
    return (V * phi1(tau * fac.lambdas)[None, :]) @ fac.V_inv


def phi1_dense_oracle(M: np.ndarray, max_dim: int = 256) -> np.ndarray:
    """phi1(M) as the top-right block of exp([[M, I], [0, 0]]).

    Independent of any diagonalization, hence usable as a cross-check; the
    default size cap keeps it test-grade (callers that need the larger dense
    reference raise the cap explicitly).
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n > max_dim:
        raise ValueError(f"dense phi1 oracle capped at {max_dim}, got n={n}")
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = M
    aug[:n, n:] = np.eye(n)
    return expm_taylor(aug)[:n, n:]
