import math

import mpmath as mp
import numpy as np
import pytest

from curvipat import operators as op
from curvipat import phifun
from curvipat.integrators import ComponentOps, Geometry
from oracles import kronecker_summands


def phi1_mpmath(x):
    """60-digit series/closed-form reference for the scalar function."""
    mp.mp.dps = 60
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(1)
    if abs(x) < mp.mpf("0.1"):
        return mp.nsum(lambda i: x**i / mp.factorial(i + 1), [0, mp.inf])
    return mp.expm1(x) / x


def test_phi1_at_zero_is_exactly_one():
    assert phifun.phi1(0.0) == 1.0


def test_phi1_at_one():
    assert phifun.phi1(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_phi1_tiny_negative_argument():
    value = phifun.phi1(-1e-9)
    ref = float(phi1_mpmath(-1e-9))
    assert value == pytest.approx(ref, rel=1e-14)
    assert value == pytest.approx(1.0 - 5e-10, rel=1e-14)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_phi1_accuracy_across_range(sign):
    xs = sign * np.logspace(-9, np.log10(50.0), 40)
    mine = phifun.phi1(xs)
    for x, v in zip(xs, mine):
        ref = phi1_mpmath(x)
        assert abs(v - float(ref)) <= 1e-15 * abs(float(ref))


def test_phi1_monotone_and_bounded_on_negative_axis():
    xs = np.linspace(-60.0, 0.0, 500)
    vals = phifun.phi1(xs)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


def test_phi1_outer_zero_scale_gives_ones():
    pt = phifun.phi1_outer(0.0, [np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
    assert np.array_equal(pt, np.ones((2, 3)))


def test_phi1_outer_reduces_to_scalars():
    tau = 0.3
    pt = phifun.phi1_outer(tau, [np.array([1.0]), np.array([0.0, -2.0])])
    assert pt[0, 0] == 1.0
    assert pt[0, 1] == phifun.phi1(-2.0 * tau)


def test_phi1_outer_matches_loop_exactly():
    rng = np.random.RandomState(11)
    factors = [rng.randn(3), rng.randn(3), -np.abs(rng.randn(3))]
    tau = 0.17
    pt = phifun.phi1_outer(tau, factors)
    loop = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                loop[i, j, k] = phifun.phi1(
                    tau * ((factors[0][i] * factors[1][j]) * factors[2][k])
                )
    assert np.array_equal(pt, loop)


def test_phi1_outer_positive_on_nonpositive_arguments():
    rng = np.random.RandomState(12)
    factors = [np.abs(rng.randn(4)), -np.abs(rng.randn(5))]
    pt = phifun.phi1_outer(0.8, factors)
    assert np.all(pt > 0.0)
    assert np.all(pt <= 1.0)


def test_phi1_outer_rejects_bad_factors():
    with pytest.raises(ValueError):
        phifun.phi1_outer(1.0, [np.array([1.0])])
    with pytest.raises(ValueError):
        phifun.phi1_outer(1.0, [np.array([1.0]), np.array([])])


def test_phi1_matrix_tau_zero_is_identity():
    fac = op.eig_tridiag(op.build_rho(2, 6, 1.0))
    P = phifun.phi1_matrix(0.0, fac)
    assert np.max(np.abs(P - np.eye(6))) <= 1e-13


def test_phi1_matrix_matches_dense_oracle():
    z = op.build_z(6, 1.0)
    fac = op.eig_tridiag(z)
    mine = phifun.phi1_matrix(0.1, fac)
    ref = phifun.phi1_dense_oracle(0.1 * z.toarray())
    assert np.max(np.abs(mine - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_phi1_matrix_diagonal_case():
    lam = np.array([-3.0, -1.0, 0.0])
    fac = op.EigenFactorization(lambdas=lam, Q=np.eye(3), xi=np.ones(3))
    P = phifun.phi1_matrix(0.5, fac)
    assert np.allclose(np.diag(P), phifun.phi1(0.5 * lam), rtol=0, atol=0)
    assert np.max(np.abs(P - np.diag(np.diag(P)))) == 0.0


def test_phi1_matrix_preserves_constants_for_zero_rowsum_operator():
    r = op.build_rho(2, 12, 1.0)
    P = phifun.phi1_matrix(0.7, op.eig_tridiag(r))
    ones = np.ones(12)
    assert np.max(np.abs(P @ ones - ones)) <= 1e-10


def test_phi1_dense_oracle_zero_matrix():
    assert np.max(np.abs(phifun.phi1_dense_oracle(np.zeros((4, 4))) - np.eye(4))) <= 1e-15


def test_phi1_dense_oracle_scalar_diagonal():
    P = phifun.phi1_dense_oracle(-np.eye(3))
    assert np.allclose(P, (1.0 - math.exp(-1.0)) * np.eye(3), atol=1e-14)


def test_phi1_dense_oracle_cross_validates_eigh_route():
    rng = np.random.RandomState(13)
    B = rng.randn(8, 8)
    M = -(B @ B.T) - 0.5 * np.eye(8)
    lam, Q = np.linalg.eigh(M)
    via_eig = (Q * phifun.phi1(lam)[None, :]) @ Q.T
    assert np.max(np.abs(phifun.phi1_dense_oracle(M) - via_eig)) <= 1e-11


def test_phi1_dense_oracle_size_cap():
    with pytest.raises(ValueError):
        phifun.phi1_dense_oracle(np.zeros((257, 257)))
    # callers may raise the cap explicitly
    P = phifun.phi1_dense_oracle(np.zeros((257, 257)), max_dim=512)
    assert P.shape == (257, 257)


def test_split_defect_is_second_order():
    # Disk factor pair with the BVAM diffusion coefficient: the unscaled
    # operators sit outside the asymptotic regime at these tau, while the
    # coefficient of the experiments the splitting claim refers to lands
    # squarely in it.
    rho = op.build_rho(2, 6, 1.0)
    theta = op.build_theta(6)
    base = ComponentOps(Geometry.DISK, 3.87e-3, rho=rho, theta=theta)
    M1, M2 = kronecker_summands(base)
    M = M1 + M2

    def defect(tau):
        full = phifun.phi1_dense_oracle(tau * M)
        split = phifun.phi1_dense_oracle(tau * M1) @ phifun.phi1_dense_oracle(tau * M2)
        return np.max(np.abs(full - split))

    taus = [2.0**-k for k in range(3, 8)]
    errs = [defect(t) for t in taus]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    assert all(3.3 <= r <= 4.8 for r in ratios)
