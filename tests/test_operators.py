import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from curvipat import cli, models
from curvipat import operators as op
from curvipat.integrators import prepare
from oracles import eig_theta_by_frequency, explicit_z_eigenpairs


def max_abs(A):
    return float(np.max(np.abs(A)))


# ---------------------------------------------------------------------------
# periodic angular stencil
# ---------------------------------------------------------------------------


def test_build_theta_n4_entries():
    t = op.build_theta(4)
    assert t.h == pytest.approx(np.pi / 2, rel=0, abs=0)
    assert t.diag == pytest.approx(-8 / np.pi**2, rel=1e-15)
    assert t.off == pytest.approx(4 / np.pi**2, rel=1e-15)


def test_build_theta_n4_eigenvalue_multiset():
    t = op.build_theta(4)
    oracle = np.sort(np.linalg.eigvalsh(t.toarray()))
    expected = np.sort([0.0, -8 / np.pi**2, -16 / np.pi**2, -8 / np.pi**2])
    assert np.allclose(oracle, expected, atol=1e-13)
    assert np.allclose(np.sort(op.eig_theta(t).lambdas), expected, atol=1e-13)


@pytest.mark.parametrize("n", [3, 5, 8, 17])
def test_build_theta_row_sums_exact_zero(n):
    t = op.build_theta(n)
    assert t.diag + 2 * t.off == 0.0
    assert np.all(t.toarray().sum(axis=1) == 0.0)


def test_build_theta_rejects_small_n():
    with pytest.raises(ValueError):
        op.build_theta(2)


def test_eig_theta_kernel_vector_n3():
    fac = op.eig_theta(op.build_theta(3))
    k = int(np.argmin(np.abs(fac.lambdas)))
    assert fac.lambdas[k] == 0.0
    assert np.allclose(np.abs(fac.Q[:, k]), 1 / np.sqrt(3), atol=1e-15)


def test_eig_theta_residual_and_orthogonality_n8():
    t = op.build_theta(8)
    fac = op.eig_theta(t)
    A = t.toarray()
    resid = max_abs(A @ fac.Q - fac.Q * fac.lambdas[None, :])
    assert resid <= 1e-12 * max_abs(A)
    assert max_abs(fac.Q.T @ fac.Q - np.eye(8)) <= 1e-12
    assert np.all(fac.xi == 1.0)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 50, 100, 128, 160])
def test_eig_theta_equals_the_frequency_loop_bitwise(n):
    t = op.build_theta(n)
    fac = op.eig_theta(t)
    lam, Q, xi = eig_theta_by_frequency(t)
    assert fac.lambdas.tobytes() == lam.tobytes()
    assert fac.Q.tobytes() == Q.tobytes()
    assert fac.xi.tobytes() == xi.tobytes()
    assert op.eig_theta(t) is fac
    assert not (fac.lambdas.flags.writeable or fac.Q.flags.writeable or fac.xi.flags.writeable)


def test_the_angular_eigenbasis_is_built_once_and_only_where_used(monkeypatch, capsys):
    # u, v, r and s of the cylinder all sit on one theta axis; from
    # FFT_MIN_THETA points on an rfft applies the basis to r and s, and u
    # and v, held as coefficients in it, build it once; the property report
    # reads the eigenvalues alone
    built = []
    for name in ("lambdas", "eigen"):
        closed_form = getattr(op.PeriodicTridiagonal, name).func

        def counting(self, _name=name, _build=closed_form):
            built.append((_name, self.n))
            return _build(self)

        spy = functools.cached_property(counting)
        spy.__set_name__(op.PeriodicTridiagonal, name)
        monkeypatch.setattr(op.PeriodicTridiagonal, name, spy)
    for n_theta in (8, 128):
        built.clear()
        dims = {"n_rho": 6, "n_theta": n_theta, "n_z": 4}
        system = models.build_system("bsdib_cylinder", dims, seed=1)
        assert [c.name for c in system.components] == ["u", "v", "r", "s"]
        for c in system.components:
            prepare(c.ops, 0.01)
        assert built == [("eigen", n_theta), ("lambdas", n_theta)]
    built.clear()
    assert cli.main(["props", "--kind", "theta", "--n-list", "8,256"]) == 0
    assert built == [("lambdas", 8), ("lambdas", 256)]
    assert "max_eigenvalue" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# radial stencils
# ---------------------------------------------------------------------------


def test_build_rho_disk_n2_hand_values():
    r = op.build_rho(2, 2, 1.0)
    assert r.h == pytest.approx(2 / 3, rel=1e-15)
    assert np.allclose(r.grid, [1 / 3, 1.0], atol=1e-15)
    assert np.allclose(r.a, [-4.5, -4.5], rtol=1e-15)
    assert np.allclose(r.b, [4.5], rtol=1e-15)
    assert np.allclose(r.c, [4.5], rtol=1e-15)


def test_build_rho_ball_n3_hand_values():
    r = op.build_rho(3, 3, 1.0)
    assert r.h == pytest.approx(1 / 3, rel=1e-15)
    assert np.allclose(r.a, [-18.0] * 3, rtol=1e-13)
    assert np.allclose(r.b, [18.0, 13.5], rtol=1e-13)
    assert np.allclose(r.c, [4.5, 18.0], rtol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 5, 16, 60])
def test_build_rho_row_sums_zero(d, n):
    r = op.build_rho(d, n, 1.3)
    assert max_abs(r.row_sums()) <= 1e-12 * max_abs(r.a)


def test_build_rho_rejects_bad_dimension():
    with pytest.raises(ValueError):
        op.build_rho(4, 8, 1.0)


# ---------------------------------------------------------------------------
# angular offset root
# ---------------------------------------------------------------------------


def _sigma_bisection_oracle(n, steps=200):
    """Plain bisection on the offset equation in 60-digit arithmetic."""
    mp.mp.dps = 60

    def f(x):
        x = mp.mpf(x)
        return mp.cot(x * mp.pi / (n - 1 + 2 * x)) - 2 * (n - 1 + 2 * x) / mp.pi

    lo, hi = op.sigma_bracket(n)
    a, b = mp.mpf(lo), mp.mpf(hi)
    for _ in range(steps):
        mid = (a + b) / 2
        if f(mid) > 0:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def test_sigma_bracket_n2():
    lo, hi = op.sigma_bracket(2)
    assert lo == pytest.approx((-1 + math.sqrt(3)) / 2, rel=1e-15)
    assert hi == 0.5
    assert lo < op.solve_sigma(2) < hi


@pytest.mark.parametrize("n", [2, 10, 100, 10_000])
def test_sigma_matches_bisection_oracle(n):
    sigma = op.solve_sigma(n)
    oracle = _sigma_bisection_oracle(n)
    assert abs(sigma - float(oracle)) <= 4 * np.finfo(float).eps
    lo, hi = op.sigma_bracket(n)
    assert lo < sigma < hi


def test_sigma_large_n_approaches_half():
    assert op.solve_sigma(10_000) > 0.49


def test_sigma_monotone_in_n():
    values = [op.solve_sigma(n) for n in (2, 4, 8, 16, 64, 256, 1024)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_sigma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        op.solve_sigma(1)


# ---------------------------------------------------------------------------
# polar-angle stencil
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 9, 33, 128])
def test_build_phi_grid_symmetry_and_positivity(n):
    phi, sigma = op.build_phi_op(n), op.solve_sigma(n)
    assert 0 < sigma < 0.5
    assert phi.grid[0] == sigma * phi.h
    assert max_abs(phi.grid + phi.grid[::-1] - np.pi) <= 1e-12
    assert np.all(phi.b > 0)
    assert np.all(phi.c > 0)
    assert max_abs(phi.row_sums()) <= 1e-12 * (2 / phi.h**2)
    assert np.allclose(phi.c, phi.b[::-1], rtol=0, atol=0)


# ---------------------------------------------------------------------------
# axial stencil
# ---------------------------------------------------------------------------


def test_build_z_n4_hand_values():
    z = op.build_z(4, 1.0)
    assert z.h == 0.25
    assert np.allclose(z.a, [-32.0] * 4)
    assert np.allclose(z.b, [32.0, 16.0, 16.0])
    assert np.allclose(z.c, [16.0, 16.0, 16.0])
    assert np.allclose(z.row_sums(), [0.0, 0.0, 0.0, -16.0])


def test_explicit_z_first_eigenvalue_n4():
    lam, _ = explicit_z_eigenpairs(4, 1.0)
    assert lam[0] == pytest.approx(-2.4358549596388244, rel=1e-14)
    assert np.all(lam < 0.0)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_explicit_z_eigenpairs_residual(n):
    z = op.build_z(n, 1.0)
    lam, V = explicit_z_eigenpairs(n, 1.0)
    A = z.toarray()
    resid = max_abs(A @ V - V * lam[None, :])
    assert resid <= 1e-10 * max_abs(A)


def test_build_z_eigenvalues_match_eig_tridiag_n8():
    z = op.build_z(8, 1.0)
    lam, _ = explicit_z_eigenpairs(8, 1.0)
    fac = op.eig_tridiag(z)
    assert np.allclose(np.sort(lam), fac.lambdas, atol=1e-10 * max_abs(z.a))


# ---------------------------------------------------------------------------
# anomalous radial stencil
# ---------------------------------------------------------------------------


def test_build_lambda_zero_exponent_matches_disk_formulas():
    lam_op = op.build_lambda(4, 1.0, 0.0)
    disk = op.build_rho(2, 4, 1.0)
    # same coefficient formulas, evaluated on the shifted (Dirichlet) grid
    assert np.allclose(lam_op.a * lam_op.h**2, disk.a * disk.h**2, rtol=1e-14)
    assert np.allclose(lam_op.b * lam_op.h**2, disk.b * disk.h**2, rtol=1e-14)
    assert np.allclose(
        (lam_op.c * lam_op.h**2)[:-1], (disk.c * disk.h**2)[:-1], rtol=1e-14
    )
    assert lam_op.grid[0] == pytest.approx(lam_op.h / 2, rel=1e-15)


def test_build_lambda_row_sums_and_spectrum():
    lam_op = op.build_lambda(8, 1.0, -1.95)
    sums = lam_op.row_sums()
    assert max_abs(sums[:-1]) <= 1e-12 * max_abs(lam_op.a)
    assert sums[-1] < 0.0
    assert sums[-1] == pytest.approx(lam_op.a[-1] + lam_op.c[-1], rel=1e-14)
    assert np.all(lam_op.b > 0)
    assert np.all(lam_op.c > 0)
    assert np.max(op.eig_tridiag(lam_op).lambdas) < 0.0


def test_build_lambda_grid_offset():
    lam_op = op.build_lambda(8, 1.0, -1.95)
    assert lam_op.grid[0] == pytest.approx(1.475 * lam_op.h, rel=1e-14)


def test_build_lambda_rejects_out_of_range():
    with pytest.raises(ValueError):
        op.build_lambda(8, 1.0, -2.0)
    with pytest.raises(ValueError):
        op.build_lambda(8, 1.0, 0.1)


# ---------------------------------------------------------------------------
# diagonal weights carried by the operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build,closed_form",
    [
        pytest.param(lambda: op.build_rho(2, 7, 1.3), lambda g: g**-2.0, id="rho2"),
        pytest.param(lambda: op.build_rho(3, 7, 1.3), lambda g: g**-2.0, id="rho3"),
        pytest.param(
            lambda: op.build_lambda(7, 1.3, 0.0), lambda g: g**-2.0, id="lambda0"
        ),
        pytest.param(
            lambda: op.build_lambda(7, 1.3, -1.95), lambda g: g**-0.05, id="lambda-1.95"
        ),
        pytest.param(lambda: op.build_phi_op(7), lambda g: np.sin(g) ** -2, id="phi"),
        pytest.param(lambda: op.build_theta(7), None, id="theta"),
        pytest.param(lambda: op.build_z(7, 2.0), None, id="z"),
    ],
)
def test_operator_weights_closed_forms(build, closed_form):
    axis = build()
    if closed_form is None:
        assert axis.weights is None
    else:
        assert np.allclose(axis.weights, closed_form(axis.grid), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "weights",
    [[1.0, 0.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0]],
    ids=["zero", "negative", "short"],
)
def test_operator_rejects_bad_weights(weights):
    with pytest.raises(ValueError):
        op.TridiagonalOperator(
            n=3,
            a=np.full(3, -2.0),
            b=np.ones(2),
            c=np.ones(2),
            grid=np.arange(1.0, 4.0),
            h=1.0,
            weights=np.array(weights),
        )


# ---------------------------------------------------------------------------
# symmetrization and eigendecomposition
# ---------------------------------------------------------------------------


def test_symmetrize_produces_symmetric_matrix():
    # Xi^-1 A Xi is symmetric, with the returned off-diagonal
    A = op.build_rho(2, 8, 1.0)
    xi, off = op.symmetrize(A)
    S = A.toarray() * xi[None, :] / xi[:, None]
    assert max_abs(S - S.T) <= 1e-13 * max_abs(S)
    np.testing.assert_allclose(np.diag(S, 1), off, rtol=1e-13)


@pytest.mark.parametrize("n", [4, 8, 37, 200])
def test_symmetrizer_norms_closed_forms(n):
    xi2, _ = op.symmetrize(op.build_rho(2, n, 1.0))
    assert np.max(xi2) == 1.0
    assert np.max(1 / xi2) == pytest.approx(math.sqrt(2 * n - 3), rel=1e-12)
    xi3, _ = op.symmetrize(op.build_rho(3, n, 1.0))
    assert np.max(1 / xi3) == pytest.approx(n - 1, rel=1e-12)
    xiz, _ = op.symmetrize(op.build_z(n, 1.0))
    assert np.max(xiz) / np.min(xiz) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_symmetrize_rejects_nonpositive_bands():
    bad = op.TridiagonalOperator(
        n=3,
        a=np.array([-2.0, -2.0, -2.0]),
        b=np.array([1.0, -1.0]),
        c=np.array([1.0, 1.0]),
        grid=np.arange(3.0),
        h=1.0,
    )
    with pytest.raises(ValueError):
        op.symmetrize(bad)


def test_eig_tridiag_nonpositive_spectrum_and_reconstruction():
    r = op.build_rho(2, 16, 1.0)
    fac = op.eig_tridiag(r)
    A = r.toarray()
    assert np.max(fac.lambdas) <= 1e-10 * max_abs(A)
    phi = op.build_phi_op(16)
    fac_phi = op.eig_tridiag(phi)
    Aphi = phi.toarray()
    recon = fac_phi.V @ np.diag(fac_phi.lambdas) @ fac_phi.V_inv
    assert max_abs(recon - Aphi) <= 1e-9 * max_abs(Aphi)
    assert np.all(np.diff(fac.lambdas) >= 0)


def test_eig_tridiag_is_computed_once_per_operator_and_read_only():
    r = op.build_rho(2, 12, 1.0)
    fac = op.eig_tridiag(r)
    assert op.eig_tridiag(r) is fac
    with pytest.raises(ValueError):
        fac.lambdas[0] = 0.0


def test_import_loads_no_scipy():
    # scipy is no runtime dependency: importing it alone costs ~27 MiB of RSS
    import curvipat

    src = str(Path(curvipat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, curvipat, curvipat.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# exponential nonnegativity
# ---------------------------------------------------------------------------


def _all_small_operators(n):
    ops = [
        op.build_theta(n),
        op.build_rho(2, n, 1.0),
        op.build_rho(3, n, 1.0),
        op.build_phi_op(n),
        op.build_z(n, 1.0),
        op.build_lambda(n, 1.0, -1.95),
    ]
    return ops


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_matrix_exponential_nonnegative(n, t):
    for operator in _all_small_operators(n):
        assert op.matrix_exp_nonneg_check(operator, t) >= -1e-12


def test_matrix_exponential_t0_is_identity():
    z = op.build_z(5, 1.0)
    assert np.array_equal(op.expm_taylor(0.0 * z.toarray()), np.eye(5))


def test_theta_exponential_rows_sum_to_one():
    t = op.build_theta(6)
    E = op.expm_taylor(1.0 * t.toarray())
    assert np.allclose(E.sum(axis=1), 1.0, atol=1e-13)


def test_matrix_exp_check_size_cap():
    with pytest.raises(ValueError):
        op.matrix_exp_nonneg_check(op.build_z(65, 1.0), 1.0)


# ---------------------------------------------------------------------------
# conditioning growth windows
# ---------------------------------------------------------------------------


def test_phi_symmetrizer_growth_window():
    def inv_norm(n):
        xi, _ = op.symmetrize(op.build_phi_op(n))
        return np.max(1 / xi)

    for n in (64, 128, 256):
        ratio = inv_norm(2 * n) / inv_norm(n)
        assert 1.2 <= ratio <= 1.7


def test_lambda_symmetrizer_growth_window():
    def inv_norm(n):
        xi, _ = op.symmetrize(op.build_lambda(n, 1.0, -1.95))
        return np.max(1 / xi)

    for n in (64, 128, 256):
        assert inv_norm(2 * n) / inv_norm(n) <= 2.0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_builders_and_eig_are_deterministic():
    a, b = op.build_phi_op(17), op.build_phi_op(17)
    assert np.array_equal(a.b, b.b) and op.solve_sigma(17) == op.solve_sigma(17)
    f1 = op.eig_tridiag(op.build_rho(2, 12, 1.0))
    f2 = op.eig_tridiag(op.build_rho(2, 12, 1.0))
    assert np.array_equal(f1.lambdas, f2.lambdas)
    assert np.array_equal(f1.Q, f2.Q)
    t1, t2 = op.eig_theta(op.build_theta(9)), op.eig_theta(op.build_theta(9))
    assert np.array_equal(t1.Q, t2.Q)
