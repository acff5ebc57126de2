import numpy as np
import pytest

from curvipat import operators, tensor
from oracles import kron_assemble, tucker


def loop_mode_product(mu, L, T):
    out = np.zeros_like(np.asarray(T, dtype=float))
    it = np.ndindex(*T.shape)
    for idx in it:
        acc = 0.0
        for m in range(T.shape[mu - 1]):
            src = list(idx)
            src[mu - 1] = m
            acc += L[idx[mu - 1], m] * T[tuple(src)]
        out[idx] = acc
    return out


def test_vec_unvec_roundtrip_bitwise():
    rng = np.random.RandomState(0)
    for dims in [(5,), (3, 4), (2, 3, 4)]:
        T = rng.randn(*dims)
        w = tensor.vec(T)
        assert np.array_equal(tensor.unvec(w, dims), T)


def test_vec_linearization_first_index_fastest():
    T = np.zeros((3, 4, 2))
    T[1, 2, 1] = 7.0
    w = tensor.vec(T)
    assert w[1 + 2 * 3 + 1 * 3 * 4] == 7.0


def test_unvec_rejects_bad_size():
    with pytest.raises(ValueError):
        tensor.unvec(np.zeros(5), (2, 3))


def test_mode_product_identity_is_bitwise():
    rng = np.random.RandomState(1)
    T = rng.randn(4, 3, 5)
    for mu in (1, 2, 3):
        out = tensor.mode_product(mu, np.eye(T.shape[mu - 1]), T)
        assert np.array_equal(out, T)


def test_mode_product_matches_loop_oracle():
    rng = np.random.RandomState(2)
    T = rng.randn(3, 3, 3)
    L = rng.randn(3, 3)
    for mu in (1, 2, 3):
        out = tensor.mode_product(mu, L, T)
        assert np.max(np.abs(out - loop_mode_product(mu, L, T))) <= 1e-13


@pytest.mark.parametrize("dims", [(4, 5), (3, 4, 5)])
@pytest.mark.parametrize("transposed", [False, True])
def test_mode_product_every_mode_is_correct_and_c_contiguous(dims, transposed):
    rng = np.random.RandomState(12)
    T = rng.randn(*dims)
    if transposed:
        T = rng.randn(*dims[::-1]).T
        assert not T.flags.c_contiguous
    for mu in range(1, T.ndim + 1):
        L = rng.randn(dims[mu - 1], dims[mu - 1])
        out = tensor.mode_product(mu, L, T)
        assert out.shape == T.shape
        assert out.flags.c_contiguous
        assert np.max(np.abs(out - loop_mode_product(mu, L, T))) <= 1e-13
        buf = np.empty(dims)
        into = tensor.mode_product(mu, L, T, out=buf)
        assert np.shares_memory(into, buf) and np.array_equal(into, out)


def test_mode_product_order2_kronecker_identity():
    rng = np.random.RandomState(3)
    T = rng.randn(4, 5)
    L1 = rng.randn(4, 4)
    L2 = rng.randn(5, 5)
    stepped = tensor.mode_product(2, L2, tensor.mode_product(1, L1, T))
    K = kron_assemble([L1, L2])
    assert np.max(np.abs(stepped - tensor.unvec(K @ tensor.vec(T), (4, 5)))) <= 1e-13


def test_mode_product_shape_errors():
    T = np.zeros((3, 4))
    with pytest.raises(ValueError):
        tensor.mode_product(1, np.eye(4), T)
    with pytest.raises(ValueError):
        tensor.mode_product(3, np.eye(4), T)


def test_tucker_identity_and_skip():
    rng = np.random.RandomState(4)
    T = rng.randn(4, 4, 4)
    eye = np.eye(4)
    assert np.array_equal(tucker(T, [eye, eye, eye]), T)
    L1, L3 = rng.randn(4, 4), rng.randn(4, 4)
    skipped = tucker(T, [L1, rng.randn(4, 4), L3], skip={2})
    with_identity = tucker(T, [L1, eye, L3])
    assert np.array_equal(skipped, with_identity)
    assert np.array_equal(tucker(T, [L1, None, L3]), with_identity)


def test_tucker_matches_kronecker_oracle_order3():
    rng = np.random.RandomState(5)
    T = rng.randn(4, 4, 4)
    Ls = [rng.randn(4, 4) for _ in range(3)]
    out = tucker(T, Ls)
    K = kron_assemble(Ls)
    ref = tensor.unvec(K @ tensor.vec(T), T.shape)
    assert np.max(np.abs(out - ref)) <= 1e-13


@pytest.mark.parametrize("dims", [(2, 3), (5, 6), (2, 3, 4), (6, 5, 6)])
def test_tucker_kronecker_duality_random_dims(dims):
    rng = np.random.RandomState(sum(dims))
    T = rng.randn(*dims)
    Ls = [rng.randn(n, n) for n in dims]
    out = tucker(T, Ls)
    ref = tensor.unvec(kron_assemble(Ls) @ tensor.vec(T), dims)
    assert np.max(np.abs(out - ref)) <= 1e-13


def test_mode_product_linearity():
    rng = np.random.RandomState(6)
    L = rng.randn(4, 4)
    T = rng.randn(4, 3, 2)
    S = rng.randn(4, 3, 2)
    left = tensor.mode_product(1, L, 2.5 * T + S)
    right = 2.5 * tensor.mode_product(1, L, T) + tensor.mode_product(1, L, S)
    assert np.max(np.abs(left - right)) <= 1e-13


def test_mode_product_composition():
    rng = np.random.RandomState(7)
    L, M = rng.randn(4, 4), rng.randn(4, 4)
    T = rng.randn(3, 4, 2)
    twice = tensor.mode_product(2, L, tensor.mode_product(2, M, T))
    once = tensor.mode_product(2, L @ M, T)
    assert np.max(np.abs(twice - once)) <= 1e-12


def test_mode_products_along_distinct_modes_commute():
    rng = np.random.RandomState(8)
    L1, L3 = rng.randn(3, 3), rng.randn(5, 5)
    T = rng.randn(3, 4, 5)
    a = tensor.mode_product(3, L3, tensor.mode_product(1, L1, T))
    b = tensor.mode_product(1, L1, tensor.mode_product(3, L3, T))
    assert np.max(np.abs(a - b)) <= 1e-13


def test_kron_assemble_identities_and_blocks():
    assert np.array_equal(kron_assemble([np.eye(2), np.eye(3)]), np.eye(6))
    rng = np.random.RandomState(10)
    A, B = rng.randn(2, 2), rng.randn(2, 2)
    K = kron_assemble([A, B])  # = B kron A
    assert np.allclose(K[:2, :2], B[0, 0] * A)


def test_kron_assemble_size_cap():
    with pytest.raises(ValueError):
        kron_assemble([np.eye(64), np.eye(65)])


def random_tridiagonal(n, rng, periodic):
    A = np.diag(rng.randn(n)) + np.diag(rng.randn(n - 1), 1) + np.diag(rng.randn(n - 1), -1)
    if periodic:
        A[0, -1], A[-1, 0] = rng.randn(2)
    return A


@pytest.mark.parametrize("dims", [(20, 9), (9, 20), (20, 6, 5), (5, 20, 6), (6, 5, 20)])
@pytest.mark.parametrize("periodic", [False, True])
def test_banded_mode_product_matches_dense_every_mode(dims, periodic):
    rng = np.random.RandomState(13)
    T = rng.randn(*dims)
    for mu in range(1, T.ndim + 1):
        n = dims[mu - 1]
        A = random_tridiagonal(n, rng, periodic)
        dense = tensor.mode_product(mu, A, T)
        for b in [b for b in range(2, n + 1) if n % b == 0]:
            # either block layout serves every mode
            for last_mode in (False, True):
                op = tensor.BlockBanded.from_dense(A, b, last_mode=last_mode)
                out = tensor.banded_mode_product(mu, op, T)
                assert out.flags.c_contiguous
                assert np.max(np.abs(out - dense)) <= 1e-13
                buf = np.empty(dims)
                into = tensor.banded_mode_product(mu, op, T, out=buf)
                assert np.shares_memory(into, buf) and np.array_equal(into, out)


def test_block_banded_rejects_bad_splits():
    A = random_tridiagonal(12, np.random.RandomState(14), periodic=False)
    with pytest.raises(ValueError):
        tensor.BlockBanded.from_dense(A, 5)
    with pytest.raises(ValueError):  # two entries outside the blocks in one row
        tensor.BlockBanded.from_dense(A, 1)
    far = A.copy()
    far[0, 8] = 1.0  # outside the blocks, but no link between neighbours
    with pytest.raises(ValueError):
        tensor.BlockBanded.from_dense(far, 4)
    op = tensor.BlockBanded.from_dense(A, 4)
    with pytest.raises(ValueError):
        tensor.banded_mode_product(1, op, np.zeros((8, 3)))


@pytest.mark.parametrize(
    "dims,b", [((7, 20, 6), 5), ((5, 12, 3), 4), ((4, 10, 2, 3), 5), ((3, 8, 4), 8)]
)
def test_banded_mode_product_with_one_block_per_row_equals_the_weighted_one(dims, b):
    # a periodic tridiagonal Toeplitz operator has k equal diagonal blocks,
    # so w_i A may be held as one block and one row of links per first-mode
    # row
    rng = np.random.RandomState(15)
    n = dims[1]
    A = sum(c * np.roll(np.eye(n), shift, axis=1) for c, shift in zip(rng.randn(3), (-1, 0, 1)))
    w = 0.5 + rng.rand(dims[0])
    op = tensor.BlockBanded.from_dense(A, b)
    assert np.all(op.blocks == op.blocks[0])
    rows = tensor.BlockBanded(
        w[:, None, None, None] * op.blocks[:1], w[:, None] * op.up, w[:, None] * op.down
    )
    assert rows.blocks.shape == (dims[0], 1, b, b) and rows.n == n
    assert rows.up.shape == rows.down.shape == (dims[0], n // b)
    T = rng.randn(*dims)
    ref = tensor.banded_mode_product(2, op, T) * w.reshape(-1, *[1] * (len(dims) - 1))
    got = tensor.banded_mode_product(2, rows, T)
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    buf = np.empty(dims)
    into = tensor.banded_mode_product(2, rows, T, out=buf)
    assert np.shares_memory(into, buf) and np.array_equal(into, got)


@pytest.mark.parametrize("shared_links", [True, False])
def test_blocks_per_leading_index_reject_other_modes(shared_links):
    # blocks per leading index fit mode 2 of three or more modes alone, and
    # only as many leading indices as they have
    op = tensor.BlockBanded.from_dense(random_tridiagonal(12, np.random.RandomState(16), False), 4)
    stacked = tensor.BlockBanded(
        np.stack([op.blocks] * 3),
        op.up if shared_links else np.stack([op.up] * 3),
        op.down if shared_links else np.stack([op.down] * 3),
    )
    T = np.random.RandomState(17).randn(3, 12, 2)
    got = tensor.banded_mode_product(2, stacked, T)
    assert np.array_equal(got, tensor.banded_mode_product(2, op, T))
    for mu, dims in [(1, (12, 3, 2)), (2, (3, 12)), (2, (4, 12, 2)), (3, (3, 2, 12))]:
        with pytest.raises(ValueError):
            tensor.banded_mode_product(mu, stacked, np.zeros(dims))


def block_tridiagonal_part(A, b):
    """A with every entry outside its block tridiagonal band of b x b
    blocks set to zero."""
    blocks = np.arange(A.shape[0]) // b
    return np.where(np.abs(blocks[:, None] - blocks[None, :]) <= 1, A, 0.0)


@pytest.mark.parametrize(
    "dims, mu, b",
    [
        # the band of one dense matrix for every leading index
        pytest.param((160, 160, 20), 1, 16, id="dims0-1-16"),
        pytest.param((160, 40), 1, 16, id="dims1-1-16"),
        pytest.param((30, 7), 1, 10, id="dims2-1-10"),
        pytest.param((3, 40, 5), 2, 8, id="dims3-2-8"),
        # the radial band of the 160 x 160 x 20 cylinder's coefficients
        pytest.param((20, 160, 160), 2, 16, id="coefficients-2-16"),
    ],
)
def test_windowed_mode_product_equals_a_gemm_with_the_truncated_matrix(dims, mu, b):
    # a band with its edges cut equals a GEMM with the truncated matrix
    rng = np.random.RandomState(16)
    T = rng.randn(*dims)
    before = T.copy()
    n = dims[mu - 1]
    A = rng.randn(n, n)
    op = tensor.BlockRows.from_dense(A, b)
    assert op.rows.shape == (1, n // b, b, 3 * b) and op.n == n
    ref = tensor.mode_product(mu, block_tridiagonal_part(A, b), T)
    out = tensor.windowed_mode_product(mu, op, T)
    assert out.flags.c_contiguous
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))
    buf = np.empty(dims)
    into = tensor.windowed_mode_product(mu, op, T, out=buf)
    assert into is buf and np.array_equal(buf, out)
    assert np.array_equal(T, before)


def assert_rejects_fields_of_another_order(op, mu, dims):
    with pytest.raises(ValueError) as info:
        tensor.windowed_mode_product(mu, op, np.zeros(dims))
    assert f"order {op.n}" in str(info.value) and str(dims) in str(info.value)


def test_block_tridiagonal_rejects_bad_splits():
    A = np.ones((12, 12))
    for b in (0, 5, 6, 12):  # no split, or fewer than three block rows
        with pytest.raises(ValueError):
            tensor.BlockRows.from_dense(A, b)
    cut = tensor.BlockRows.from_dense(A, 4)
    assert_rejects_fields_of_another_order(cut, 1, (8, 3))
    assert_rejects_fields_of_another_order(cut, 3, (12, 3))


@pytest.mark.parametrize("dims", [(4, 5, 3), (3, 1, 2), (5, 2, 3, 4)])
def test_sliced_mode_product_matches_per_slice_products(dims):
    rng = np.random.RandomState(15)
    T = rng.randn(*dims)
    n = dims[-1]
    stack = rng.randn(dims[0], n, n)
    ref = np.stack([tensor.mode_product(T.ndim - 1, L, X) for L, X in zip(stack, T)])
    # each matrix laid out transposed in memory, as prepare stores it
    transposed = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
    for S in (stack, transposed):
        out = tensor.sliced_mode_product(S, T)
        assert out.flags.c_contiguous
        assert np.max(np.abs(out - ref)) <= 1e-13
        buf = np.empty(dims)
        into = tensor.sliced_mode_product(S, T, out=buf)
        assert np.shares_memory(into, buf) and np.array_equal(into, out)
    with pytest.raises(ValueError):
        tensor.sliced_mode_product(stack[:-1], T)
    with pytest.raises(ValueError):
        tensor.sliced_mode_product(stack, T[..., :-1])


@pytest.mark.parametrize("n", [3, 4, 7, 16, 127, 128])
def test_fourier_mode_product_matches_fourier_eigenbasis_products(n):
    # eig_theta's real Fourier basis V holds frequency (j + 1) // 2 in column j
    fac = operators.eig_theta(operators.build_theta(n))
    freq = (np.arange(n) + 1) // 2
    rng = np.random.RandomState(n)
    for dims in [(n, 3), (3, n), (n, 3, 2), (3, n, 2), (3, 2, n)]:
        T = rng.randn(*dims)
        for mu in [m for m in range(1, T.ndim + 1) if dims[m - 1] == n]:
            # the symbol varies along the mode before (or after) mu, too
            shape = [1] * T.ndim
            shape[mu - 1] = n // 2 + 1
            other = mu - 2 if mu > 1 else mu
            shape[other] = dims[other]
            symbol = rng.rand(*shape)
            full = np.take(symbol, freq, axis=mu - 1)
            ref = tensor.mode_product(mu, fac.V, full * tensor.mode_product(mu, fac.V_inv, T))
            out = tensor.fourier_mode_product(mu, symbol, T)
            assert out.flags.c_contiguous
            half = list(dims)
            half[mu - 1] = n // 2 + 1
            buf, spectrum = np.empty(dims), np.empty(half, dtype=complex)
            into = tensor.fourier_mode_product(mu, symbol, T, out=buf, spectrum=spectrum)
            assert np.shares_memory(into, buf) and np.array_equal(into, out)
            assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
