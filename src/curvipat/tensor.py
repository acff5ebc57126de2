"""Order-1/2/3 tensor kernels: dense, block-banded, windowed (block
tridiagonal bands, edges cut), real-Fourier and per-slice mu-mode
products, and vec/unvec.

The wide kernels make no field-size temporary: a block-banded product adds
the links between its diagonal blocks through views of the field, a
windowed product multiplies its block rows with overlapping windows of the
field, and a real-Fourier product transforms into a spectrum that the
caller may lend.

Fields are plain ``numpy.ndarray`` objects.  The linearization convention is
first-index-fastest: element (i, j, k) of a field with dims (n1, n2, n3)
sits at flat position i + j*n1 + k*n1*n2 (0-based), i.e. ``order='F'`` in
numpy terms.  Mode products are 1-based: mode 1 acts on columns, mode 2 on
rows, mode 3 on tubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def vec(field: np.ndarray) -> np.ndarray:
    """Flatten a field with the first index fastest."""
    return np.asarray(field).reshape(-1, order="F")


def unvec(w: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`vec` for the given dims."""
    w = np.asarray(w)
    if w.size != int(np.prod(dims)):
        raise ValueError(f"cannot reshape {w.size} values into dims {dims}")
    return w.reshape(dims, order="F")


def mode_product(
    mu: int, L: np.ndarray, field: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Multiply the square matrix L along mode ``mu`` of the field.

    mode_product(1, L, T)[i, j, k] = sum_m L[i, m] T[m, j, k], and
    analogously along the other modes.  Realized as GEMMs on the C-order
    unfolding (one for the first and the last mode, one per leading index
    for a middle mode), so the result is always C-contiguous.  The result is
    written into ``out`` (C-contiguous, of the field's shape, not overlapping
    it) when given, else into a new array.
    """
    L = np.asarray(L)
    field = np.asarray(field)
    if not 1 <= mu <= field.ndim:
        raise ValueError(f"mode {mu} out of range for order-{field.ndim} field")
    axis = mu - 1
    n = field.shape[axis]
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[1] != n:
        raise ValueError(
            f"matrix of shape {L.shape} does not fit mode {mu} of field "
            f"with dims {field.shape}"
        )
    if axis == 0:
        X = field.reshape(n, -1)
        a, b = L, X
    elif axis == field.ndim - 1:
        X = field.reshape(-1, n)
        a, b = X, L.T
    else:
        X = field.reshape(-1, n, math.prod(field.shape[mu:]))
        a, b = L, X
    # the product has the shape of the unfolding it multiplies
    dst = None if out is None else out.reshape(X.shape)
    return np.matmul(a, b, out=dst).reshape(field.shape)


@dataclass(frozen=True)
class BlockBanded:
    """A square matrix of order n = k b (b >= 2) held as its k diagonal
    b x b blocks plus the links between neighbouring blocks.

    ``up[i]`` is the entry in the last row of block i and the first column
    of block i + 1, ``down[i]`` the mirror entry, in the first row of block
    i + 1 and the last column of block i.  The last link of each wraps
    round: ``up[-1]`` and ``down[-1]`` are the corners of a circulant
    matrix (zero for a plain tridiagonal one, and for k = 1, where the
    corners lie in the one block).

    For a product along mode 2 that is not the last, the matrix may
    instead differ per leading index l of the unfolding (pre, n, post): then
    ``blocks`` is a (pre, k, b, b) stack, or (pre, 1, b, b) when the k
    diagonal blocks of each matrix are equal, and ``up`` and ``down`` are
    shared, (k,), or one row per leading index, (pre, k).
    """

    blocks: np.ndarray
    up: np.ndarray
    down: np.ndarray

    @classmethod
    def from_dense(cls, A: np.ndarray, b: int, last_mode: bool = False) -> "BlockBanded":
        """Split A into b x b diagonal blocks and the links between them;
        any other entry outside the blocks is an error.  With ``last_mode``
        each block is laid out transposed in memory (same values), so that
        the last-mode product reads it as a contiguous right factor."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n) or b < 2 or n % b:
            raise ValueError(f"cannot split a matrix of shape {A.shape} into {b}x{b} blocks")
        k = n // b
        diag = np.arange(k)
        after = (diag + 1) % k
        grid = A.reshape(k, b, k, b)
        blocks = grid[diag, :, diag, :]
        if last_mode:
            blocks = np.ascontiguousarray(blocks.transpose(0, 2, 1)).transpose(0, 2, 1)
        if k == 1:
            up = down = np.zeros(1)
        else:
            up, down = grid[diag, -1, after, 0], grid[after, 0, diag, -1]
        outside = grid.copy()
        outside[diag, :, diag, :] = 0.0
        outside[diag, -1, after, 0] = outside[after, 0, diag, -1] = 0.0
        if np.any(outside):
            raise ValueError("an entry outside the diagonal blocks links no neighbours")
        return cls(blocks, up, down)

    @property
    def n(self) -> int:
        return self.up.shape[-1] * self.blocks.shape[-1]

    @cached_property
    def wraps(self) -> bool:
        """Whether a last link, a periodic corner, is nonzero (any row's)."""
        return bool(np.any(self.up[..., -1]) or np.any(self.down[..., -1]))

    @cached_property
    def gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzero links, built on first
        use.  Along the last mode the links are strided columns of the
        unfolding, and one indexed add of them beat the adds through views
        (0.02-0.03 against 0.04-0.05 ms on a 160 x 160 disk's angle)."""
        ends = np.arange(self.blocks.shape[1] - 1, self.n, self.blocks.shape[1])
        starts = (ends + 1) % self.n
        rows, cols = np.r_[ends, starts], np.r_[starts, ends]
        vals = np.r_[self.up, self.down]
        keep = vals != 0
        return rows[keep], cols[keep], vals[keep]


def banded_mode_product(
    mu: int, op: BlockBanded, field: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """:func:`mode_product` with a :class:`BlockBanded` matrix, into ``out``
    as there.

    One batched GEMM multiplies the diagonal blocks, then the links between
    blocks are added, each output row taking at most one.  Off the last
    mode the blocks multiply the C-order unfolding (pre, k, b, post) from
    the left, and the links are added through views of it.  Along the last
    mode the batch runs over a transposed view (k, pre, b) of the field,
    and each (pre x b) slab is multiplied from the right by its block's
    transpose: k GEMMs with long rows, where one (pre x n) @ (n x n) GEMM
    would spend most of its flops on zeros; there the links are added by
    one indexed add (:attr:`BlockBanded.gather`).  A stack of blocks per
    leading index, for mode 2 of three or more, broadcasts as its shape
    says.
    """
    field = np.asarray(field)
    pre = math.prod(field.shape[: mu - 1])
    post = math.prod(field.shape[mu:])
    rows = op.blocks.ndim == 4
    if (
        not 1 <= mu <= field.ndim
        or field.shape[mu - 1] != op.n
        or rows and (mu != 2 or post == 1 or op.blocks.shape[0] != pre)
    ):
        raise ValueError(
            f"block-banded matrix of order {op.n} does not fit mode {mu} of "
            f"field with dims {field.shape}"
        )
    k, b = op.up.shape[-1], op.blocks.shape[-1]
    res = np.empty(field.shape) if out is None else out
    if post == 1:
        slabs = (pre, k, b)
        np.matmul(
            field.reshape(slabs).transpose(1, 0, 2),
            op.blocks.transpose(0, 2, 1),
            out=res.reshape(slabs).transpose(1, 0, 2),
        )
        rows, cols, vals = op.gather
        res.reshape(pre, op.n)[:, rows] += vals * field.reshape(pre, op.n)[:, cols]
        return res
    blocked = (pre, k, b, post)
    X, R = field.reshape(blocked), res.reshape(blocked)
    np.matmul(op.blocks, X, out=R)
    up, down = op.up[..., None], op.down[..., None]
    R[:, :-1, -1] += up[..., :-1, :] * X[:, 1:, 0]
    R[:, 1:, 0] += down[..., :-1, :] * X[:, :-1, -1]
    if op.wraps:
        R[:, -1, -1] += up[..., -1, :] * X[:, 0, 0]
        R[:, 0, 0] += down[..., -1, :] * X[:, -1, -1]
    return res


def sliced_mode_product(
    stack: np.ndarray, field: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Multiply along the last mode by a different square matrix on each
    slice of the first: result[i, ..., :] = stack[i] @ field[i, ..., :].

    ``stack`` has shape (n_1, n_d, n_d).  One broadcasting GEMM over the
    unfolding (n_1, middle, n_d) multiplies each slice from the right by
    ``stack[i]`` transposed; that factor is read contiguously when each
    matrix of the stack is laid out transposed in memory.  The result goes
    into ``out`` as in :func:`mode_product`.
    """
    field = np.asarray(field)
    n1, nd = field.shape[0], field.shape[-1]
    if field.ndim < 2 or stack.shape != (n1, nd, nd):
        raise ValueError(
            f"matrix stack of shape {stack.shape} does not fit the first and "
            f"last mode of field with dims {field.shape}"
        )
    slices = (n1, -1, nd)
    dst = None if out is None else out.reshape(slices)
    return np.matmul(
        field.reshape(slices), stack.transpose(0, 2, 1), out=dst
    ).reshape(field.shape)


def fourier_mode_product(
    mu: int,
    symbol: np.ndarray,
    field: np.ndarray,
    out: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Apply along mode ``mu`` the real symmetric circulant matrices whose
    eigenvalue at frequency k (k = 0 .. n/2) is ``symbol[..., k, ...]``:
    irfft(symbol * rfft(field)).

    ``symbol`` has n//2 + 1 entries along mode ``mu`` and broadcasts
    against the field along the others, so the circulant may vary with the
    other indices.  The result goes into ``out`` as in :func:`mode_product`,
    and the complex spectrum into ``spectrum`` when given: the field's shape
    with n//2 + 1 along mode ``mu``.
    """
    field = np.asarray(field)
    axis = mu - 1
    n = field.shape[axis]
    if symbol.ndim != field.ndim or symbol.shape[axis] != n // 2 + 1:
        raise ValueError(
            f"symbol of shape {symbol.shape} does not fit mode {mu} of field "
            f"with dims {field.shape}"
        )
    spectrum = np.fft.rfft(field, axis=axis, out=spectrum)
    spectrum *= symbol
    return np.fft.irfft(spectrum, n, axis=axis, out=out)


@dataclass(frozen=True)
class BlockRows:
    """The block tridiagonal band of square matrices of order n = k b, in
    b x b blocks, held by block rows: ``rows[l, i]`` is block row i over
    block columns i - 1 .. i + 1 (b x 3b) of matrix l, in a (p, k, b, 3b)
    stack, p = 1 for one matrix for every leading index of the unfolding
    (pre, n, post), or one per leading index.  The block columns beyond
    the edges are cut off and their entries never read; every entry
    outside the band is dropped."""

    rows: np.ndarray
    n: int

    @classmethod
    def from_dense(cls, A: np.ndarray, b: int) -> "BlockRows":
        """The block tridiagonal part of A, in b x b blocks, edges cut."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n) or b < 1 or n % b or n // b < 3:
            raise ValueError(
                f"cannot split a matrix of shape {A.shape} into at least 3 x 3 "
                f"blocks of {b}x{b}"
            )
        padded = np.zeros((n, n + 2 * b))
        padded[:, b:-b] = A
        rows = [padded[i * b : (i + 1) * b, i * b : (i + 3) * b] for i in range(n // b)]
        return cls(np.stack(rows)[None], n)


def windowed_mode_product(
    mu: int, op: BlockRows, field: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """:func:`mode_product` with a :class:`BlockRows` band, into ``out`` as
    there.

    Each inner block row multiplies the window of 3 b rows of the unfolding
    (pre, n, post) that its blocks meet; the windows overlap, and are read
    as one strided view of the field, so one batched GEMM covers rows b ..
    n - b.  Two more GEMMs give the edge block rows.  Meant for modes
    before the last, where ``post`` makes the rows of each GEMM long.
    """
    field = np.asarray(field)
    pre = math.prod(field.shape[: mu - 1])
    post = math.prod(field.shape[mu:])
    if not 1 <= mu <= field.ndim or field.shape[mu - 1] != op.n or len(op.rows) not in (1, pre):
        raise ValueError(
            f"block rows of order {op.n}, {len(op.rows)} matrices, do not fit mode {mu} of "
            f"field with dims {field.shape}"
        )
    n, b, L = op.n, op.rows.shape[2], op.rows
    res = np.empty(field.shape) if out is None else out
    X, R = field.reshape(pre, n, post), res.reshape(pre, n, post)
    windows = np.lib.stride_tricks.sliding_window_view(X, 3 * b, axis=1)[:, ::b]
    inner = R.reshape(pre, n // b, b, post)[:, 1:-1]
    np.matmul(L[:, 1:-1], windows.transpose(0, 1, 3, 2), out=inner)
    np.matmul(L[:, 0, :, b:], X[:, : 2 * b], out=R[:, :b])
    np.matmul(L[:, -1, :, : 2 * b], X[:, -2 * b :], out=R[:, -b:])
    return res

