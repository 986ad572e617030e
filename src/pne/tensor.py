"""Dense real tensor primitives: pairwise contraction, bipartitioned SVD,
basis columns, orthogonal complements and dominant-eigenvalue solving.

All tensors are plain ``numpy.ndarray`` objects of dtype float64 in row-major
layout. Complex arithmetic is out of scope; every routine coerces its input
to real doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TensorError",
    "AxisMismatchError",
    "EigenConvergenceError",
    "SvdResult",
    "DominantEig",
    "contract_pair",
    "svd",
    "svd_stack",
    "basis_columns",
    "orthogonal_complement",
    "dominant_eig",
]


class TensorError(ValueError):
    """Base error for tensor-level failures."""


class AxisMismatchError(TensorError):
    """Paired axes have incompatible extents."""


class EigenConvergenceError(TensorError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, msg: str, residual: float, iterations: int):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations


def asarray(a) -> np.ndarray:
    """Coerce to a float64 C-contiguous array (rank-0 inputs stay rank-0)."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 0:
        return arr
    return np.ascontiguousarray(arr)


def contract_pair(
    a: np.ndarray,
    b: np.ndarray,
    pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Contract tensors ``a`` and ``b`` over the given ``(axis_of_a, axis_of_b)``
    pairs.

    The result carries the unpaired axes of ``a`` first (in their original
    order) followed by the unpaired axes of ``b``.
    """
    a = asarray(a)
    b = asarray(b)
    ax_a = [p[0] for p in pairs]
    ax_b = [p[1] for p in pairs]
    if len(set(ax_a)) != len(ax_a) or len(set(ax_b)) != len(ax_b):
        raise AxisMismatchError(f"repeated axis in contraction pairs {list(pairs)}")
    for i, j in pairs:
        if a.shape[i] != b.shape[j]:
            raise AxisMismatchError(
                f"axis {i} of a (extent {a.shape[i]}) cannot be paired with "
                f"axis {j} of b (extent {b.shape[j]})"
            )
    if not pairs:
        return np.multiply.outer(a, b)
    return np.tensordot(a, b, axes=(ax_a, ax_b))


@dataclass(frozen=True)
class SvdResult:
    """SVD of a tensor matricized over an axis bipartition.

    ``u`` has shape ``row_dims + (k,)``, ``vh`` has shape ``(k,) + col_dims``
    with ``k = min(prod(row_dims), prod(col_dims))``. Singular values are
    descending and non-negative; each left singular vector is sign-fixed so
    that its largest-magnitude entry is positive.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    def u_matrix(self) -> np.ndarray:
        return self.u.reshape(-1, self.s.size)

    def vh_matrix(self) -> np.ndarray:
        return self.vh.reshape(self.s.size, -1)


def svd(
    a: np.ndarray,
    row_axes: Sequence[int] | None = None,
    col_axes: Sequence[int] | None = None,
) -> SvdResult:
    """SVD of ``a`` viewed as a matrix between ``row_axes`` and ``col_axes``.

    The bipartition must cover every axis exactly once. For a 2-d input the
    default bipartition is ``([0], [1])``.
    """
    a = asarray(a)
    if row_axes is None and col_axes is None:
        if a.ndim != 2:
            raise TensorError("svd of a non-matrix tensor requires an explicit axis bipartition")
        row_axes, col_axes = [0], [1]
    row_axes = list(row_axes)
    col_axes = list(col_axes)
    if sorted(row_axes + col_axes) != list(range(a.ndim)):
        raise TensorError(
            f"axis bipartition {row_axes}|{col_axes} does not cover all {a.ndim} axes exactly once"
        )
    m = a.transpose(row_axes + col_axes)
    row_dims = m.shape[: len(row_axes)]
    col_dims = m.shape[len(row_axes):]
    mat = m.reshape(math.prod(row_dims), -1)
    u, s, vh = svd_stack(mat[None])
    k = s.shape[-1]
    return SvdResult(u=u.reshape(row_dims + (k,)), s=s.reshape(k), vh=vh.reshape((k,) + col_dims))


def svd_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVDs ``u, s, vh`` of a stack of matrices ``(N, M, K)``.

    NumPy runs one LAPACK ``gesdd`` per matrix, so each item has the bits of
    its own ``np.linalg.svd`` call. Every left singular vector is then
    sign-fixed: its largest-magnitude entry (the first, on ties) is made
    positive, and the matching row of ``vh`` is negated with it; negation is
    exact, as in a per-column loop.
    """
    try:
        u, s, vh = np.linalg.svd(mats, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise TensorError(f"SVD failed to converge for a {mats.shape[-2:]} matrix") from exc
    n, (m, k) = math.prod(u.shape[:-2]), u.shape[-2:]
    cols, rows = u.reshape(n, m, k), vh.reshape(n, k, vh.shape[-1])
    flip = cols[np.arange(n)[:, None], np.abs(cols).argmax(axis=1), np.arange(k)] < 0
    np.negative(cols, out=cols, where=flip[:, None, :])
    np.negative(rows, out=rows, where=flip[:, :, None])
    return cols.reshape(u.shape), s, rows.reshape(vh.shape)


def basis_columns(dim: int, rank: int) -> np.ndarray:
    """The ``(dim, rank)`` isometry of the first ``rank`` basis vectors: the
    projector factor on an edge whose gauge puts the dominant subspace first."""
    iso = np.zeros((dim, rank))
    iso[:rank, :rank] = np.eye(rank)
    return iso


def orthogonal_complement(row: np.ndarray) -> np.ndarray:
    """Rows spanning the subspace orthogonal to ``row``.

    Returns a ``(d-1, d)`` matrix ``R`` with orthonormal rows satisfying
    ``R @ row = 0``, built from the subleading right singular vectors of the
    full-matrices SVD of ``row`` viewed as a 1 x d matrix.
    """
    row = asarray(row).reshape(-1)
    d = row.size
    nrm = np.linalg.norm(row)
    if nrm == 0.0:
        raise TensorError("cannot build the orthogonal complement of a zero vector")
    _, _, vh = np.linalg.svd(row.reshape(1, d), full_matrices=True)
    return np.ascontiguousarray(vh[1:, :])


@dataclass(frozen=True)
class DominantEig:
    """Result of power iteration.

    ``degenerate`` is set (and ``value`` holds the common magnitude) when the
    iteration locks into a period-2 cycle, the signature of a dominant
    ``+lambda/-lambda`` pair. Downstream consumers that assume a simple
    dominant eigenvalue must check this flag.
    """

    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    degenerate: bool = False


def near_uniform(n: int) -> np.ndarray:
    """Ones, tilted at entries 0 and 1 so symmetric operators do not trap
    power iteration in an orthogonal subspace: dominant_eig's default start."""
    v = np.ones(n)
    v[0] += 0.1
    v[1:2] -= 0.05
    return v


def dominant_eig(
    apply: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-12,
    max_iter: int = 10000,
    start: np.ndarray | None = None,
) -> DominantEig:
    """Largest-magnitude eigenvalue of a linear operator given as a mat-vec.

    Plain power iteration with per-step normalization from :func:`near_uniform`
    or a finite nonzero ``start`` of length ``n``; a start orthogonal to the
    dominant vector converges to another eigenvalue. Each step takes the
    norms of ``w - prev`` and ``w + prev`` once, for both the degenerate-pair
    test and the residual. An ``apply`` output with a non-finite norm raises
    :class:`EigenConvergenceError` at once, naming the iteration.
    """
    if n < 1:
        raise TensorError("operator dimension must be at least 1")
    if not tol > 0:
        raise TensorError(f"tol must be positive, not {tol!r}")
    if max_iter < 1:
        raise TensorError(f"max_iter must be at least 1, not {max_iter!r}")
    v = near_uniform(n) if start is None else np.array(start, dtype=np.float64)
    if v.shape != (n,) or not np.isfinite(v).all() or not v.any():
        raise TensorError(f"start must be a finite nonzero vector of shape ({n},)")
    v /= np.linalg.norm(v)
    sqrt_tol = np.sqrt(tol)
    prev = None
    prev2 = None
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = apply(v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return DominantEig(value=0.0, vector=v, iterations=it, residual=0.0)
        if not math.isfinite(nrm):
            raise EigenConvergenceError(
                f"power iteration produced a vector of norm {nrm} at iteration {it}",
                residual=float(residual),
                iterations=it,
            )
        w = w / nrm
        if prev is not None:
            minus = np.linalg.norm(w - prev)
            residual = min(minus, np.linalg.norm(w + prev))
            if prev2 is not None and residual > sqrt_tol and np.linalg.norm(w - prev2) < tol:
                # Period-2 cycle that is no sign flip: degenerate +/- pair;
                # nrm estimates |lambda|.
                return DominantEig(value=nrm, vector=w, iterations=it, residual=minus, degenerate=True)
            if residual < tol:
                lam = float(w @ apply(w))
                return DominantEig(value=lam, vector=w, iterations=it, residual=residual)
        prev2 = prev
        prev = w
        v = w
    raise EigenConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=float(residual),
        iterations=max_iter,
    )
