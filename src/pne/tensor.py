"""Dense real tensor primitives: bipartitioned SVD, basis columns,
orthogonal complements and dominant eigenvalues of mat-vec operators
(explicitly restarted Arnoldi, :func:`dominant_eig`).

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
    "EigenConvergenceError",
    "SvdResult",
    "DominantEig",
    "svd",
    "svd_stack",
    "basis_columns",
    "orthogonal_complement",
    "dominant_eig",
]


class TensorError(ValueError):
    """Base error for tensor-level failures."""


class EigenConvergenceError(TensorError):
    """The dominant eigenvalue was not found: no convergence within the
    mat-vec budget, a non-finite mat-vec output or a complex leading pair."""

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


KRYLOV_DIM = 20     # Arnoldi basis size: dominant_eig restarts after this many mat-vecs


@dataclass(frozen=True)
class DominantEig:
    """Leading Ritz pair of a restarted Arnoldi run.

    ``iterations`` counts mat-vecs. ``residual`` is the Ritz residual
    ``|A x - value x| / |value|`` read off the Hessenberg matrix, 0 once the
    Krylov space is invariant. ``degenerate`` is set, and ``value`` holds the
    common magnitude, when the two leading Ritz values are ``+lambda`` and
    ``-lambda`` to within ``sqrt(tol)``, the signature of a dominant ``+/-``
    pair. Downstream consumers that assume a simple dominant eigenvalue must
    check this flag.
    """

    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    degenerate: bool = False


def near_uniform(n: int) -> np.ndarray:
    """Ones, tilted at entries 0 and 1 so symmetric operators do not trap
    the Krylov space in an orthogonal subspace: dominant_eig's default start."""
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
    """Largest-magnitude eigenvalue of a real linear operator given as a mat-vec.

    Explicitly restarted Arnoldi from :func:`near_uniform` or a finite
    nonzero ``start`` of length ``n``: each mat-vec output is orthogonalized
    against the basis by Gram-Schmidt with one reorthogonalization pass, and
    the leading Ritz pair of the Hessenberg matrix is checked after every
    mat-vec. The run stops at the first Ritz residual below ``tol``, or when
    the Krylov space is invariant; after KRYLOV_DIM mat-vecs without either
    it restarts from the Ritz vector, whose largest-magnitude entry is made
    positive. A start inside an invariant subspace finds that subspace's
    leading eigenvalue, and a zero operator returns 0. A complex leading pair
    raises :class:`EigenConvergenceError` naming it, as does an ``apply``
    output with a non-finite norm (at the mat-vec that made it) and a run
    that has not converged after ``max_iter`` mat-vecs.
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
    dim = min(KRYLOV_DIM, n)
    basis = np.empty((dim, n))
    hess = np.zeros((dim + 1, dim))
    basis[0] = v / np.linalg.norm(v)
    residual = np.inf
    j = 0                   # the basis vector applied next
    for it in range(1, max_iter + 1):
        w = apply(basis[j])
        nrm = np.linalg.norm(w)
        if not math.isfinite(nrm):
            raise EigenConvergenceError(
                f"Arnoldi produced a vector of norm {nrm} at iteration {it}",
                residual=float(residual),
                iterations=it,
            )
        q = basis[: j + 1]
        h = q @ w
        w = w - h @ q
        again = q @ w
        w -= again @ q
        hess[: j + 1, j] = h + again
        beta = hess[j + 1, j] = np.linalg.norm(w)
        vals, vecs = np.linalg.eig(hess[: j + 1, : j + 1])
        order = np.argsort(-np.abs(vals), kind="stable")
        theta, y = vals[order[0]], vecs[:, order[0]]
        invariant = j + 1 == n or beta <= 4 * np.finfo(float).eps * nrm
        if invariant:
            residual = 0.0
        else:
            residual = beta * abs(y[-1]) / abs(theta) if theta else np.inf
        if theta.imag and (invariant or residual < tol):
            raise EigenConvergenceError(
                f"the leading eigenvalues are a complex pair {theta.real:.6g} +/- "
                f"{abs(theta.imag):.6g}i (after {it} mat-vecs)",
                residual=float(residual),
                iterations=it,
            )
        x = (y @ q).real
        if invariant or residual < tol:
            break
        if j + 1 < dim:
            basis[j + 1] = w / beta
            j += 1
        else:               # restart from the Ritz vector
            basis[0] = x / np.linalg.norm(x)
            j = 0
    else:
        raise EigenConvergenceError(
            f"Arnoldi did not converge in {max_iter} mat-vecs (last residual {residual:.3e})",
            residual=float(residual),
            iterations=max_iter,
        )
    x /= np.linalg.norm(x)
    if x[np.abs(x).argmax()] < 0:
        x = -x
    theta = float(theta.real)
    degenerate = False
    if j and theta:
        second = vals[order[1]]
        degenerate = not second.imag and abs(theta + second.real) <= math.sqrt(tol) * abs(theta)
    return DominantEig(value=abs(theta) if degenerate else theta, vector=x, iterations=it,
                       residual=float(residual), degenerate=bool(degenerate))
