"""Free-energy density of infinite translation-invariant square-lattice
networks via strip expansions.

The lattice is partitioned into width-L strips along one or both axes.
``free_energy`` sums one inclusion-exclusion loop over activation patterns,
the sets of active vertical and horizontal strips; each term reduces to a
product of strip transfer-matrix eigenvalues (one axis active) or of finite
capped patches (both axes active), both from the e0-capped strip row
transfer operator T_k: leading eigenvalues by Krylov from the BP vacuum
e0^{(x)k} (restarted Arnoldi, :func:`pne.tensor.dominant_eig`), a k-column
by p-row patch as the moment e0^{(x)k}' T_k^p e0^{(x)k}.
The strip and cylinder transfer operators share one row kernel, compiled
once per unit and width into a program of transpose, reshape and ``np.dot``
steps that has the bits of a ``np.tensordot`` loop; a :class:`StripContext`
caches its compiled strip operators by axis and width.
All quantities are computed in the symmetrized uniform gauge, where every
boundary cap is the first basis vector, and with the unit tensor normalized
by its single-site capped scalar so the logarithms stay well conditioned.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pne.models import UniformBP, symmetrize_uniform, uniform_fixed_point
from pne.network import NetworkError
from pne.tensor import dominant_eig, near_uniform

__all__ = [
    "InfiniteError",
    "StripContext",
    "prepare_strips",
    "transfer_eigs",
    "patch_scalar",
    "FreeEnergyResult",
    "free_energy",
    "cylinder_baseline",
]


class InfiniteError(NetworkError):
    pass


VACUUM_START_MIX = 1e-6    # weight of near_uniform in transfer_eigs' start vectors


@dataclass
class StripContext:
    """Symmetrized, site-normalized unit tensor plus cached strip data.

    ``log_site_scale`` restores absolute free energies:
    f(original unit) = f(normalized unit) - log_site_scale. ``source`` is
    the unit the context was prepared from, which :func:`free_energy` checks.
    """

    unit: np.ndarray                   # gauged and normalized, axes (u-, u+, l-, l+)
    log_site_scale: float
    source: np.ndarray | None = field(default=None, repr=False)
    lambdas: dict[tuple, float] = field(default_factory=dict)   # axis-0 strip eigenvalues
    gammas: dict[tuple, float] = field(default_factory=dict)    # axis-1 strip eigenvalues
    patches: dict[tuple[int, int], float] = field(default_factory=dict)
    # compiled strip operators by (axis, k), shared by transfer_eigs and patch_scalar
    operators: dict[tuple[int, int], Callable] = field(default_factory=dict, repr=False)

    def e0(self, k: int = 1) -> np.ndarray:    # e0^{(x)k}, flattened
        v = np.zeros(self.unit.shape[0] ** k)
        v[0] = 1.0
        return v


def prepare_strips(unit: np.ndarray, ubp: UniformBP | None = None, **bp_kwargs) -> StripContext:
    """Gauge and normalize a uniform 2D unit tensor for strip expansions."""
    unit = np.asarray(unit, dtype=np.float64)
    if unit.ndim != 4:
        raise InfiniteError("strip expansions need a 4-leg uniform unit tensor")
    if ubp is None:
        ubp = uniform_fixed_point(unit, **bp_kwargs)
    if not ubp.converged:
        raise InfiniteError(f"uniform message passing did not converge on this unit in {ubp.iterations} "
                            f"sweeps (last residual {ubp.residual:.2e})")
    gauged, _ = symmetrize_uniform(unit, ubp)
    site = float(gauged[0, 0, 0, 0])
    if site <= 0:
        raise InfiniteError(f"single-site capped scalar is {site:.3e}; cannot normalize logs")
    return StripContext(unit=gauged / site, log_site_scale=math.log(site), source=unit)


def _row_program(first: np.ndarray, unit: np.ndarray, k: int) -> tuple[list[tuple], tuple]:
    """Compile one row of k units, ``first`` leading, applied to the state on
    k vertical bonds.

    Unit axes are (up, down, left, right); ``first`` is a unit with or
    without its left leg. Bond j of the state and the running right leg are
    contracted with unit j's up and left legs, one unit at a time. Each step
    is ``(shape, perm, matrix, right)``: the previous ``np.dot`` output (at
    the first step, the state) is viewed with ``shape``, transposed by
    ``perm``, reshaped to ``matrix`` and multiplied by ``right``. These are ``np.tensordot``'s
    own operations, with its transpose composed with the ``np.moveaxis``
    that put the new down leg in place, so the arrays, shapes and strides
    that reach ``np.dot`` are those of a tensordot loop and every value has
    its bits. Also returns the ``(shape, perm)`` view of the last output
    with axes (down_0 .. down_{k-1}, open left leg of ``first`` if any,
    right leg of the last unit)."""
    dims = {"s": unit.shape[0], "d": unit.shape[1], "l": unit.shape[2], "h": unit.shape[3]}
    extra = [("l", 0)] if first.ndim == 4 else []

    def view(raw, order):     # raw: (kind, index) leg labels of a dot output, in memory order
        return tuple(dims[x] for x, _ in raw), tuple(raw.index(leg) for leg in order)

    state = [("s", i) for i in range(k)]
    steps = [(*view(state, state[1:] + state[:1]), (dims["s"] ** (k - 1), dims["s"]),
              first.reshape(dims["s"], -1))]
    raw = state[1:] + [("d", 0)] + extra + [("h", 0)]
    bond = unit.transpose(0, 2, 1, 3).reshape(dims["s"] * dims["l"], -1)   # (u, l) x (d, r)
    for j in range(1, k):
        # the row so far, axes (d_0 .. d_{j-1}, s_j .., [l], h): contract (s_j, h) with (u, l)
        rows = [("d", i) for i in range(j)] + state[j + 1:] + extra
        steps.append((*view(raw, rows + [("s", j), ("h", 0)]),
                      (math.prod(dims[x] for x, _ in rows), dims["s"] * dims["h"]), bond))
        raw = rows + [("d", j), ("h", 0)]
    return steps, view(raw, [("d", i) for i in range(k)] + extra + [("h", 0)])


def _run(steps: list[tuple], v: np.ndarray) -> np.ndarray:
    for shape, perm, matrix, right in steps:
        v = np.dot(v.reshape(shape).transpose(perm).reshape(matrix), right)
    return v


def _strip_operator(unit: np.ndarray, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """One row of a width-k strip, as a map of the state on k vertical bonds.

    The transverse boundary bonds are capped with e0 on both sides (the
    partition projectors in the symmetrized gauge): the left cap is folded
    into the first unit, and the right cap is one more program step, the
    ``np.dot`` a tensordot with e0 would run."""
    e0 = np.zeros(unit.shape[2])
    e0[0] = 1.0
    first = np.tensordot(unit, e0, axes=([2], [0]))
    steps, (shape, perm) = _row_program(first, unit, k)
    steps.append((shape, perm, (math.prod(shape) // e0.size, e0.size), e0.reshape(-1, 1)))
    return lambda v: _run(steps, v).reshape(-1)


def _operator(ctx: StripContext, axis: int, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The width-k strip operator along ``axis``, compiled once per context."""
    apply = ctx.operators.get((axis, k))
    if apply is None:
        unit = ctx.unit if axis == 0 else ctx.unit.transpose(2, 3, 0, 1)
        apply = ctx.operators[axis, k] = _strip_operator(unit, k)
    return apply


def _leading(apply, n: int, what: str, **eig_kwargs) -> float:
    """Dominant eigenvalue of ``what``; a degenerate +/- pair raises, as
    every strip and cylinder formula assumes a simple leading eigenvalue."""
    res = dominant_eig(apply, n, **eig_kwargs)
    if res.degenerate:
        raise InfiniteError(f"{what} has a degenerate +/- leading pair (|lambda| = {res.value:.6g})")
    return float(res.value)


def transfer_eigs(
    ctx: StripContext,
    widths,
    axis: int = 0,
    tol: float = 1e-12,
    max_iter: int = 20000,
) -> dict[int, float]:
    """Leading eigenvalue of the width-k strip transfer operator for each k.

    ``axis=0`` advances along rows (vertical strips, one value per row of k
    sites); ``axis=1`` along columns. Krylov from the BP vacuum: the Arnoldi
    run of :func:`pne.tensor.dominant_eig` starts from e0^{(x)k} plus
    VACUUM_START_MIX near_uniform (in case the vacuum spans an invariant
    subspace without the dominant vector); a degenerate leading pair raises.
    ``ctx`` caches the values by width, ``tol`` and ``max_iter``.
    """
    if axis not in (0, 1):
        raise InfiniteError(f"strip axis must be 0 or 1, not {axis!r}")
    ks = sorted({int(w) for w in widths})
    if min(ks, default=1) < 1:
        raise InfiniteError(f"strip widths must be at least 1, got {ks[0]}")
    cache = ctx.lambdas if axis == 0 else ctx.gammas
    for k in ks:
        if (k, tol, max_iter) not in cache:
            # the state lives on k up legs (axis 0) or k left legs (axis 1)
            start = VACUUM_START_MIX * near_uniform(ctx.unit.shape[2 * axis] ** k)
            start[0] += 1.0                # the BP vacuum e0^{(x)k}
            cache[k, tol, max_iter] = _leading(_operator(ctx, axis, k), start.size,
                                               f"width-{k} transfer operator", tol=tol,
                                               max_iter=max_iter, start=start)
    return {k: cache[k, tol, max_iter] for k in ks}


def patch_scalar(ctx: StripContext, k: int, p: int) -> float:
    """Scalar of the k-column by p-row capped patch of the normalized unit:
    the e0 moment e0^{(x)k}' T_k^p e0^{(x)k} of the axis-0 strip operator,
    p rows applied to the BP vacuum, read at entry 0 (lower p cached too)."""
    k, p = int(k), int(p)
    if k < 1 or p < 1:
        raise InfiniteError(f"a capped patch needs k, p >= 1, got ({k}, {p})")
    if (k, p) not in ctx.patches:
        apply = _operator(ctx, 0, k)
        v = ctx.e0(k)
        for q in range(1, p + 1):
            v = apply(v)
            ctx.patches[k, q] = float(v[0])
    return ctx.patches[k, p]


def _cyclic_gaps(offsets: tuple[int, ...], width: int) -> tuple[int, ...]:
    s = sorted(offsets)
    return tuple((s[(i + 1) % len(s)] - s[i]) % width or width for i in range(len(s)))


@dataclass(frozen=True)
class _Patterns:
    """free_energy's activation patterns for one ``(width, axes, mode)``."""

    rows: tuple[tuple[str, int, tuple], ...]     # (description, sign, gap key), in pattern order
    keys: tuple[tuple[tuple, tuple[tuple[int, int], ...]], ...]   # distinct gap keys, (w, h) patches
    vwidths: frozenset[int]                      # axis-0 strip widths the keys need
    hwidths: frozenset[int]                      # axis-1 strip widths


@functools.lru_cache(maxsize=32)
def _pattern_table(width: int, axes: str, mode: str) -> _Patterns:
    # every subset of the strip offsets, by size, then in combinations order
    subsets = [s for n in range(width + 1) for s in itertools.combinations(range(width), n)]
    vsets = [(0,)] if mode == "single" else subsets
    hsets = subsets if axes == "vh" else [()]
    gaps = {s: _cyclic_gaps(s, width) for s in subsets}
    rows, keys = [], {}
    for sv, sh in itertools.product(vsets, hsets):
        if not (sv or sh):
            continue
        gv, gh = gaps[sv], gaps[sh]
        keys.setdefault((gv, gh), tuple((w, h) for w in gv for h in gh))
        desc = f"v{sv} x h{sh}" if sv and sh else (f"v{sv}" if sv else f"h{sh}")
        rows.append((desc, 1 if (len(sv) + len(sh)) % 2 == 1 else -1, (gv, gh)))
    return _Patterns(rows=tuple(rows), keys=tuple(keys.items()),
                     vwidths=frozenset(w for s in vsets for w in gaps[s]),
                     hwidths=frozenset(w for s in hsets for w in gaps[s]))


@dataclass(frozen=True)
class FreeEnergyResult:
    value: float                     # free energy density, f = -lim log(Z_N)/N
    width: int
    axes: str                        # "v" or "vh"
    mode: str                        # "single" or "all"
    terms: tuple[tuple[str, int, float], ...]   # (description, sign, value per supercell)
    argument: float                  # the signed sum fed to the log


def free_energy(
    unit: np.ndarray,
    width: int,
    axes: str = "vh",
    mode: str = "all",
    ctx: StripContext | None = None,
    **bp_kwargs,
) -> FreeEnergyResult:
    """Strip-expansion estimate of the free energy density.

    The sum runs over activation patterns ``(sv, sh)``: the offsets of the
    active vertical and of the active horizontal width-``width`` strips,
    not both empty, each with sign (-1)**(|sv| + |sh| + 1). ``mode="all"``
    lets ``sv`` range over every subset of the offsets, and ``sh`` too for
    ``axes="vh"`` (it stays empty for ``axes="v"``); ``mode="single"`` keeps
    the one pattern ``((0,), ())`` and needs ``axes="v"``. A pattern with
    one axis active is a product of strip eigenvalues over the cyclic gaps
    of its offsets, each raised to the supercell height (``width`` for
    "vh", 1 for "v"); a pattern with both axes active is a product of capped
    rectangular patches, one per pair of gaps. The patterns, their gap
    sequences and the widths they need are tabled once per
    ``(width, axes, mode)``, and each distinct pair of gap sequences is
    multiplied out once per call. The density is -log of the signed sum per
    supercell site. A ``ctx`` from :func:`prepare_strips` must come from
    ``unit`` itself (or an equal array), else :class:`InfiniteError`.
    """
    width = int(width)
    if width < 1:
        raise InfiniteError("strip width must be at least 1")
    if axes not in ("v", "vh"):
        raise InfiniteError("axes must be 'v' or 'vh'")
    if mode not in ("single", "all"):
        raise InfiniteError("mode must be 'single' or 'all'")
    if axes == "vh" and mode == "single":
        raise InfiniteError("mode='single' keeps one strip set and needs axes='v'")
    if ctx is None:
        ctx = prepare_strips(unit, **bp_kwargs)
    elif ctx.source is not unit and not np.array_equal(ctx.source, unit):
        raise InfiniteError("ctx was prepared from a different unit than the one given")

    height = width if axes == "vh" else 1
    table = _pattern_table(width, axes, mode)
    lams = transfer_eigs(ctx, table.vwidths, axis=0)
    gams = transfer_eigs(ctx, table.hwidths, axis=1)
    pats = {(w, h): patch_scalar(ctx, w, h) for w in lams for h in sorted(gams, reverse=True)}
    lpow = {w: lam ** height for w, lam in lams.items()}
    gpow = {w: gam ** width for w, gam in gams.items()}
    products: dict[tuple, float] = {}          # by (gaps of sv, gaps of sh)
    for (gv, gh), pairs in table.keys:
        if not gh:
            products[gv, gh] = math.prod(map(lpow.__getitem__, gv))
        elif not gv:
            products[gv, gh] = math.prod(map(gpow.__getitem__, gh))
        else:
            products[gv, gh] = math.prod(map(pats.__getitem__, pairs))
    terms = tuple((desc, sign, products[key]) for desc, sign, key in table.rows)
    total = 0.0
    for _, sign, val in terms:
        total += sign * val
    if total <= 0:
        raise InfiniteError(
            f"strip expansion argument {total:.6e} is not positive; term breakdown: {list(terms)}"
        )
    value = -math.log(total) / (width * height) - ctx.log_site_scale
    return FreeEnergyResult(
        value=value, width=width, axes=axes, mode=mode, terms=terms, argument=float(total)
    )


def _ring_operator(unit: np.ndarray, length: int) -> Callable[[np.ndarray], np.ndarray]:
    """Transfer operator of a circumference-``length`` cylinder row: the
    strip's row program with the first unit's left leg left open, then
    traced with the right leg of the last unit to close the ring."""
    steps, (shape, perm) = _row_program(unit, unit, length)
    return lambda v: np.trace(_run(steps, v).reshape(shape).transpose(perm),
                              axis1=length, axis2=length + 1).reshape(-1)


def cylinder_baseline(
    unit: np.ndarray,
    circumference: int,
    tol: float = 1e-12,
    max_iter: int = 20000,
) -> float:
    """Free energy density from exact contraction of an infinite cylinder.

    Returns -log(lambda)/L for the dominant eigenvalue of the periodic
    width-L row transfer operator of the raw unit tensor.
    """
    unit = np.asarray(unit, dtype=np.float64)
    if unit.ndim != 4:
        raise InfiniteError("the cylinder baseline needs a 4-leg uniform unit tensor")
    length = int(circumference)
    if length < 1:
        raise InfiniteError("circumference must be at least 1")
    value = _leading(_ring_operator(unit, length), unit.shape[0] ** length,
                     "cylinder transfer operator", tol=tol, max_iter=max_iter)
    if value <= 0:
        raise InfiniteError(f"cylinder leading eigenvalue {value:.6e} is not positive")
    return -math.log(value) / length
