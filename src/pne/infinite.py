"""Free-energy density of infinite translation-invariant square-lattice
networks via strip expansions.

The lattice is partitioned into width-L strips along one or both axes.
``free_energy`` sums one inclusion-exclusion loop over activation patterns,
the sets of active vertical and horizontal strips; each term reduces to a
product of strip transfer-matrix eigenvalues (one axis active) or of finite
capped patches (both axes active), both from the e0-capped strip row
transfer operator T_k: eigenvalues by power iteration from the BP vacuum
e0^{(x)k}, a k-column by p-row patch as the moment e0^{(x)k}' T_k^p e0^{(x)k}.
The strip and cylinder transfer operators share one row kernel.
All quantities are computed in the symmetrized uniform gauge, where every
boundary cap is the first basis vector, and with the unit tensor normalized
by its single-site capped scalar so the logarithms stay well conditioned.
"""

from __future__ import annotations

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
    f(original unit) = f(normalized unit) - log_site_scale.
    """

    unit: np.ndarray                   # gauged and normalized, axes (u-, u+, l-, l+)
    log_site_scale: float
    lambdas: dict[int, float] = field(default_factory=dict)   # axis-0 strip eigenvalues
    gammas: dict[int, float] = field(default_factory=dict)    # axis-1 strip eigenvalues
    patches: dict[tuple[int, int], float] = field(default_factory=dict)

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
    return StripContext(unit=gauged / site, log_site_scale=math.log(site))


def _row(first: np.ndarray, unit: np.ndarray, k: int, v: np.ndarray) -> np.ndarray:
    """One row of k units, ``first`` leading, applied to the state on k
    vertical bonds.

    Unit axes are (up, down, left, right); ``first`` is a unit with or
    without its left leg. Returns the row with axes (down_0 .. down_{k-1},
    open left leg of ``first`` if any, right leg of the last unit)."""
    chi = unit.shape[0]
    carry = np.tensordot(v.reshape((chi,) * k), first, axes=([0], [0]))   # (s_1.., d, [l], r)
    carry = np.moveaxis(carry, k - 1, 0)
    for j in range(1, k):
        # carry axes: (d_0..d_{j-1}, s_j.., [l], h); contract (s_j, h) with (u, l)
        carry = np.tensordot(carry, unit, axes=([j, carry.ndim - 1], [0, 2]))
        carry = np.moveaxis(carry, -2, j)
    return carry


def _strip_operator(unit: np.ndarray, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """One row of a width-k strip, as a map of the state on k vertical bonds.

    The transverse boundary bonds are capped with e0 on both sides (the
    partition projectors in the symmetrized gauge). The cap and the capped
    first unit are built once per operator, not once per application."""
    e0 = np.zeros(unit.shape[2])
    e0[0] = 1.0
    first = np.tensordot(unit, e0, axes=([2], [0]))

    def apply(v: np.ndarray) -> np.ndarray:
        carry = _row(first, unit, k, v)
        return np.tensordot(carry, e0, axes=([carry.ndim - 1], [0])).reshape(-1)
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
    sites); ``axis=1`` along columns. Power iteration starts from the BP
    vacuum e0^{(x)k} plus VACUUM_START_MIX near_uniform (in case the vacuum is
    orthogonal to the dominant vector); a degenerate leading pair raises.
    """
    if axis not in (0, 1):
        raise InfiniteError(f"strip axis must be 0 or 1, not {axis!r}")
    ks = sorted({int(w) for w in widths})
    if min(ks, default=1) < 1:
        raise InfiniteError(f"strip widths must be at least 1, got {ks[0]}")
    unit = ctx.unit if axis == 0 else ctx.unit.transpose(2, 3, 0, 1)
    cache = ctx.lambdas if axis == 0 else ctx.gammas
    for k in ks:
        if k not in cache:
            start = VACUUM_START_MIX * near_uniform(unit.shape[0] ** k)
            start[0] += 1.0                # the BP vacuum e0^{(x)k}
            cache[k] = _leading(_strip_operator(unit, k), start.size,
                                f"width-{k} transfer operator", tol=tol, max_iter=max_iter,
                                start=start)
    return {k: cache[k] for k in ks}


def patch_scalar(ctx: StripContext, k: int, p: int) -> float:
    """Scalar of the k-column by p-row capped patch of the normalized unit:
    the e0 moment e0^{(x)k}' T_k^p e0^{(x)k} of the axis-0 strip operator,
    p rows applied to the BP vacuum, read at entry 0 (lower p cached too)."""
    k, p = int(k), int(p)
    if k < 1 or p < 1:
        raise InfiniteError(f"a capped patch needs k, p >= 1, got ({k}, {p})")
    if (k, p) not in ctx.patches:
        apply = _strip_operator(ctx.unit, k)
        v = ctx.e0(k)
        for q in range(1, p + 1):
            v = apply(v)
            ctx.patches[k, q] = float(v[0])
    return ctx.patches[k, p]


def _cyclic_gaps(offsets: tuple[int, ...], width: int) -> tuple[int, ...]:
    s = sorted(offsets)
    return tuple((s[(i + 1) % len(s)] - s[i]) % width or width for i in range(len(s)))


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
    rectangular patches, one per pair of gaps; each distinct pair of gap
    sequences is multiplied out once. The density is -log of the signed sum
    per supercell site.
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

    height = width if axes == "vh" else 1
    # every subset of the strip offsets, by size, then in combinations order
    subsets = [s for n in range(width + 1) for s in itertools.combinations(range(width), n)]
    vsets = [(0,)] if mode == "single" else subsets
    hsets = subsets if axes == "vh" else [()]
    gaps = {s: _cyclic_gaps(s, width) for s in subsets}
    lams = transfer_eigs(ctx, {w for s in vsets for w in gaps[s]}, axis=0)
    gams = transfer_eigs(ctx, {w for s in hsets for w in gaps[s]}, axis=1)
    pats = {(w, h): patch_scalar(ctx, w, h) for w in lams for h in sorted(gams, reverse=True)}
    products: dict[tuple, float] = {}          # by (gaps of sv, gaps of sh)
    terms: list[tuple[str, int, float]] = []
    total = 0.0
    vname, hname = {s: f"v{s}" for s in vsets}, {s: f"h{s}" for s in hsets}
    patterns = [(sv, sh) for sv in vsets for sh in hsets if sv or sh]
    for sv, sh in patterns:
        gv, gh = gaps[sv], gaps[sh]
        val = products.get((gv, gh))
        if val is None:
            if not gh:
                val = math.prod(lams[w] ** height for w in gv)
            elif not gv:
                val = math.prod(gams[w] ** width for w in gh)
            else:
                val = math.prod(pats[w, hgt] for w in gv for hgt in gh)
            products[gv, gh] = val
        desc = f"{vname[sv]} x {hname[sh]}" if sv and sh else (vname[sv] if sv else hname[sh])
        sign = 1 if (len(sv) + len(sh)) % 2 == 1 else -1
        terms.append((desc, sign, val))
        total += sign * val
    if total <= 0:
        raise InfiniteError(
            f"strip expansion argument {total:.6e} is not positive; term breakdown: {terms}"
        )
    value = -math.log(total) / (width * height) - ctx.log_site_scale
    return FreeEnergyResult(
        value=value, width=width, axes=axes, mode=mode, terms=tuple(terms), argument=float(total)
    )


def _ring_apply(unit: np.ndarray, length: int, v: np.ndarray) -> np.ndarray:
    """Transfer operator of a circumference-``length`` cylinder row."""
    carry = _row(unit, unit, length, v)
    # close the ring: trace the left bond of site 0 with the right of site L-1
    return np.trace(carry, axis1=length, axis2=length + 1).reshape(-1)


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
    value = _leading(lambda v: _ring_apply(unit, length, v), unit.shape[0] ** length,
                     "cylinder transfer operator", tol=tol, max_iter=max_iter)
    if value <= 0:
        raise InfiniteError(f"cylinder leading eigenvalue {value:.6e} is not positive")
    return -math.log(value) / length
