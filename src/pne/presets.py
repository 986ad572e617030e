"""Named partition layouts for the benchmark geometries, plus the glue that
turns a lattice network into a ready-to-evaluate expansion.

Layouts are data: lists of edge coordinates on the generator grids. The
projector payload comes from :func:`source_projectors`, for any network: a
fixed point of message passing (rank 1, via the symmetrizing gauge), weight
passing (any rank), or seeded random isometries (verification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from pne.belief import (
    BPState,
    SymmetrizedGauge,
    grouped_network,
    joint_message_pair,
    projectors_from_bp,
    run_bp,
    symmetrize,
)
from pne.expansion import (
    Expansion,
    ExpansionError,
    Factorized,
    JointPair,
    Partition,
    build_combinatorial,
    build_linear,
    recursive_expand,
)
from pne.models import GridNetwork
from pne.network import TensorNetwork
from pne.weights import WeightState, projectors_from_weights, rank_stage, run_weight_passing

__all__ = ["PresetError", "LayoutSpec", "PresetExpansion", "PRESETS", "preset_names",
           "source_projectors", "build_preset"]


class PresetError(ExpansionError):
    pass


@dataclass(frozen=True)
class LayoutSpec:
    form: str                                   # "linear" | "combinatorial" | "recursive"
    edge_lists: tuple[tuple[int, ...], ...]     # factorized partitions
    joint_pairs: tuple[tuple[int, int], ...] = ()
    rank_capable: bool = True
    recursion_cap: float | None = None


def _cuts(*edges: int) -> LayoutSpec:
    """The linear layout of one single-edge partition per edge, in order."""
    return LayoutSpec(form="linear", edge_lists=tuple((e,) for e in edges))


def _doubleloop_3v(g: GridNetwork) -> LayoutSpec:
    return _cuts(*(g.v_edge(0, c) for c in range(3)))


def _doubleloop_cut1(g: GridNetwork) -> LayoutSpec:
    return _cuts(g.v_edge(0, 0))


def _doubleloop_single(g: GridNetwork) -> LayoutSpec:
    return _cuts(g.v_edge(0, 1))


def _doubleloop_2col(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(
        form="combinatorial",
        edge_lists=(
            (g.h_edge(0, 0), g.h_edge(1, 0)),
            (g.h_edge(0, 1), g.h_edge(1, 1)),
        ),
    )


def _grid3x3_chi5(g: GridNetwork) -> LayoutSpec:
    return _cuts(g.v_edge(0, 0), g.v_edge(0, 2), g.v_edge(1, 0), g.v_edge(1, 2))


def _grid3x3_single(g: GridNetwork) -> LayoutSpec:
    return _cuts(g.v_edge(0, 0))


def _six_lines(g: GridNetwork, r0: int) -> tuple[tuple[int, ...], ...]:
    """Two column cuts, two row cuts and two corner-triangle diagonal cuts of
    the 3x3 window whose top lattice row is ``r0``.

    The six lines necessarily share edges; that is fine because every shared
    edge carries the same factor.
    """
    h, v = g.h_edge, g.v_edge
    cols = tuple(tuple(h(r, c) for r in range(r0, r0 + 3)) for c in range(2))
    rows = tuple(tuple(v(r, c) for c in range(3)) for r in (r0, r0 + 1))
    d_tl = (h(r0, 1), v(r0, 1), h(r0 + 1, 0), v(r0 + 1, 0))
    d_br = (v(r0, 2), h(r0 + 1, 1), v(r0 + 1, 1), h(r0 + 2, 0))
    return cols + rows + (d_tl, d_br)


def _grid3x3_chi4(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(form="combinatorial", edge_lists=_six_lines(g, 0))


def _cube_chi5(g: GridNetwork) -> LayoutSpec:
    keys = [(0, (0, 0, 0)), (0, (0, 0, 1)), (0, (0, 1, 0)), (1, (0, 0, 0)), (2, (0, 1, 0))]
    return _cuts(*(g.bond[k] for k in keys))


def _cube_chi4(g: GridNetwork) -> LayoutSpec:
    """Three two-edge partitions, one per lattice axis, each pairing two
    parallel bonds of one face so the grouped messages are genuinely joint."""
    return LayoutSpec(
        form="combinatorial",
        edge_lists=(),
        joint_pairs=(
            (g.bond[(0, (0, 0, 0))], g.bond[(0, (0, 0, 1))]),
            (g.bond[(1, (0, 0, 1))], g.bond[(1, (1, 0, 1))]),
            (g.bond[(2, (1, 0, 0))], g.bond[(2, (1, 1, 0))]),
        ),
        rank_capable=False,
    )


def _cube_chi3(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(
        form="combinatorial",
        edge_lists=tuple(tuple(g.axis_bonds(a)) for a in range(3)),
    )


OPEN2X3_AXES = frozenset({((1, c), (0, 1)) for c in range(3)})


def _open2x3_chi5(g: GridNetwork) -> LayoutSpec:
    return _cuts(g.v_edge(0, 0), g.v_edge(0, 1), g.v_edge(0, 2), g.h_edge(0, 0), g.h_edge(0, 1))


def _open2x3_chi4(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(
        form="combinatorial",
        edge_lists=(
            (g.h_edge(0, 0), g.h_edge(1, 0)),
            (g.h_edge(0, 1), g.h_edge(1, 1)),
        ),
        rank_capable=False,
    )


def _grid5x4_chi6(g: GridNetwork) -> LayoutSpec:
    v, h = g.v_edge, g.h_edge
    return _cuts(v(1, 0), v(1, 2), v(2, 1), v(2, 3), h(0, 1), h(2, 1), h(4, 1))


def _grid4x3_recursive(g: GridNetwork) -> LayoutSpec:
    rows = tuple(tuple(g.v_edge(r, c) for c in range(3)) for r in range(3))
    cols = tuple(tuple(g.h_edge(r, c) for r in range(4)) for c in range(2))
    return LayoutSpec(
        form="recursive",
        edge_lists=rows + cols,
        rank_capable=False,
        recursion_cap=4.0,
    )


# Each preset: the lattice shape it is defined on, the open legs of that
# lattice (``open_axes`` of the grid generators), and its layout.
PRESETS: dict[str, tuple[tuple[int, ...], frozenset, Callable[[GridNetwork], LayoutSpec]]] = {
    "doubleloop-3v": ((2, 3), frozenset(), _doubleloop_3v),
    "doubleloop-cut1": ((2, 3), frozenset(), _doubleloop_cut1),
    "doubleloop-single": ((2, 3), frozenset(), _doubleloop_single),
    "doubleloop-2col": ((2, 3), frozenset(), _doubleloop_2col),
    "grid3x3-chi5": ((3, 3), frozenset(), _grid3x3_chi5),
    "grid3x3-chi4": ((3, 3), frozenset(), _grid3x3_chi4),
    "grid3x3-single": ((3, 3), frozenset(), _grid3x3_single),
    "cube222-chi5": ((2, 2, 2), frozenset(), _cube_chi5),
    "cube222-chi4": ((2, 2, 2), frozenset(), _cube_chi4),
    "cube222-chi3": ((2, 2, 2), frozenset(), _cube_chi3),
    "open2x3-chi5": ((2, 3), OPEN2X3_AXES, _open2x3_chi5),
    "open2x3-chi4": ((2, 3), OPEN2X3_AXES, _open2x3_chi4),
    "grid5x4-chi6": ((5, 4), frozenset(), _grid5x4_chi6),
    "grid4x3-recursive": ((4, 3), frozenset(), _grid4x3_recursive),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


@dataclass
class PresetExpansion:
    """A preset instantiated on a concrete network, ready to evaluate.

    ``net`` is the (re-gauged or weighted) network the expansion acts on; it
    has the same contraction value as the input lattice up to the recorded
    open-leg gauge rotations, so it doubles as the exact reference.
    """

    name: str
    net: TensorNetwork
    expansion: Expansion
    gauge: SymmetrizedGauge | None = None
    weight_state: WeightState | None = None
    scale: float = 1.0            # multiply evaluated values by this (weight prefactor)


def _random_isometry(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
    return q[:, :rank]


def source_projectors(
    net: TensorNetwork,
    projectors: str = "bp",
    rank: int = 1,
    seed: int = 0,
    bp_kwargs: dict | None = None,
    bp_state: BPState | None = None,
    weight_state: WeightState | None = None,
) -> tuple[TensorNetwork, Callable[[int], np.ndarray], dict]:
    """Gauge any network for one projector source.

    ``projectors`` selects the dominant-subspace source: ``"bp"`` runs
    message passing and symmetrizes (rank must be 1), ``"weights"`` runs
    weight passing (any rank, clipped to each edge's extent), ``"random"``
    draws isometries from ``seed`` in the order their edges are asked for.
    A precomputed ``bp_state`` or ``weight_state`` for ``net`` is reused.
    Returns the network in the source's gauge (same value, up to the BP
    gauge's open-leg rotations), ``factor_of(edge)``, the ``(dim, rank)``
    isometry of one of its edges, and the :class:`PresetExpansion` fields
    the source sets.

    Weight factors come from ``projectors_from_weights``. At rank 1 they are
    read from the weight state itself; the steeper its ``alpha``, the further
    its trailing spectrum falls, and at 0.8 on random chi=16 patches the
    directions after the first are not resolved. Above rank 1 they are read
    from ``rank_stage`` of that state, the same gauge carried on to the
    flatter ``RANK_ALPHA``, whose network and prefactor are returned.
    """
    if projectors == "bp":
        if rank != 1:
            raise PresetError("fixed-point message projectors are inherently rank 1; use weights")
        if bp_state is None:
            bp_state = run_bp(net, **(bp_kwargs or {}))
        if not bp_state.converged:
            raise PresetError(
                f"message passing did not converge (residual {bp_state.max_residual:.2e}); "
                "use projectors='weights'"
            )
        gauged, gauge = symmetrize(net, bp_state)
        return gauged, lambda e: projectors_from_bp(gauge, [e])[e], {"gauge": gauge}
    if projectors == "weights":
        if weight_state is None:
            weight_state = run_weight_passing(net)
        state = rank_stage(weight_state) if rank > 1 and weight_state.converged else weight_state
        if not state.converged:
            raise PresetError(
                f"weight passing did not converge at alpha {state.alpha:g} "
                f"(residual {state.residual:.2e})"
            )
        weighted = state.network_with_weights()
        factor_of = lambda e: projectors_from_weights(state, [e], min(rank, weighted.edges[e].dim))[e]
        scale = float(np.exp(state.log_prefactor))
        return weighted, factor_of, {"weight_state": weight_state, "scale": scale}
    if projectors == "random":
        rng = np.random.default_rng(seed)
        return net, lambda e: _random_isometry(net.edges[e].dim, min(rank, net.edges[e].dim), rng), {}
    raise PresetError(f"unknown projector source {projectors!r}")


def build_preset(
    name: str,
    grid: GridNetwork,
    projectors: str = "bp",
    rank: int = 1,
    seed: int = 0,
    bp_kwargs: dict | None = None,
    bp_state: BPState | None = None,
    weight_state: WeightState | None = None,
) -> PresetExpansion:
    """Instantiate a named partition layout on a generator lattice, whose
    shape and open legs must be the ones :data:`PRESETS` records.

    The network and factors come from :func:`source_projectors` on
    ``grid.net``. A joint two-site partition takes the grouped fixed-point
    messages under ``projectors="bp"`` and a seeded random rank-1 isometry
    over its merged space under ``"random"``. The recursive preset cuts its
    over-budget terms with random factors under ``projectors="random"`` and
    re-gauges them with BP otherwise, ``"weights"`` included, starting that
    BP at the parent's fixed point (see :func:`_build_recursive`).
    """
    if name not in PRESETS:
        raise PresetError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    shape, open_axes, layout_of = PRESETS[name]
    if grid.shape != shape:
        raise PresetError(f"preset {name} expects a {shape} lattice, got {grid.shape}")
    if frozenset(grid.open_leg) != open_axes:
        raise PresetError(
            f"preset {name} expects open legs {sorted(open_axes)}, got {sorted(grid.open_leg)}"
        )
    if rank < 1:
        raise PresetError(f"rank {rank} must be at least 1")
    layout = layout_of(grid)
    if rank > 1 and not layout.rank_capable:
        raise PresetError(f"preset {name} is a rank-1 construction")

    net, factor_of, fields = source_projectors(
        grid.net, projectors, rank, seed, bp_kwargs, bp_state, weight_state
    )
    partitions = _factorized_partitions(layout.edge_lists, factor_of)
    for pid, pair in enumerate(layout.joint_pairs, len(partitions)):
        if projectors == "random":
            dim = net.edges[pair[0]].dim * net.edges[pair[1]].dim
            w = _random_isometry(dim, 1, np.random.default_rng((seed, pid)))
            proj = JointPair(w, w)
        elif projectors == "bp":
            derived, fused = grouped_network(net, pair)
            sub_state = run_bp(derived, **(bp_kwargs or {}))
            if not sub_state.converged:
                raise PresetError(f"grouped message passing on pair {pair} did not converge")
            ket, bra, _ = joint_message_pair(sub_state, fused)
            proj = JointPair.ketbra(ket, bra)
        else:
            raise PresetError("joint two-site partitions take fixed-point message or random projectors")
        partitions.append(Partition(id=pid, edges=tuple(pair), projector=proj))

    if layout.form == "linear":
        expansion = build_linear(net, partitions)
    elif layout.form == "combinatorial":
        expansion = build_combinatorial(net, partitions)
    else:
        expansion = _build_recursive(grid, net, partitions, layout, projectors, seed)
    return PresetExpansion(name=name, net=net, expansion=expansion, **fields)


def _factorized_partitions(edge_lists, factor_of: Callable[[int], np.ndarray]) -> list[Partition]:
    """One factorized partition per edge list, numbered in order; an edge in
    several lists gets its factor from ``factor_of`` once, on first use."""
    factors: dict[int, np.ndarray] = {}
    partitions = []
    for pid, edges in enumerate(edge_lists):
        for e in edges:
            if e not in factors:
                factors[e] = factor_of(e)
        partitions.append(
            Partition(id=pid, edges=tuple(edges), projector=Factorized(tuple(factors[e] for e in edges)))
        )
    return partitions


def _build_recursive(grid, net, partitions, layout, projectors, seed):
    """Recursive preset: an over-budget term is re-gauged and cut with the
    six lines of the 3x3 window between its two full-extent bond rows.

    The term networks keep the edge ids of ``net``; an edge a projector has
    capped is narrower there, so the full-extent edges are the uncut ones.

    A term's BP starts at e0 on every edge. In the parent's symmetrized gauge
    every message is e0, and a term only projects edges onto e0 (to extent 1,
    where e0 is ``[1.0]``), so e0 is the term's fixed point and one sweep
    confirms it (Tindall & Fishman, SciPost Phys. 15, 222 (2023)). Under
    weight projectors it is only a start.
    """
    kind = "random" if projectors == "random" else "bp"

    def source(sub_net: TensorNetwork, depth: int):
        def full(e: int) -> bool:
            return e in sub_net.edges and sub_net.edges[e].dim == net.edges[e].dim

        rows = [r for r in range(grid.shape[0] - 1) if all(full(grid.v_edge(r, c)) for c in range(3))]
        if len(rows) != 2 or rows[1] != rows[0] + 1:
            return None
        lines = _six_lines(grid, rows[0])
        if not all(full(e) for line in lines for e in line):
            return None
        e0 = {(e, d): np.eye(edge.dim)[0] for e, edge in sub_net.edges.items() for d in (0, 1)}
        gauged, factor_of, _ = source_projectors(sub_net, kind, 1, seed + 7919 * depth, {"initial": e0})
        return gauged, _factorized_partitions(lines, factor_of)

    return recursive_expand(net, partitions, cost_cap_exponent=layout.recursion_cap,
                            projector_source=source, depth_cap=4)
