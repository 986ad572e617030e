"""Named partition layouts for the benchmark geometries, plus the glue that
turns a lattice network into a ready-to-evaluate expansion.

Layouts are data: lists of edge coordinates on the generator grids. The
projector payload comes from a fixed point of message passing (rank 1, via
the symmetrizing gauge), from weight passing (any rank), or from seeded
random isometries (verification).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pne.belief import (
    BPState,
    SymmetrizedGauge,
    grouped_network,
    joint_message_pair,
    run_bp,
    symmetrize,
)
from pne.expansion import (
    Expansion,
    ExpansionError,
    Factorized,
    JointKetBra,
    Partition,
    build_combinatorial,
    build_linear,
    recursive_expand,
)
from pne.models import GridNetwork
from pne.network import TensorNetwork
from pne.tensor import basis_columns
from pne.weights import WeightState, projectors_from_weights, rank_stage, run_weight_passing

__all__ = ["PresetError", "LayoutSpec", "PresetExpansion", "PRESETS", "preset_names", "build_preset"]


class PresetError(ExpansionError):
    pass


@dataclass(frozen=True)
class LayoutSpec:
    form: str                                   # "linear" | "combinatorial" | "recursive"
    edge_lists: tuple[tuple[int, ...], ...]     # factorized partitions
    joint_pairs: tuple[tuple[int, int], ...] = ()
    rank_capable: bool = True
    recursion_cap: float | None = None


def _doubleloop_3v(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(
        form="linear",
        edge_lists=tuple((g.v_edge(0, c),) for c in range(3)),
    )


def _doubleloop_cut1(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(form="linear", edge_lists=((g.v_edge(0, 0),),))


def _doubleloop_single(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(form="linear", edge_lists=((g.v_edge(0, 1),),))


def _doubleloop_2col(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(
        form="combinatorial",
        edge_lists=(
            (g.h_edge(0, 0), g.h_edge(1, 0)),
            (g.h_edge(0, 1), g.h_edge(1, 1)),
        ),
    )


def _grid3x3_chi5(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(
        form="linear",
        edge_lists=(
            (g.v_edge(0, 0),),
            (g.v_edge(0, 2),),
            (g.v_edge(1, 0),),
            (g.v_edge(1, 2),),
        ),
    )


def _grid3x3_single(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(form="linear", edge_lists=((g.v_edge(0, 0),),))


def _grid3x3_chi4(g: GridNetwork) -> LayoutSpec:
    """Two column cuts, two row cuts and two corner-triangle diagonal cuts.

    The six lines necessarily share edges; that is fine because every shared
    edge carries the same rank-1 message factor.
    """
    v1 = tuple(g.h_edge(r, 0) for r in range(3))
    v2 = tuple(g.h_edge(r, 1) for r in range(3))
    h1 = tuple(g.v_edge(0, c) for c in range(3))
    h2 = tuple(g.v_edge(1, c) for c in range(3))
    d_tl = (g.h_edge(0, 1), g.v_edge(0, 1), g.h_edge(1, 0), g.v_edge(1, 0))
    d_br = (g.v_edge(0, 2), g.h_edge(1, 1), g.v_edge(1, 1), g.h_edge(2, 0))
    return LayoutSpec(
        form="combinatorial",
        edge_lists=(v1, v2, h1, h2, d_tl, d_br),
    )


def _cube_chi5(g: GridNetwork) -> LayoutSpec:
    return LayoutSpec(
        form="linear",
        edge_lists=(
            (g.bond[(0, (0, 0, 0))],),
            (g.bond[(0, (0, 0, 1))],),
            (g.bond[(0, (0, 1, 0))],),
            (g.bond[(1, (0, 0, 0))],),
            (g.bond[(2, (0, 1, 0))],),
        ),
    )


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
    return LayoutSpec(
        form="linear",
        edge_lists=(
            (g.v_edge(0, 0),),
            (g.v_edge(0, 1),),
            (g.v_edge(0, 2),),
            (g.h_edge(0, 0),),
            (g.h_edge(0, 1),),
        ),
    )


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
    return LayoutSpec(
        form="linear",
        edge_lists=(
            (g.v_edge(1, 0),),
            (g.v_edge(1, 2),),
            (g.v_edge(2, 1),),
            (g.v_edge(2, 3),),
            (g.h_edge(0, 1),),
            (g.h_edge(2, 1),),
            (g.h_edge(4, 1),),
        ),
    )


def _grid4x3_recursive(g: GridNetwork) -> LayoutSpec:
    rows = tuple(tuple(g.v_edge(r, c) for c in range(3)) for r in range(3))
    cols = tuple(tuple(g.h_edge(r, c) for r in range(4)) for c in range(2))
    return LayoutSpec(
        form="recursive",
        edge_lists=rows + cols,
        rank_capable=False,
        recursion_cap=4.0,
    )


# Each preset: the lattice shape it is defined on, and its layout.
PRESETS: dict[str, tuple[tuple[int, ...], Callable[[GridNetwork], LayoutSpec]]] = {
    "doubleloop-3v": ((2, 3), _doubleloop_3v),
    "doubleloop-cut1": ((2, 3), _doubleloop_cut1),
    "doubleloop-single": ((2, 3), _doubleloop_single),
    "doubleloop-2col": ((2, 3), _doubleloop_2col),
    "grid3x3-chi5": ((3, 3), _grid3x3_chi5),
    "grid3x3-chi4": ((3, 3), _grid3x3_chi4),
    "grid3x3-single": ((3, 3), _grid3x3_single),
    "cube222-chi5": ((2, 2, 2), _cube_chi5),
    "cube222-chi4": ((2, 2, 2), _cube_chi4),
    "cube222-chi3": ((2, 2, 2), _cube_chi3),
    "open2x3-chi5": ((2, 3), _open2x3_chi5),
    "open2x3-chi4": ((2, 3), _open2x3_chi4),
    "grid5x4-chi6": ((5, 4), _grid5x4_chi6),
    "grid4x3-recursive": ((4, 3), _grid4x3_recursive),
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
    projector_source: str
    rank: int
    bp_state: BPState | None = None
    gauge: SymmetrizedGauge | None = None
    weight_state: WeightState | None = None
    scale: float = 1.0            # multiply evaluated values by this (weight prefactor)


def _random_isometry(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
    return q[:, :rank]


def build_preset(
    name: str,
    grid: GridNetwork,
    projectors: str = "bp",
    rank: int = 1,
    seed: int = 0,
    bp_kwargs: dict | None = None,
    wp_kwargs: dict | None = None,
    bp_state: BPState | None = None,
    weight_state: WeightState | None = None,
) -> PresetExpansion:
    """Instantiate a named partition layout on a generator lattice.

    ``projectors`` selects the dominant-subspace source: ``"bp"`` runs
    message passing and symmetrizes (rank must be 1), ``"weights"`` runs
    weight passing (any rank, clipped to each edge's extent), ``"random"``
    draws seeded isometries (for exactness verification). A precomputed
    ``bp_state`` or ``weight_state`` for ``grid.net`` is reused instead of
    iterating again (several presets or ranks on one instance).

    Weight factors come from ``projectors_from_weights``. At rank 1 they are
    read from the weight state itself; the steeper its ``alpha``, the further
    its trailing spectrum falls, and at 0.8 on random chi=16 patches the
    directions after the first are not resolved. Above rank 1 they are read from ``rank_stage`` of that
    state, the same gauge carried on to the flatter ``RANK_ALPHA``, whose
    network and prefactor the expansion then uses.
    """
    if name not in PRESETS:
        raise PresetError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    shape, layout_of = PRESETS[name]
    if grid.shape != shape:
        raise PresetError(f"preset {name} expects a {shape} lattice, got {grid.shape}")
    layout = layout_of(grid)
    if rank > 1 and not layout.rank_capable:
        raise PresetError(f"preset {name} is a rank-1 construction")

    gauge = None
    scale = 1.0

    if projectors == "bp":
        if rank != 1:
            raise PresetError("fixed-point message projectors are inherently rank 1; use weights")
        if bp_state is None:
            bp_state = run_bp(grid.net, **(bp_kwargs or {}))
        if not bp_state.converged:
            raise PresetError(
                f"message passing did not converge (residual {bp_state.max_residual:.2e}); "
                "use projectors='weights'"
            )
        net, gauge = symmetrize(grid.net, bp_state)
        factor_of = lambda e: basis_columns(net.edges[e].dim, 1)
    elif projectors == "weights":
        if weight_state is None:
            weight_state = run_weight_passing(grid.net, **(wp_kwargs or {}))
        state = weight_state
        if rank > 1 and state.converged:
            state = rank_stage(state)
        if not state.converged:
            raise PresetError(
                f"weight passing did not converge at alpha {state.alpha:g} "
                f"(residual {state.residual:.2e})"
            )
        net = state.network_with_weights()
        scale = float(np.exp(state.log_prefactor))
        factor_of = lambda e: projectors_from_weights(
            state, [e], min(rank, net.edges[e].dim)
        )[e].isometry
    elif projectors == "random":
        rng = np.random.default_rng(seed)
        net = grid.net
        factor_of = lambda e: _random_isometry(net.edges[e].dim, min(rank, net.edges[e].dim), rng)
    else:
        raise PresetError(f"unknown projector source {projectors!r}")

    partitions = _factorized_partitions(layout.edge_lists, factor_of)
    pid = len(partitions)
    for pair in layout.joint_pairs:
        if projectors != "bp":
            raise PresetError("joint two-site partitions require fixed-point message projectors")
        derived, fused = grouped_network(net, pair)
        sub_state = run_bp(derived, **(bp_kwargs or {}))
        if not sub_state.converged:
            raise PresetError(f"grouped message passing on pair {pair} did not converge")
        ket, bra, ov = joint_message_pair(sub_state, fused)
        partitions.append(Partition(id=pid, edges=tuple(pair), projector=JointKetBra(ket=ket, bra=bra)))
        pid += 1

    if layout.form == "linear":
        expansion = build_linear(net, partitions)
    elif layout.form == "combinatorial":
        expansion = build_combinatorial(net, partitions)
    else:
        expansion = _build_recursive(grid, net, partitions, layout, projectors, seed)
    return PresetExpansion(
        name=name,
        net=net,
        expansion=expansion,
        projector_source=projectors,
        rank=rank,
        bp_state=bp_state,
        gauge=gauge,
        weight_state=weight_state,
        scale=scale,
    )


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


def _full_extent_edges(net: TensorNetwork, reference: TensorNetwork) -> set[int]:
    return {
        e for e, edge in net.edges.items()
        if e in reference.edges and edge.dim == reference.edges[e].dim
    }


def _build_recursive(grid, net, partitions, layout, projectors, seed):
    """Recursive preset: over-budget terms are re-gauged and re-partitioned
    with the six-line scheme restricted to their surviving full-extent
    cluster of ``grid``."""

    def source(sub_net: TensorNetwork, depth: int):
        alive = _full_extent_edges(sub_net, net)
        # Cluster lines: group surviving edges of each original line that
        # still has all members alive; then cut the cluster with its own
        # column/row/diagonal lines, mirroring the dense 3x3 scheme.
        lines = [tuple(es) for es in _cluster_lines(grid, alive)]
        if not lines:
            return None
        if projectors == "random":
            rng = np.random.default_rng(seed + 7919 * depth)
            return sub_net, _factorized_partitions(
                lines, lambda e: _random_isometry(sub_net.edges[e].dim, 1, rng)
            )
        state = run_bp(sub_net)
        if not state.converged:
            return None
        gauged, _ = symmetrize(sub_net, state)
        return gauged, _factorized_partitions(lines, lambda e: basis_columns(gauged.edges[e].dim, 1))

    return recursive_expand(
        net,
        partitions,
        cost_cap_exponent=layout.recursion_cap,
        projector_source=source,
        depth_cap=4,
    )


def _cluster_lines(grid: GridNetwork, alive: set[int]):
    """Partition lines for the full-extent cluster of a 4x3 recursion term.

    The term networks keep the original edge ids, so the surviving 3x3
    cluster can be cut with the same column/row/diagonal lines as the dense
    3x3 preset, expressed through the original lattice coordinates.
    """
    v, h = grid.v_edge, grid.h_edge
    rows_alive = [r for r in range(3) if all(v(r, c) in alive for c in range(3))]
    if len(rows_alive) != 2 or rows_alive[1] != rows_alive[0] + 1:
        return []
    r0 = rows_alive[0]          # cluster spans grid rows r0 .. r0+2
    rows = [r0, r0 + 1, r0 + 2]
    gaps = rows_alive
    col_lines = [tuple(h(r, c) for r in rows) for c in range(2)]
    row_lines = [tuple(v(gp, c) for c in range(3)) for gp in gaps]
    d_tl = (h(rows[0], 1), v(gaps[0], 1), h(rows[1], 0), v(gaps[1], 0))
    d_br = (v(gaps[0], 2), h(rows[1], 1), v(gaps[1], 1), h(rows[2], 0))
    lines = col_lines + row_lines + [d_tl, d_br]
    if not all(all(e in alive for e in line) for line in lines):
        return []
    return lines
