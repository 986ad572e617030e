"""Benchmark network generators: classical Ising encodings in 2D/3D, the
square-lattice AKLT double-layer norm, biased random tensors, exact
coarse-grain blocking, and finite patches cut from uniform infinite lattices
by capping boundary indices with self-consistent messages.

Grid conventions
----------------
Positions are tuples (row, col) or (i, j, k); grid axis g advances the g-th
coordinate. A uniform *unit* tensor carries one axis pair per grid axis in
the order ``[(0,-), (0,+), (1,-), (1,+), ...]``, where ``(g,+)`` faces the
neighbor at larger coordinate. Bond edges are directed from the smaller
coordinate (tail) to the larger (head). Node and edge ids of every grid
network, and of the cell cluster of every blocked unit, follow one layout,
:func:`_grid_layout`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from pne.belief import _absorb_all, _iterate_messages, _message_gauge, _message_layout, _rows, _stack_emit
from pne.network import NetworkError, TensorNetwork, absorb_matrix, contract, subnetwork
from pne.tensor import asarray

__all__ = [
    "BETA_C_2D",
    "BETA_C_3D",
    "ModelSpec",
    "GridNetwork",
    "grid_view",
    "ising_unit_tensor",
    "ising_open_patch",
    "aklt_peps_tensor",
    "aklt_norm_tensor",
    "random_tensor",
    "random_grid",
    "UniformBP",
    "uniform_fixed_point",
    "symmetrize_uniform",
    "BlockedUnit",
    "block_unit",
    "capped_patch",
    "block",
    "finite_patch",
    "brute_force_ising",
    "ising_free_energy_2d",
]

BETA_C_2D = math.log(1.0 + math.sqrt(2.0)) / 2.0      # ~ 0.440687
BETA_C_3D = 0.2216546                                  # simple cubic lattice


class ModelError(NetworkError):
    pass


# ---------------------------------------------------------------------------
# Grid assembly
# ---------------------------------------------------------------------------

Pos = tuple[int, ...]
AxisDir = tuple[int, int]      # (grid axis, side): side 0 faces -g, 1 faces +g


@dataclass
class GridNetwork:
    """A lattice-shaped tensor network with the lookups of its layout (:func:`_grid_layout`)."""

    net: TensorNetwork
    shape: tuple[int, ...]
    node_of: dict[Pos, int]
    bond: dict[tuple[int, Pos], int]          # (axis, tail position) -> edge id
    open_leg: dict[tuple[Pos, AxisDir], int]  # (position, (axis, side)) -> edge id

    def v_edge(self, r: int, c: int) -> int:
        """2D: bond between (r, c) and (r+1, c)."""
        return self.bond[(0, (r, c))]

    def h_edge(self, r: int, c: int) -> int:
        """2D: bond between (r, c) and (r, c+1)."""
        return self.bond[(1, (r, c))]

    def axis_bonds(self, g: int) -> list[int]:
        return [eid for (ax, _), eid in sorted(self.bond.items()) if ax == g]


def _positions(shape: tuple[int, ...]) -> list[Pos]:
    return [tuple(p) for p in itertools.product(*(range(n) for n in shape))]


def _shifted(pos: Pos, g: int, step: int) -> Pos:
    return tuple(c + step if a == g else c for a, c in enumerate(pos))


def _site_axes(
    shape: tuple[int, ...], pos: Pos, open_axes: frozenset[tuple[Pos, AxisDir]] = frozenset()
) -> list[tuple[str, int, int]]:
    """Axis descriptors of the site at ``pos`` in ``(g, s)`` order: a bond
    toward each in-lattice neighbor, an open leg for each outward direction
    listed in ``open_axes``, nothing for the other outward directions."""
    axes = []
    for g in range(len(shape)):
        for s in (0, 1):
            if 0 <= pos[g] + (1 if s == 1 else -1) < shape[g]:
                axes.append(("bond", g, s))
            elif (pos, (g, s)) in open_axes:
                axes.append(("open", g, s))
    return axes


def _grid_layout(shape: tuple[int, ...], open_axes: frozenset[tuple[Pos, AxisDir]] = frozenset()):
    """The lattice layout: the one map from positions to network ids.

    Nodes are numbered in position order and their axes follow
    :func:`_site_axes`. Bond edge ids come first (ordered by axis then tail
    position), then open legs (by position). Returns ``(node_of, bond,
    open_leg, attachments)``, where ``attachments`` maps each edge id, in
    ascending order, to its ``(node, axis)`` endpoints, tail first. Raises
    :class:`ModelError` for a non-positive extent, or for an ``open_axes``
    entry that points into the lattice or names a position outside it.
    """
    if any(n < 1 for n in shape):
        raise ModelError(f"lattice extents {shape} must be positive")
    positions = _positions(shape)
    node_of = {pos: i for i, pos in enumerate(positions)}
    bond_keys = [(g, pos) for g in range(len(shape)) for pos in positions if pos[g] + 1 < shape[g]]
    bond = {key: eid for eid, key in enumerate(bond_keys)}
    site_axes = {pos: _site_axes(shape, pos, open_axes) for pos in positions}
    open_keys = [(pos, (g, s)) for pos in positions for kind, g, s in site_axes[pos] if kind == "open"]
    stray = set(open_axes) - set(open_keys)
    if stray:
        raise ModelError(f"open_axes entries {sorted(stray)} do not point out of the {shape} lattice")
    open_leg = {key: len(bond) + i for i, key in enumerate(open_keys)}
    # A bond's tail sits at the smaller coordinate (its s == 1 side), so the
    # position-order scan meets the tail first.
    attachments: dict[int, tuple[tuple[int, int], ...]] = {}
    for pos in positions:
        for ax, (kind, g, s) in enumerate(site_axes[pos]):
            if kind == "open":
                eid = open_leg[(pos, (g, s))]
            else:
                eid = bond[(g, pos if s == 1 else _shifted(pos, g, -1))]
            attachments[eid] = attachments.get(eid, ()) + ((node_of[pos], ax),)
    return node_of, bond, open_leg, dict(sorted(attachments.items()))


def _assemble_grid(
    shape: tuple[int, ...],
    tensors: dict[Pos, np.ndarray],
    open_axes: frozenset[tuple[Pos, AxisDir]] = frozenset(),
) -> GridNetwork:
    """Wire one tensor per position, its axes ordered as
    :func:`_site_axes` lists them, into a grid network."""
    shape = tuple(shape)
    node_of, bond, open_leg, attachments = _grid_layout(shape, open_axes)
    net = TensorNetwork.build({node_of[p]: tensors[p] for p in node_of}, attachments)
    return GridNetwork(net=net, shape=shape, node_of=node_of, bond=bond, open_leg=open_leg)


def grid_view(
    net: TensorNetwork,
    shape: tuple[int, ...],
    open_axes: frozenset[tuple[Pos, AxisDir]] = frozenset(),
) -> GridNetwork:
    """Lattice lookups for a network wired as :func:`_assemble_grid` wires
    a ``shape`` lattice with the given open legs.

    Raises :class:`ModelError` when the node ids or edge endpoints differ
    from that layout."""
    shape = tuple(shape)
    if any(n < 1 for n in shape) or math.prod(shape) != len(net.nodes):
        raise ModelError(f"{len(net.nodes)} nodes cannot form a {shape} lattice")
    node_of, bond, open_leg, attachments = _grid_layout(shape, open_axes)
    wiring = {eid: edge.endpoints for eid, edge in net.edges.items()}
    if sorted(net.nodes) != list(node_of.values()) or wiring != attachments:
        raise ModelError(f"the network is not wired as a {shape} lattice with open legs {sorted(open_leg)}")
    return GridNetwork(net=net, shape=shape, node_of=node_of, bond=bond, open_leg=open_leg)


# ---------------------------------------------------------------------------
# Unit tensors
# ---------------------------------------------------------------------------

def _ising_leg_factor(beta: float) -> np.ndarray:
    """Symmetric square root of the bond Boltzmann matrix exp(beta * s s')."""
    if beta < 0:
        raise ModelError("the symmetric bond split needs beta >= 0")
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    lam = np.array([2.0 * math.cosh(beta), 2.0 * math.sinh(beta)])
    return (u * np.sqrt(lam)[None, :]) @ u.T


def _spin_vertex(beta: float, nlegs: int) -> np.ndarray:
    """Vertex tensor summing one spin against ``nlegs`` bond half-factors."""
    x = _ising_leg_factor(beta)
    out = np.zeros((2,) * nlegs)
    for s in range(2):
        term = np.array(1.0)
        for _ in range(nlegs):
            term = np.multiply.outer(term, x[s])
        out += term
    return out


def ising_unit_tensor(dimension: int, beta: float) -> np.ndarray:
    """Bulk vertex tensor of the square (4 legs) or cubic (6 legs) lattice
    partition-function network at inverse temperature beta, extent 2 per leg."""
    if dimension not in (2, 3):
        raise ModelError("dimension must be 2 or 3")
    return _spin_vertex(beta, 2 * dimension)


def ising_open_patch(dimension: int, beta: float, shape: tuple[int, ...]) -> GridNetwork:
    """Open-boundary Ising patch: boundary vertices simply lack outward legs,
    so the closed network contracts exactly to the finite-lattice partition
    function."""
    if len(shape) != dimension:
        raise ModelError(f"shape {shape} does not match dimension {dimension}")
    tensors = {pos: _spin_vertex(beta, len(_site_axes(shape, pos))) for pos in _positions(shape)}
    return _assemble_grid(shape, tensors)


def aklt_peps_tensor() -> np.ndarray:
    """Spin-2 square-lattice valence-bond tensor, axes (phys, u, d, l, r).

    Four virtual spin-1/2 legs are symmetrized onto the five-dimensional
    physical space; the singlet matrix sits on the two positive-direction
    legs so every lattice bond carries exactly one."""
    sym = np.zeros((5, 2, 2, 2, 2))
    for p in range(5):          # p = number of down spins
        norm = 1.0 / math.sqrt(math.comb(4, p))
        for virt in itertools.product((0, 1), repeat=4):
            if sum(virt) == p:
                sym[(p, *virt)] = norm
    singlet = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a = np.einsum("pudlr,dD,rR->puDlR", sym, singlet, singlet)
    return a


def aklt_norm_tensor() -> np.ndarray:
    """Double-layer AKLT tensor: bra and ket contracted over the physical
    index, virtual pairs fused to extent 4, axes (u, d, l, r)."""
    a = aklt_peps_tensor()
    e = np.einsum("pudlr,pUDLR->uUdDlLrR", a, a)
    return e.reshape(4, 4, 4, 4)


def random_tensor(extents, bias: float, seed=0) -> np.ndarray:
    """Entries i.i.d. uniform on [-1 + bias, 1 + bias]."""
    if not 0.0 <= bias <= 1.0:
        raise ModelError("bias must lie in [0, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.uniform(-1.0 + bias, 1.0 + bias, size=tuple(extents))


def random_grid(
    shape: tuple[int, ...],
    chi: int,
    bias: float = 0.2,
    seed=0,
    open_axes: frozenset[tuple[Pos, AxisDir]] = frozenset(),
) -> GridNetwork:
    """Grid of independent random tensors with extent ``chi`` on every leg.

    ``open_axes`` lists boundary directions to keep as open legs (they must
    point outside the grid)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    tensors = {
        pos: random_tensor((chi,) * len(_site_axes(shape, pos, open_axes)), bias, rng)
        for pos in _positions(shape)
    }
    return _assemble_grid(shape, tensors, open_axes)


# ---------------------------------------------------------------------------
# Uniform (infinite-lattice) message passing
# ---------------------------------------------------------------------------

@dataclass
class UniformBP:
    """Self-consistent messages of a translation-invariant lattice.

    ``out_messages[(g, s)]`` is the unit-norm message a node emits from its
    (g, s) axis; the cap for a dangling (g, s) axis is the message arriving
    there, i.e. the one emitted from the opposite side of a neighbor."""

    out_messages: dict[AxisDir, np.ndarray]
    iterations: int
    residual: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)

    def cap(self, g: int, s: int) -> np.ndarray:
        return self.out_messages[(g, 1 - s)]

    def caps(self) -> dict[AxisDir, np.ndarray]:
        return {(g, s): self.cap(g, s) for (g, s) in self.out_messages}


def uniform_fixed_point(
    unit,
    tol: float = 1e-12,
    max_iter: int = 4000,
    damping: float = 0.2,
    seed: int = 0,
) -> UniformBP:
    """Damped synchronous iteration of the single-tensor self-consistency
    equations (all nodes share one message per axis direction), through the
    loop :func:`pne.belief.run_bp` uses. ``damping`` keeps that fraction of
    the previous message and must lie in [0, 1).

    ``unit`` is a dense unit tensor or a :class:`BlockedUnit`. A
    materialized unit (a dense one is a block of one cell) is a stack of one
    node for :func:`pne.belief._outgoing`, which emits every face from
    shared prefixes in its stated absorption order without copying the
    unit. A lazy blocked unit contracts its cluster once per face."""
    ops = _as_unit(unit)
    dims = {(g, s): ops.face_dim(g, s) for g in range(ops.ndim) for s in (0, 1)}
    groups, place = _message_layout(dims)
    dense = ops._materialized
    # The cap on face (g, s) is the message a neighbor emits from (g, 1 - s);
    # face (g, s) is axis 2 * g + s, so dims lists the faces in axis order.
    if dense is not None:
        emit = _stack_emit([(dense[None], [_rows(place, [(g, 1 - s)]) for g, s in dims],
                             [_rows(place, [face]) for face in dims])])
    else:
        def emit(stacks):
            msgs = {k: stacks[dim][row] for k, (dim, row) in place.items()}
            caps = {(g, s): msgs[(g, 1 - s)] for g, s in dims}
            out = {face: ops.apply_caps({**caps, face: None}) for face in dims}
            return {dim: np.stack([out[k] for k in keys]) for dim, keys in groups.items()}
    out, it, _, history, converged = _iterate_messages(dims, emit, tol, max_iter, damping, seed, ModelError)
    return UniformBP(out_messages=out, iterations=it, residual=history[-1] if history else np.inf,
                     converged=converged, residual_history=history)


def symmetrize_uniform(unit: np.ndarray, ubp: UniformBP) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Gauge a uniform unit tensor so every directed message becomes e0.

    Returns the re-gauged unit and the per-axis gauge matrices. On each axis
    the tail side absorbs the inverse and the head side the gauge, so any
    network tiled from the unit keeps its contraction value."""
    unit = asarray(unit)
    ndim = unit.ndim // 2
    gauges: dict[int, np.ndarray] = {}
    out = unit
    for g in range(ndim):
        # Forward is tail -> head (the +g direction), reverse head -> tail.
        x, x_inv = _message_gauge(ubp.out_messages[(g, 1)], ubp.out_messages[(g, 0)], ModelError,
                                  f"uniform axis {g}")
        out = absorb_matrix(out, 2 * g + 1, x_inv, head_side=False)
        out = absorb_matrix(out, 2 * g, x, head_side=True)
        gauges[g] = x
    return out, gauges


# ---------------------------------------------------------------------------
# Blocking
# ---------------------------------------------------------------------------

# A blocked unit is materialized when its dense tensor has at most this many
# entries. The 16-dim 2D units (Ising blocked 4x4, AKLT blocked 2x2) have
# 2^16 entries and are materialized; a 2x2x2-blocked 3D Ising unit has 2^24
# and stays lazy.
_MATERIALIZE_MAX_ENTRIES = 2**21


class BlockedUnit:
    """Coarse-grained uniform tensor, kept as a contraction recipe.

    The blocked tensor is the exact contraction of a ``factors`` cluster of
    unit copies, wired by :func:`_grid_layout` with every outward leg open,
    whose legs are fused face by face (face cells in position order). Faces
    can be capped or left open without ever materializing the full tensor,
    which keeps 3D blocks affordable. A block of one cell is the unit
    itself, materialized from the start; this is how every unit function
    takes a dense unit."""

    def __init__(self, unit: np.ndarray, factors: tuple[int, ...]):
        self.unit = asarray(unit)
        if self.unit.ndim % 2:
            raise ModelError("a unit tensor needs one axis pair per grid axis")
        self.factors = _block_factors(factors, self.unit.ndim // 2)
        self.ndim = len(self.factors)
        self._materialized = self.unit if all(f == 1 for f in self.factors) else None

    def face_cells(self, g: int, s: int) -> list[Pos]:
        edge_coord = self.factors[g] - 1 if s == 1 else 0
        return [p for p in _positions(self.factors) if p[g] == edge_coord]

    def face_dim(self, g: int, s: int) -> int:
        return self.unit.shape[2 * g + s] ** len(self.face_cells(g, s))

    def apply_caps(self, caps: dict[AxisDir, np.ndarray | None]) -> np.ndarray:
        """Contract the cluster with fused cap vectors on the given faces.

        Faces mapped to None (or omitted) stay open; the result carries one
        fused axis per open face in canonical ``(g, s)`` order. A cap whose
        size is not its face's dimension, or a direction the unit lacks,
        raises :class:`ModelError`."""
        dirs = list(itertools.product(range(self.ndim), (0, 1)))
        for d in caps:
            if d not in dirs:
                raise ModelError(f"a rank-{2 * self.ndim} unit has no direction {d}")
        capped = {d: np.asarray(caps[d]) for d in dirs if caps.get(d) is not None}
        for d, vec in capped.items():
            if vec.size != self.face_dim(*d):
                raise ModelError(f"the cap on direction {d} has length {vec.size}, "
                                 f"but that face has dimension {self.face_dim(*d)}")
        if self._materialized is not None:
            return _absorb_all(self._materialized, [(2 * g + s, vec) for (g, s), vec in capped.items()])
        faces, (node_of, _, open_leg, wiring) = self._cluster
        tensors = {node: self.unit for node in node_of.values()}
        attachments = dict(wiring)
        for (g, s), vec in capped.items():
            cap_node = len(tensors)
            tensors[cap_node] = vec.reshape((self.unit.shape[2 * g + s],) * len(faces[(g, s)]))
            for k, p in enumerate(faces[(g, s)]):
                attachments[open_leg[(p, (g, s))]] += ((cap_node, k),)
        net = TensorNetwork.build(tensors, attachments)
        open_faces = [[open_leg[(p, d)] for p in faces[d]] for d in dirs if d not in capped]
        return _fuse_faces(net, contract(net), open_faces)

    @functools.cached_property
    def _cluster(self):
        """The cells of each face, and the cluster's layout with every outward leg open."""
        faces = {(g, s): self.face_cells(g, s) for g in range(self.ndim) for s in (0, 1)}
        return faces, _grid_layout(self.factors, frozenset((p, d) for d, cells in faces.items() for p in cells))

    def materialize(self) -> np.ndarray:
        if self._materialized is None:
            self._materialized = self.apply_caps({})
        return self._materialized

    def maybe_materialize(self) -> "np.ndarray | BlockedUnit":
        """The dense tensor if it has at most ``_MATERIALIZE_MAX_ENTRIES``
        entries, else this lazy unit."""
        total = math.prod(self.face_dim(g, s) for g in range(self.ndim) for s in (0, 1))
        return self.materialize() if total <= _MATERIALIZE_MAX_ENTRIES else self


def _as_unit(unit) -> BlockedUnit:
    """``unit`` if it is blocked, else the dense unit as a block of one cell."""
    return unit if isinstance(unit, BlockedUnit) else BlockedUnit(unit, (1,) * (np.ndim(unit) // 2))


def block_unit(unit: np.ndarray, factors: tuple[int, ...]) -> BlockedUnit:
    """Exact coarse-graining of a uniform unit tensor."""
    return BlockedUnit(unit, factors)


def _block_factors(factors, ndim: int) -> tuple[int, ...]:
    """``factors`` as ints, if they are one positive entry per grid axis."""
    factors = tuple(int(f) for f in factors)
    if len(factors) != ndim:
        raise ModelError(f"blocking factors {factors} must give one entry per grid axis")
    if any(f < 1 for f in factors):
        raise ModelError(f"blocking factors {factors} must be positive")
    return factors


def _fuse_faces(net: TensorNetwork, t: np.ndarray, faces: list[list[int]]) -> np.ndarray:
    """``t``, whose axes are ``net``'s open edges in ascending id order (as
    :func:`contract` leaves them), with the edges of each face made adjacent
    and fused into one axis, in the order ``faces`` lists them."""
    axis_of = {eid: i for i, eid in enumerate(sorted(eid for face in faces for eid in face))}
    t = t.transpose([axis_of[eid] for face in faces for eid in face])
    return t.reshape([math.prod(net.edges[eid].dim for eid in face) for face in faces])


def block(grid: GridNetwork, factors: tuple[int, ...]) -> GridNetwork:
    """Exactly coarse-grain a finite lattice network by contracting blocks of
    ``factors`` nodes into single tensors with fused cross-block bonds."""
    if grid.open_leg:
        raise ModelError("blocking of grids with open legs is not supported")
    factors = _block_factors(factors, len(grid.shape))
    if any(n % f for n, f in zip(grid.shape, factors)):
        raise ModelError(f"shape {grid.shape} is not divisible by factors {factors}")
    new_shape = tuple(n // f for n, f in zip(grid.shape, factors))
    tensors: dict[Pos, np.ndarray] = {}
    for bpos in _positions(new_shape):
        cells = [tuple(b * f + o for b, f, o in zip(bpos, factors, off)) for off in _positions(factors)]
        # The cut bonds of each face of the block, in (g, s) then cell order.
        faces = []
        for _, g, s in _site_axes(new_shape, bpos):
            rim = cells[-1][g] if s == 1 else cells[0][g]
            faces.append([grid.bond[(g, p if s == 1 else _shifted(p, g, -1))] for p in cells if p[g] == rim])
        sub = subnetwork(grid.net, [grid.node_of[p] for p in cells])
        tensors[bpos] = _fuse_faces(sub, contract(sub), faces)
    return _assemble_grid(new_shape, tensors)


# ---------------------------------------------------------------------------
# Patches
# ---------------------------------------------------------------------------

def capped_patch(
    unit,
    shape: tuple[int, ...],
    caps: dict[AxisDir, np.ndarray],
    open_axes: frozenset[tuple[Pos, AxisDir]] = frozenset(),
) -> GridNetwork:
    """Finite patch of a uniform lattice with boundary indices capped.

    ``unit`` is a dense unit tensor or a :class:`BlockedUnit`; ``caps`` maps
    each outward direction to the vector absorbed there (typically the
    self-consistent incoming messages). Directions listed in ``open_axes``
    are left as open legs instead. A direction some site must cap but
    ``caps`` lacks raises :class:`ModelError`, as :meth:`BlockedUnit.apply_caps`
    does for a cap of the wrong length."""
    ops = _as_unit(unit)
    if len(shape) != ops.ndim:
        raise ModelError(f"patch shape {shape} does not match the unit rank")
    tensors: dict[Pos, np.ndarray] = {}
    for pos in _positions(shape):
        kept = {(g, s) for _, g, s in _site_axes(shape, pos, open_axes)}
        capped = [d for d in itertools.product(range(ops.ndim), (0, 1)) if d not in kept]
        for d in capped:
            if caps.get(d) is None:
                raise ModelError(f"caps give no vector for direction {d}")
        tensors[pos] = np.asarray(ops.apply_caps({d: caps[d] for d in capped}))
    return _assemble_grid(shape, tensors, open_axes)


@dataclass
class ModelSpec:
    """Parameters selecting one benchmark network. A random grid has no
    boundary caps, so ``boundary`` does not apply to it."""

    kind: str                                   # ising2d | ising3d | aklt | random
    beta: float | None = None
    bias: float = 0.2
    seed: int = 0
    block_factors: tuple[int, ...] | None = None
    patch: tuple[int, ...] = ()
    boundary: str = "bp"                        # bp | open
    chi: int = 4
    open_axes: frozenset[tuple[Pos, AxisDir]] = frozenset()


def _blocked_patch(build, patch: tuple[int, ...], block_factors) -> GridNetwork:
    """``build(shape)`` on a lattice of ``patch`` times ``block_factors``
    cells, then blocked back to ``patch``."""
    factors = _block_factors(block_factors or (1,) * len(patch), len(patch))
    grid = build(tuple(p * f for p, f in zip(patch, factors)))
    return block(grid, factors) if any(f != 1 for f in factors) else grid


def finite_patch(spec: ModelSpec) -> GridNetwork:
    """Build the benchmark network described by ``spec``.

    For uniform models with ``boundary="bp"`` the unit (after optional
    blocking) is capped with its self-consistent messages, so the interior
    fixed point of the patch is homogeneous by construction. With
    ``boundary="open"`` the finite-lattice model is built directly (then
    blocked), which only the Ising and AKLT generators support. A random
    grid has no boundary caps: it is drawn on the fine lattice and blocked
    whatever the ``boundary``. Any ``boundary`` other than "bp" or "open"
    raises :class:`ModelError`."""
    if spec.boundary not in ("bp", "open"):
        raise ModelError(f"boundary must be 'bp' or 'open', not {spec.boundary!r}")
    if any(n < 1 for n in spec.patch):
        raise ModelError(f"patch extents {spec.patch} must be positive")
    if spec.kind == "random":
        return _blocked_patch(lambda shape: random_grid(shape, spec.chi, spec.bias, spec.seed, spec.open_axes),
                              spec.patch, spec.block_factors)
    if spec.kind in ("ising2d", "ising3d"):
        dimension = 2 if spec.kind == "ising2d" else 3
        if spec.beta is None:
            raise ModelError("Ising models need beta")
        if spec.boundary == "open":
            return _blocked_patch(lambda shape: ising_open_patch(dimension, spec.beta, shape),
                                  spec.patch, spec.block_factors)
        unit = ising_unit_tensor(dimension, spec.beta)
    elif spec.kind == "aklt":
        unit = aklt_norm_tensor()
        if spec.boundary == "open":
            ident = np.eye(2).reshape(-1)
            caps = {(g, s): ident for g in range(2) for s in (0, 1)}
            return _blocked_patch(lambda shape: capped_patch(unit, shape, caps), spec.patch, spec.block_factors)
    else:
        raise ModelError(f"unknown model kind {spec.kind!r}")
    work = block_unit(unit, spec.block_factors or (1,) * (unit.ndim // 2)).maybe_materialize()
    ubp = uniform_fixed_point(work)
    if not ubp.converged:
        raise ModelError(f"uniform message passing did not converge in {ubp.iterations} sweeps "
                         f"(last residual {ubp.residual:.2e}); try boundary='open' instead")
    return capped_patch(work, spec.patch, ubp.caps(), spec.open_axes)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def brute_force_ising(dimension: int, beta: float, shape: tuple[int, ...]) -> float:
    """Exhaustive partition sum of the open-boundary Ising patch (<= 20 spins)."""
    n = int(np.prod(shape))
    if n > 20:
        raise ModelError(f"{n} spins is beyond the exhaustive oracle")
    positions = _positions(tuple(shape))
    index = {p: i for i, p in enumerate(positions)}
    bonds = []
    for p in positions:
        for g in range(dimension):
            q = _shifted(p, g, 1)
            if q in index:
                bonds.append((index[p], index[q]))
    states = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1
    energy = np.zeros(2**n)
    for i, j in bonds:
        energy += states[:, i] * states[:, j]
    return float(np.sum(np.exp(beta * energy)))


@functools.lru_cache(maxsize=None)
def ising_free_energy_2d(beta: float) -> float:
    """Onsager free energy density of the infinite square-lattice Ising
    model, in the dimensionless convention f = -lim log(Z_N)/N."""
    c2 = math.cosh(2.0 * beta) ** 2
    s = math.sinh(2.0 * beta)

    def integrand(t1: float, t2: float) -> float:
        return math.log(c2 - s * (math.cos(t1) + math.cos(t2)))

    val, _ = integrate.dblquad(integrand, 0.0, math.pi, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12)
    return -math.log(2.0) - val / (2.0 * math.pi**2)
