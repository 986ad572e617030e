"""Tensor network data model and exact contraction.

A :class:`TensorNetwork` is a graph whose nodes hold dense tensors and whose
edges identify pairs of tensor axes that are summed over. Edges with a single
attachment are *open*: their axes survive contraction and appear in the
result in ascending edge-id order. Edge ids are stable integers assigned at
construction; every canonical ordering in the package derives from them.

The ``insert_joint_*`` functions insert an operator over the joint space
of several edges. Expansion builders absorb their single-edge operators
with :func:`absorb_matrix` directly, sharing the dressed tensors between
terms (see :mod:`pne.expansion`).

:func:`apply_insertions` is the public single-edge API: it inserts
:class:`Identity`, :class:`ProjectorP` (absorbed as its isometric factor,
shrinking the edge) and :class:`DenseOp` (absorbed into one endpoint),
each checked before use. No code inside the package calls it. It stays
because the benchmark tracer (``perfbench/tracing.py``) wraps it by name
as its ``insert`` layer, and fails to start without it; it can go once
that layer is pointed elsewhere.

:func:`contract` runs a *compiled* plan. A plan is compiled once per network
layout (node ids, each edge's id, endpoints with their axes, and dim) into
a program of steps over slots of the node list. A pair step stores the
permutations, the ``(m, k)`` and ``(k, n)`` matrix shapes and the output
shape that ``np.tensordot`` would derive from the step's axis lists on
every call, and runs the same transpose, reshape, ``np.dot`` and reshape,
so every value has ``np.tensordot``'s bits. Trace and outer steps store
their operands and axes, and the program ends with the permutation that
puts the open edges in ascending edge-id order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from pne.tensor import asarray

__all__ = [
    "NetworkError",
    "InsertionError",
    "MemoryBudgetError",
    "Edge",
    "TensorNetwork",
    "Identity",
    "ProjectorP",
    "DenseOp",
    "EdgeInsertion",
    "PlanStep",
    "ContractionPlan",
    "validate",
    "subnetwork",
    "absorb_matrix",
    "checked_isometry",
    "apply_insertions",
    "insert_joint_ketbra",
    "insert_joint_isometry",
    "insert_joint_dense",
    "contract",
    "plan_order",
]

DEFAULT_MEMORY_CAP_BYTES = 2 * 1024**3


class NetworkError(ValueError):
    """Structural problem with a tensor network."""


class InsertionError(NetworkError):
    """An edge insertion cannot be realized."""


class MemoryBudgetError(NetworkError):
    """A contraction would exceed the configured memory cap."""

    def __init__(self, msg: str, shape: tuple[int, ...]):
        super().__init__(msg)
        self.shape = shape


@dataclass(frozen=True)
class Edge:
    """Attachment record for one network edge.

    ``endpoints`` holds one ``(node_id, axis)`` pair for an open edge and two
    for a closed edge. The first endpoint is the edge *tail*; directed
    quantities (messages, gauge factors) use tail -> head as the positive
    orientation.
    """

    endpoints: tuple[tuple[int, int], ...]
    dim: int

    @property
    def is_open(self) -> bool:
        return len(self.endpoints) == 1


@dataclass
class TensorNetwork:
    nodes: dict[int, np.ndarray]
    edges: dict[int, Edge]

    @classmethod
    def build(
        cls,
        tensors: Mapping[int, np.ndarray],
        attachments: Mapping[int, Sequence[tuple[int, int]]],
    ) -> "TensorNetwork":
        """Construct a network from tensors and per-edge attachment lists.

        Each edge's dim is the extent of its first valid endpoint axis;
        :func:`validate` then reports every structural violation at once.
        """
        nodes = {int(n): asarray(t) for n, t in tensors.items()}
        edges: dict[int, Edge] = {}
        for eid, eps in attachments.items():
            eps = tuple((int(n), int(ax)) for n, ax in eps)
            dims = [nodes[n].shape[ax] for n, ax in eps if n in nodes and 0 <= ax < nodes[n].ndim]
            edges[int(eid)] = Edge(endpoints=eps, dim=dims[0] if dims else 0)
        net = cls(nodes=nodes, edges=edges)
        problems = validate(net)
        if problems:
            raise NetworkError("; ".join(problems))
        return net

    def copy(self) -> "TensorNetwork":
        return TensorNetwork(nodes=dict(self.nodes), edges=dict(self.edges))

    def attachments(self, nid: int) -> Iterator[tuple[int, int, int]]:
        """``(edge id, endpoint slot, axis)`` of every attachment of node
        ``nid``, in edge-dict order (a self-loop yields both of its slots)."""
        for eid, edge in self.edges.items():
            for slot, (n, ax) in enumerate(edge.endpoints):
                if n == nid:
                    yield eid, slot, ax

    def attachment_index(self) -> dict[int, list[tuple[int, int, int]]]:
        """:meth:`attachments` of every node from one pass over the edges.

        It stays valid while no edge is added, removed or re-attached;
        changing an edge's ``dim`` alone keeps it valid."""
        index: dict[int, list[tuple[int, int, int]]] = {nid: [] for nid in self.nodes}
        for eid, edge in self.edges.items():
            for slot, (n, ax) in enumerate(edge.endpoints):
                index[n].append((eid, slot, ax))
        return index

    def node_axes(self, nid: int) -> list[int | None]:
        """Edge id attached to each axis of node ``nid`` (None if uncovered)."""
        axes: list[int | None] = [None] * self.nodes[nid].ndim
        for eid, _slot, ax in self.attachments(nid):
            axes[ax] = eid
        return axes

    def open_edge_ids(self) -> list[int]:
        return sorted(eid for eid, e in self.edges.items() if e.is_open)

    @property
    def is_closed(self) -> bool:
        return not any(e.is_open for e in self.edges.values())

    def next_node_id(self) -> int:
        return max(self.nodes, default=-1) + 1

    def next_edge_id(self) -> int:
        return max(self.edges, default=-1) + 1


def validate(net: TensorNetwork) -> list[str]:
    """Return a list of structural violations (empty when the network is ok)."""
    problems: list[str] = [] if net.nodes else ["network has no nodes"]
    seen: dict[tuple[int, int], int] = {}
    for eid, edge in net.edges.items():
        if not 1 <= len(edge.endpoints) <= 2:
            problems.append(f"edge {eid}: has {len(edge.endpoints)} endpoints")
            continue
        for n, ax in edge.endpoints:
            if n not in net.nodes:
                problems.append(f"edge {eid}: unknown node {n}")
                continue
            t = net.nodes[n]
            if not 0 <= ax < t.ndim:
                problems.append(f"edge {eid}: node {n} has no axis {ax}")
                continue
            if t.shape[ax] != edge.dim:
                problems.append(
                    f"edge {eid}: extent {t.shape[ax]} of node {n} axis {ax} != edge dim {edge.dim}"
                )
            key = (n, ax)
            if key in seen:
                problems.append(f"axis {ax} of node {n} covered by edges {seen[key]} and {eid}")
            else:
                seen[key] = eid
    for n, t in net.nodes.items():
        for ax in range(t.ndim):
            if (n, ax) not in seen:
                problems.append(f"axis {ax} of node {n} is not covered by any edge")
    return problems


def subnetwork(net: TensorNetwork, node_ids: Iterable[int]) -> TensorNetwork:
    """The nodes ``node_ids`` of ``net`` and every edge that touches them.

    Node and edge ids are kept. An edge the selection cuts becomes an open
    edge at its inside endpoint."""
    keep = set(node_ids)
    edges = {}
    for eid, edge in net.edges.items():
        inside = tuple(ep for ep in edge.endpoints if ep[0] in keep)
        if inside:
            edges[eid] = Edge(endpoints=inside, dim=edge.dim)
    return TensorNetwork(nodes={n: t for n, t in net.nodes.items() if n in keep}, edges=edges)


# ---------------------------------------------------------------------------
# Edge insertions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class ProjectorP:
    """Rank-r orthogonal projector, stored as its d x r isometric factor.

    Realized by absorbing the isometry into both endpoint tensors, shrinking
    the edge extent to r.
    """

    isometry: np.ndarray


@dataclass(frozen=True)
class DenseOp:
    """Square dense operator absorbed into one endpoint (extent unchanged).

    ``side`` 0 absorbs into the tail, 1 into the head; ``None`` picks the
    endpoint with the smaller tensor (ties to the tail). When both sides of
    an edge carry dense absorptions the combined inserted operator is
    ``m_tail @ m_head``.
    """

    matrix: np.ndarray
    side: int | None = None


Operator = Identity | ProjectorP | DenseOp


@dataclass(frozen=True)
class EdgeInsertion:
    edge: int
    op: Operator


def absorb_matrix(t: np.ndarray, ax: int, m: np.ndarray, head_side: bool) -> np.ndarray:
    """Contract matrix ``m`` onto axis ``ax`` of ``t`` and restore axis order.

    Tail side: new_axis_j = sum_i t[..i..] m[i, j]. Head side:
    new_axis_j = sum_k m[j, k] t[..k..].

    Runs ``np.tensordot(t, m, axes=([ax], [1 if head_side else 0]))``'s
    own transpose, reshape and ``np.dot``, without its argument handling, so
    the result has its bits.
    """
    rest = t.shape[:ax] + t.shape[ax + 1:]
    at = t.transpose(*range(ax), *range(ax + 1, t.ndim), ax).reshape(math.prod(rest), t.shape[ax])
    out = np.dot(at, m.T if head_side else m)
    return out.reshape(rest + out.shape[1:]).transpose(*range(ax), t.ndim - 1, *range(ax, t.ndim - 1))


def checked_isometry(u, dim: int, error: type[NetworkError], what: str) -> np.ndarray:
    """``u`` as an array, if it is a (dim, r) isometry: 1 <= r <= dim and
    orthonormal columns to atol 1e-8. Otherwise raises ``error``, its
    message led by ``what``."""
    u = asarray(u)
    if u.ndim != 2 or u.shape[0] != dim or not 1 <= u.shape[1] <= dim:
        raise error(f"{what}: shape {u.shape} is incompatible with dim {dim}")
    if not np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-8):
        raise error(f"{what}: columns are not orthonormal")
    return u


def apply_insertions(
    net: TensorNetwork,
    insertions: Iterable[EdgeInsertion],
) -> TensorNetwork:
    """Return a new network equal to ``net`` with operators inserted on edges.

    The contraction of the returned network equals the contraction of the
    original with the stated operators inserted. Insertions must reference
    distinct existing edges.
    """
    out = net.copy()
    seen: set[int] = set()
    for ins in insertions:
        eid, op = ins.edge, ins.op
        if eid not in out.edges:
            raise InsertionError(f"edge {eid} does not exist")
        if eid in seen:
            raise InsertionError(f"edge {eid} referenced by more than one insertion")
        seen.add(eid)
        edge = out.edges[eid]
        if isinstance(op, Identity):
            continue
        if isinstance(op, ProjectorP):
            if edge.is_open:
                raise InsertionError(f"edge {eid} is open; projectors apply to closed edges")
            u = checked_isometry(op.isometry, edge.dim, InsertionError, f"edge {eid}: projector factor")
            for n, ax in edge.endpoints:
                out.nodes[n] = absorb_matrix(out.nodes[n], ax, u, head_side=False)
            out.edges[eid] = Edge(endpoints=edge.endpoints, dim=u.shape[1])
        elif isinstance(op, DenseOp):
            m = asarray(op.matrix)
            if m.shape != (edge.dim, edge.dim):
                raise InsertionError(f"edge {eid}: dense operator shape {m.shape} != ({edge.dim}, {edge.dim})")
            side = op.side
            if side is None:
                if edge.is_open:
                    side = 0
                else:
                    sizes = [out.nodes[n].size for n, _ in edge.endpoints]
                    side = 0 if sizes[0] <= sizes[1] else 1
            if side >= len(edge.endpoints):
                raise InsertionError(f"edge {eid} is open; dense side must be 0")
            n, ax = edge.endpoints[side]
            out.nodes[n] = absorb_matrix(out.nodes[n], ax, m, head_side=(side == 1))
        else:
            raise InsertionError(f"unknown operator {op!r}")
    return out


def _joint_dims(net: TensorNetwork, edge_ids: Sequence[int]) -> tuple[list[int], int]:
    """Extents of the closed edges of a joint insertion and their product."""
    dims = []
    for eid in edge_ids:
        edge = net.edges[eid]
        if edge.is_open:
            raise InsertionError(f"edge {eid} is open; joint insertions need closed edges")
        dims.append(edge.dim)
    return dims, math.prod(dims)


def _cut_joint(
    net: TensorNetwork,
    edge_ids: Sequence[int],
    tail: np.ndarray,
    head: np.ndarray | None = None,
) -> tuple[TensorNetwork, dict[int, int]]:
    """Cut the edges and wire them through new nodes.

    Edge m's tail attachment joins axis m of the ``tail`` node and its head
    attachment joins axis m of the ``head`` node, or axis k + m of ``tail``
    when there is no ``head`` (k edges). The new nodes take the next free
    node ids and each cut edge the next two free edge ids (tail side first),
    in ``edge_ids`` order. Returns the new network plus, per cut edge, the
    id of its head-side edge.
    """
    out = net.copy()
    tail_node = head_node = out.next_node_id()
    out.nodes[tail_node] = tail
    offset = len(edge_ids)
    if head is not None:
        head_node, offset = tail_node + 1, 0
        out.nodes[head_node] = head
    next_eid = out.next_edge_id()
    continuation: dict[int, int] = {}
    for m, eid in enumerate(edge_ids):
        edge = out.edges.pop(eid)
        (tn, tax), (hn, hax) = edge.endpoints
        out.edges[next_eid] = Edge(endpoints=((tn, tax), (tail_node, m)), dim=edge.dim)
        out.edges[next_eid + 1] = Edge(endpoints=((head_node, offset + m), (hn, hax)), dim=edge.dim)
        continuation[eid] = next_eid + 1
        next_eid += 2
    return out, continuation


def insert_joint_ketbra(
    net: TensorNetwork,
    edge_ids: Sequence[int],
    ket: np.ndarray,
    bra: np.ndarray,
    scale: float = 1.0,
) -> TensorNetwork:
    """Insert a rank-1 operator ``scale * |ket><bra|`` over the joint space of
    several edges.

    The edges are cut; a ket node joins their tail attachments and a bra node
    joins the head attachments (each reshaped over the per-edge extents).
    """
    dims, bigdim = _joint_dims(net, edge_ids)
    ket = asarray(ket).reshape(-1)
    bra = asarray(bra).reshape(-1)
    if ket.size != bigdim or bra.size != bigdim:
        raise InsertionError(f"joint vectors of length {ket.size}/{bra.size} != merged dim {bigdim}")
    out, _ = _cut_joint(net, edge_ids, (scale * ket).reshape(dims), bra.reshape(dims))
    return out


def insert_joint_isometry(
    net: TensorNetwork,
    edge_ids: Sequence[int],
    isometry: np.ndarray,
) -> TensorNetwork:
    """Insert the orthogonal projector ``W W^T`` over the joint space of
    several edges without materializing it densely.

    ``W`` is (D, r); it becomes a (k+1)-leg node on each side of the cut,
    joined by a new rank-r edge.
    """
    dims, bigdim = _joint_dims(net, edge_ids)
    w = checked_isometry(isometry, bigdim, InsertionError, "joint projector factor over the merged edges")
    r = w.shape[1]
    k = len(dims)
    tail_node = net.next_node_id()
    out, _ = _cut_joint(net, edge_ids, w.reshape(dims + [r]), w.reshape(dims + [r]))
    out.edges[out.next_edge_id()] = Edge(endpoints=((tail_node, k), (tail_node + 1, k)), dim=r)
    return out


def insert_joint_dense(
    net: TensorNetwork,
    edge_ids: Sequence[int],
    op: np.ndarray,
) -> tuple[TensorNetwork, dict[int, int]]:
    """Insert a dense operator over the joint space of several edges.

    ``op`` is (D, D) with D the product of the edge extents; it becomes a
    single 2k-leg node wired between the tail and head attachments. Returns
    the new network plus, per input edge, the id of the head-side edge: a
    later operator inserted there composes on the right of this one.
    """
    dims, bigdim = _joint_dims(net, edge_ids)
    op = asarray(op)
    if op.shape != (bigdim, bigdim):
        raise InsertionError(f"joint operator shape {op.shape} != ({bigdim}, {bigdim})")
    return _cut_joint(net, edge_ids, op.reshape(dims + dims))


# ---------------------------------------------------------------------------
# Contraction planning and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    kind: str              # "trace" | "pair" | "outer"
    nodes: tuple[int, ...]  # (node,) for trace, (a, b) otherwise
    result: int             # surviving node id
    flops: int              # product of the extents of all involved indices
    result_entries: int


@dataclass(frozen=True)
class ContractionPlan:
    steps: tuple[PlanStep, ...]
    total_flops: int
    peak_step_flops: int
    peak_result_entries: int

    def cost_exponent(self, chi: float) -> float:
        """Peak step cost as a power of ``chi`` (exact when all extents are
        chi or 1)."""
        if self.peak_step_flops <= 1:
            return 0.0
        return math.log(self.peak_step_flops) / math.log(chi)


# A network's layout: its node ids and, in edge-dict order, each edge's
# (edge id, (node, axis) endpoints, dim). It keys the cache of plans and
# compiled programs.
Layout = tuple[tuple[int, ...], tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]]

# What a planner reads of a layout: its node ids and each edge's (edge id,
# endpoint node ids, dim).
PlanKey = tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...], int], ...]]


def _layout(net: TensorNetwork) -> Layout:
    return tuple(net.nodes), tuple([(eid, e.endpoints, e.dim) for eid, e in net.edges.items()])


def _planner_key(layout: Layout) -> PlanKey:
    node_ids, edges = layout
    return node_ids, tuple((eid, tuple(n for n, _ in ends), int(dim)) for eid, ends, dim in edges)


class _Planner:
    """The bookkeeping every plan strategy shares: the strategies choose the
    pairs, and :meth:`merge` records each step's cost and kind.

    Each live node keeps its legs as an ``{edge id: dim}`` dict in key edge
    order. Self-loops are traced when the planner is built, in (node, edge
    id) order; a trace step's flops count every loop not yet traced twice.
    """

    def __init__(self, key: PlanKey):
        node_ids, edges = key
        self.legs: dict[int, dict[int, int]] = {n: {} for n in node_ids}
        self.steps: list[PlanStep] = []
        loops = []
        for eid, ends, dim in edges:
            if len(ends) == 2 and ends[0] == ends[1]:
                self.legs[ends[0]][eid] = dim * dim   # both of its axes, until traced
                loops.append((ends[0], eid))
            else:
                for n in ends:
                    self.legs[n][eid] = dim
        for n, eid in sorted(loops):
            legs = self.legs[n]
            flops = math.prod(legs.values()) or 1
            del legs[eid]
            self.steps.append(PlanStep("trace", (n,), n, flops, math.prod(legs.values()) or 1))

    def adjacent(self, a: int, b: int) -> bool:
        return not self.legs[a].keys().isdisjoint(self.legs[b])

    def entries(self, a: int, b: int) -> int:
        """Entries of the tensor that merging ``a`` and ``b`` would make."""
        la, lb = self.legs[a], self.legs[b]
        return math.prod(d for e, d in (la | lb).items() if e not in la or e not in lb) or 1

    def merge(self, a: int, b: int):
        """Contract node ``b`` into node ``a``: an ``"outer"`` step when they
        share no edge, else a ``"pair"`` step. ``a`` keeps its unshared legs
        followed by ``b``'s."""
        la, lb = self.legs[a], self.legs.pop(b)
        union = la | lb
        kept = {e: d for e, d in union.items() if e not in la or e not in lb}
        self.legs[a] = kept
        kind = "pair" if len(kept) < len(union) else "outer"
        flops = math.prod(union.values()) or 1
        self.steps.append(PlanStep(kind, (a, b), a, flops, math.prod(kept.values()) or 1))

    def plan(self) -> ContractionPlan:
        return ContractionPlan(
            steps=tuple(self.steps),
            total_flops=sum(s.flops for s in self.steps),
            peak_step_flops=max((s.flops for s in self.steps), default=0),
            peak_result_entries=max((s.result_entries for s in self.steps), default=0),
        )


def _plan_greedy(key: PlanKey, seed: int | None = None) -> ContractionPlan:
    """Greedy: contract the adjacent pair with the smallest merged tensor.

    With ``seed=None`` ties break on node ids; otherwise among the tied
    pairs, in node-id order, a seeded choice is made, which lets a handful
    of restarts escape the bias of any fixed tie order. A merge changes the
    score of the pairs that touch the merged node only, so only those are
    scored again."""
    rng = np.random.default_rng(seed) if seed is not None else None
    pl = _Planner(key)
    ends: dict[int, list[int]] = {}
    for n in sorted(pl.legs):
        for eid in pl.legs[n]:
            ends.setdefault(eid, []).append(n)
    scores = {(a, b): pl.entries(a, b) for a, b in {tuple(ns) for ns in ends.values() if len(ns) == 2}}
    while len(pl.legs) > 1:
        if not scores:
            a, b = sorted(pl.legs)[:2]
        else:
            lowest = min(scores.values())
            pool = sorted(p for p, score in scores.items() if score == lowest)
            a, b = pool[0] if rng is None else pool[int(rng.integers(len(pool)))]
        pl.merge(a, b)
        scores = {p: score for p, score in scores.items() if a not in p and b not in p}
        for c in pl.legs:
            if c != a and pl.adjacent(a, c):
                scores[min(a, c), max(a, c)] = pl.entries(a, c)
    return pl.plan()


def _plan_sweep(key: PlanKey, reverse: bool = False) -> ContractionPlan:
    """Sweep: absorb nodes into an accumulator in node-id order, preferring
    adjacent nodes. Node ids of lattice builders follow row-major position
    order, so this reproduces the boundary sweep whose frontier is one
    lattice cross-section (``reverse`` sweeps from the other end)."""
    pl = _Planner(key)
    while len(pl.legs) > 1:
        acc, *rest = sorted(pl.legs, reverse=reverse)
        nxt = next((b for b in rest if pl.adjacent(acc, b)), rest[0])
        pl.merge(min(acc, nxt), max(acc, nxt))
    return pl.plan()


DP_NODE_CAP = 10
GREEDY_RESTARTS = 8


def _plan_dp(key: PlanKey) -> ContractionPlan:
    """Subset dynamic program over binary contraction trees (the sequence
    search of Pfeifer, Haegeman & Verstraete, PRE 90, 033315 (2014)): the
    least peak step flops, exactly.

    Among the splits of a subset that tie on the peak it keeps the one with
    the least total flops within that subset (then the lower subset mask),
    which need not give the least total over the whole tree. Exponential in
    the node count; only used below :data:`DP_NODE_CAP`.
    """
    pl = _Planner(key)
    nodes = sorted(pl.legs)
    n = len(nodes)
    pos = {nid: i for i, nid in enumerate(nodes)}
    # Each edge as (mask of its end nodes, dim). An open edge also holds bit
    # n, which no subset holds, so a subset that touches it always keeps it;
    # a subset never keeps a (traced) self-loop.
    edges = [(sum(1 << pos[x] for x in set(ends)) | (len(ends) == 1) << n, dim)
             for _, ends, dim in key[1]]
    # size[mask]: product of the dims of the legs the subset keeps.
    size = [math.prod(d for m, d in edges if 0 != mask & m != m) for mask in range(1 << n)]

    best: list[tuple[int, int]] = [(0, 0)] * (1 << n)
    split: list[int] = [0] * (1 << n)
    for mask in range(1, 1 << n):
        lowest = mask & -mask
        rest = mask ^ lowest
        if not rest:
            continue
        sub = (rest - 1) & rest
        choice = None
        while True:
            a = sub | lowest
            b = mask ^ a
            # legs(a) + legs(b) = legs(a | b) + 2 x (the a-b bonds), and a
            # step's flops are the product over legs(a | b) and the bonds.
            flops = math.isqrt(size[a] * size[b] * size[mask])
            pa, ta = best[a]
            pb, tb = best[b]
            cand = (max(pa, pb, flops), ta + tb + flops)
            if choice is None or cand < choice[0] or (cand == choice[0] and a < choice[1]):
                choice = (cand, a)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask], split[mask] = choice

    _emit_merges((1 << n) - 1, split, nodes, pl)
    return pl.plan()


def _emit_merges(mask: int, split: list[int], nodes: list[int], pl: _Planner) -> int:
    """Merge the DP split tree under ``mask`` in post-order; return the node
    id that survives."""
    if mask & (mask - 1) == 0:
        return nodes[mask.bit_length() - 1]
    a = split[mask]
    ra = _emit_merges(a, split, nodes, pl)
    rb = _emit_merges(mask ^ a, split, nodes, pl)
    lo, hi = min(ra, rb), max(ra, rb)
    pl.merge(lo, hi)
    return lo


# An entry holds about 3 KB; one round of the three expand-finite presets
# on chi=16 patches needs about 200 of them.
PLAN_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan_for(layout: Layout) -> tuple[ContractionPlan, _Program]:
    # The heuristics still run under DP_NODE_CAP. On 454 DP-eligible preset
    # structures none beat the DP strictly, but in 245 a heuristic ties it
    # with a different plan and wins by list order: dropping them would
    # contract those networks in another order and move value bits.
    key = _planner_key(layout)
    candidates = [_plan_sweep(key), _plan_sweep(key, reverse=True), _plan_greedy(key)]
    candidates += [_plan_greedy(key, seed=k) for k in range(GREEDY_RESTARTS)]
    if len(key[0]) <= DP_NODE_CAP:
        candidates.append(_plan_dp(key))
    plan = min(candidates, key=lambda p: (p.peak_step_flops, p.total_flops))
    return plan, _compile(plan, layout)


def plan_order(net: TensorNetwork) -> ContractionPlan:
    """Deterministic pairwise contraction plan.

    Evaluates the id-order sweep, the reversed sweep, the greedy heuristic,
    :data:`GREEDY_RESTARTS` greedy restarts with seeded tie-breaks and, on
    networks of at most :data:`DP_NODE_CAP` nodes, a subset DP whose peak
    step cost is the least possible. It keeps the plan with the lowest peak
    step cost, then total flops, the earlier candidate on ties (plain greedy
    misjudges wide lattices, where the sweep's cross-section frontier is the
    right shape). Disconnected components end in outer products between the
    smallest surviving node ids.

    Plans are memoized for the whole process by layout: node ids and each
    edge's id, endpoints (node and axis) and dim, never tensor values. The
    strategies read only node ids and dims, so layouts that differ only in
    axes get equal plans; the key holds the axes because the same entry
    holds the plan compiled for :func:`contract`. Networks that share a
    layout share one plan object while it stays cached. The network is
    still validated on every call; expansion builds skip that for their
    terms (see :mod:`pne.expansion`).
    """
    problems = validate(net)
    if problems:
        raise NetworkError("cannot plan an invalid network: " + "; ".join(problems))
    return _plan_for(_layout(net))[0]


_TRACE, _PAIR, _OUTER = range(3)


@dataclass(frozen=True)
class _Program:
    """A plan compiled for one layout (see :func:`_compile`)."""

    # (kind, slot a, slot b, result slot, arguments): a pair's arguments are
    # (perm_a, (m, k), perm_b, (k, n), output shape), a trace's its two axes.
    steps: tuple[tuple, ...]
    last: int                          # slot that holds the result
    final: tuple[int, ...] | None      # open axes to ascending edge ids
    peak_entries: int                  # entries of the largest step result


def _compile(plan: ContractionPlan, layout: Layout) -> _Program:
    """Compile ``plan`` for ``layout``.

    Tracks each live node's axis edge ids through the steps the way an
    uncompiled contraction would: a trace removes the node's smallest
    self-loop; a pair contracts the shared edges in ascending id order,
    keeping ``a``'s other axes and then ``b``'s; nodes that share no edge
    take an outer product. A plan made for another wiring of the same nodes
    therefore still contracts this network correctly, and the program's
    ``peak_entries`` is the largest result it makes on this network (equal to
    the plan's ``peak_result_entries`` when the plan was made for this
    layout). Raises :class:`NetworkError` when the plan does not fit the
    network's nodes.
    """
    node_ids, edges = layout
    planned = {n for s in plan.steps for n in s.nodes}
    if planned != set(node_ids) and (planned or len(node_ids) > 1):
        raise NetworkError(
            f"plan is for nodes {sorted(planned)}, but the network has nodes {sorted(node_ids)}"
        )
    slot = {n: i for i, n in enumerate(node_ids)}
    dims = {eid: int(dim) for eid, _, dim in edges}
    live: dict[int, list[int]] = {n: [] for n in node_ids}
    for eid, ends, _ in edges:
        for n, ax in ends:
            legs = live[n]
            legs.extend([-1] * (ax + 1 - len(legs)))
            legs[ax] = eid

    steps = []
    peak = 0
    for k, step in enumerate(plan.steps):
        gone = [n for n in step.nodes if n not in live]
        if gone or step.result not in step.nodes:
            raise NetworkError(f"plan step {k} ({step.kind} of nodes {step.nodes}, keeping "
                               f"{step.result}) uses nodes that are merged or not its own")
        if step.kind == "trace":
            (n,) = step.nodes
            legs = live[n]
            loops = [e for e in set(legs) if legs.count(e) == 2]
            if not loops:
                raise NetworkError(f"plan step {k} traces node {n}, which has no self-loop")
            eid = min(loops)
            i, j = (i for i, e in enumerate(legs) if e == eid)
            steps.append((_TRACE, slot[n], slot[n], slot[n], (i, j)))
            live[n] = [e for e in legs if e != eid]
            peak = max(peak, math.prod(dims[e] for e in live[n]) or 1)
            continue
        a, b = step.nodes
        la, lb = live.pop(a), live.pop(b)
        shared = sorted(set(la) & set(lb))
        if shared:
            ax_a = [la.index(e) for e in shared]
            ax_b = [lb.index(e) for e in shared]
            rest_a = [i for i in range(len(la)) if i not in ax_a]
            rest_b = [i for i in range(len(lb)) if i not in ax_b]
            kept_a = [dims[la[i]] for i in rest_a]
            kept_b = [dims[lb[i]] for i in rest_b]
            inner = math.prod(dims[e] for e in shared)
            steps.append((_PAIR, slot[a], slot[b], slot[step.result], (
                tuple(rest_a + ax_a), (math.prod(kept_a), inner),
                tuple(ax_b + rest_b), (inner, math.prod(kept_b)), tuple(kept_a + kept_b))))
        else:
            steps.append((_OUTER, slot[a], slot[b], slot[step.result], ()))
        live[step.result] = [e for e in la if e not in shared] + [e for e in lb if e not in shared]
        peak = max(peak, math.prod(dims[e] for e in live[step.result]) or 1)

    if len(live) != 1:
        raise NetworkError(f"plan leaves nodes {sorted(live)} uncontracted")
    ((last, open_ids),) = live.items()
    final = tuple(sorted(range(len(open_ids)), key=open_ids.__getitem__)) if open_ids else None
    return _Program(steps=tuple(steps), last=slot[last], final=final, peak_entries=peak)


def contract(
    net: TensorNetwork,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
    plan: ContractionPlan | None = None,
) -> np.ndarray:
    """Contract the network exactly.

    Closed networks yield a rank-0 array; open edges become result axes in
    ascending edge-id order. Raises :class:`MemoryBudgetError` before
    materializing an intermediate larger than ``memory_cap_bytes``, sized
    from the steps the program runs on this network.

    Runs the program compiled with the cached plan of the network's layout
    (planning the layout if it is not cached). An explicit ``plan`` that is
    not that cached plan is compiled for this network on each call; one
    that does not fit its nodes raises :class:`NetworkError`.
    """
    if plan is None:
        plan = plan_order(net)
    layout = _layout(net)
    cached, program = _plan_for(layout)
    if plan is not cached:
        program = _compile(plan, layout)
    big = program.peak_entries
    if big * 8 > memory_cap_bytes:
        raise MemoryBudgetError(
            f"planned intermediate of {big} entries ({big * 8} bytes) "
            f"exceeds the {memory_cap_bytes}-byte cap",
            shape=(big,),
        )

    tensors = list(net.nodes.values())
    for kind, a, b, out, args in program.steps:
        if kind == _PAIR:
            perm_a, shape_a, perm_b, shape_b, shape = args
            res = np.dot(tensors[a].transpose(perm_a).reshape(shape_a),
                         tensors[b].transpose(perm_b).reshape(shape_b)).reshape(shape)
        elif kind == _OUTER:
            res = np.multiply.outer(tensors[a], tensors[b])
        else:
            res = np.trace(tensors[a], axis1=args[0], axis2=args[1])
        tensors[a] = tensors[b] = None     # let consumed operands be freed
        tensors[out] = res
    result = tensors[program.last]
    return result if program.final is None else result.transpose(program.final)
