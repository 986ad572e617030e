"""Partitioned expansions of network contractions.

A *partition* selects a set of edges and a projector on their joint index
space: one isometry per edge (:class:`Factorized`), or a pair ``tail @
head.T`` over the merged space (:class:`JointPair`), which holds any
idempotent matrix, oblique or orthogonal. Its complement is never
materialized at full extent. The linear form telescopes the contraction
into M terms (prefix of complements, then the projector); the
combinatorial form is an inclusion-exclusion over the 2^M - 1 non-empty
activation patterns. Both are exact identities once the all-complement
*residue* is added back, for any network and any idempotent projectors.

Every term and every residue is one *pattern*: partition k carries the
identity ("I"), its projector ("P") or its complement ("Q"). A pattern's
network takes the complements first, in partition order, then the
projectors, with a factor shared by several partitions absorbed once.

The terms of one build differ only in what sits on a few edges, so most of
their dressed node tensors recur, and their layouts depend on the network's
layout and the partitions' structure, never on tensor values. A build is
therefore split in two. Its *program*, compiled once per structure and
cached, lists the distinct node variants in creation order (a node tensor
with an ordered prefix of absorbed operators, made from the next shorter
prefix) and, per term, the variant of each node, the term's edge dict and
its plan. A *replay* runs one :func:`absorb_matrix` per variant with the
build's own operands, in the order stated above, so a term's bits are those
of building it alone, then wraps each term's nodes and a copy of its edge
dict in a network. Shared arrays are read-only; the program holds no
tensor. Each factor (shape and orthonormality) and each joint pair (shape
and biorthogonality) is checked once per build, not once per term, and a
build validates its input network before it builds any term, cached
program or not. The first build of a structure takes its term plans from
:func:`plan_order`; :func:`evaluate` contracts each term with
:func:`contract`.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from pne.network import (
    DEFAULT_MEMORY_CAP_BYTES,
    ContractionPlan,
    Edge,
    MemoryBudgetError,
    NetworkError,
    TensorNetwork,
    _layout,
    _near_identity,
    _wire_joint,
    absorb_matrix,
    checked_isometry,
    contract,
    plan_order,
    validate,
)
from pne.tensor import asarray, basis_columns

__all__ = [
    "ExpansionError",
    "Factorized",
    "JointPair",
    "Partition",
    "ExpansionTerm",
    "Expansion",
    "build_linear",
    "build_combinatorial",
    "evaluate",
    "EvalResult",
    "evaluate_residue",
    "residue_pattern_sum",
    "residue_degrees",
    "recursive_expand",
]

COMBINATORIAL_CAP = 12


class ExpansionError(NetworkError):
    pass


@dataclass(frozen=True)
class Factorized:
    """One isometric factor per partition edge; the joint projector is the
    tensor product of the per-edge rank-r_k projectors."""

    factors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class JointPair:
    """The projector ``tail @ head.T`` over the merged edge space: ``tail``
    and ``head`` are (D, r) with ``head.T @ tail = I_r``, so every rank-r
    idempotent matrix is one, and it need not factorize over the edges. An
    isometry ``w`` gives the orthogonal projector ``JointPair(w, w)``."""

    tail: np.ndarray
    head: np.ndarray

    @classmethod
    def ketbra(cls, ket, bra) -> JointPair:
        """The oblique rank-1 projector ``|ket><bra| / <bra|ket>``, e.g. from
        two-site fixed-point messages whose symmetrizing gauge cannot be
        absorbed into separate endpoint tensors."""
        ket = asarray(ket).reshape(-1)
        bra = asarray(bra).reshape(-1)
        ov = float(bra @ ket)
        if abs(ov) < 1e-14:
            raise ExpansionError(f"ket/bra overlap {ov:.2e} is numerically singular")
        return cls((1.0 / ov) * ket[:, None], bra[:, None])


Projector = Factorized | JointPair


@dataclass(frozen=True)
class Partition:
    id: int
    edges: tuple[int, ...]
    projector: Projector

    def __post_init__(self):
        if len(set(self.edges)) != len(self.edges):
            raise ExpansionError(f"partition {self.id}: repeated edge in {self.edges}")
        if isinstance(self.projector, Factorized) and len(self.projector.factors) != len(self.edges):
            raise ExpansionError(
                f"partition {self.id}: {len(self.projector.factors)} factors for {len(self.edges)} edges"
            )

    @property
    def is_single_edge(self) -> bool:
        return len(self.edges) == 1

    def rank(self) -> int:
        if isinstance(self.projector, Factorized):
            return math.prod(f.shape[1] for f in self.projector.factors)
        return self.projector.tail.shape[1]

    def dense_matrix(self) -> np.ndarray:
        """The projector as a dense matrix on the merged edge space."""
        if isinstance(self.projector, Factorized):
            mat = np.array([[1.0]])
            for f in self.projector.factors:
                f = asarray(f)
                mat = np.kron(mat, f @ f.T)
            return mat
        return asarray(self.projector.tail) @ asarray(self.projector.head).T


# An entry holds no tensor, and about 100 KiB at most among the presets (the
# 63 terms of grid3x3-chi4); one expand-finite run uses 15.
PROGRAM_CACHE_SIZE = 128


@dataclass
class _Program:
    """The structure of every pattern network of one build (see
    :func:`_program`), replayed with the tensors of each build.

    A value is a root, ``("node", n)`` for node ``n`` of the input network
    or ``(kind, k, shape)`` for the dense complement (``"dense"``) or a pair
    factor (``"tail"``, ``"head"``) of partition ``k`` reshaped over its
    edges; or an absorption ``(prefix value, axis, operator)``, the operator
    ``("Q", k)`` for the complement of partition ``k`` or ``("P", j)`` for
    the j-th distinct factor object."""

    values: tuple[tuple, ...]           # creation order: prefixes first
    # Per pattern: (node id, value index) in node-dict order, and edge dict.
    terms: tuple[tuple[tuple[tuple[int, int], ...], dict[int, Edge]], ...]
    dense: tuple[tuple[int, int], ...]  # (partition index, merged dim) in build order
    plans: tuple[ContractionPlan, ...] | None = None   # set by the first build that plans


def _program_key(
    net: TensorNetwork, partitions: Sequence[Partition], patterns: Sequence[tuple[str, ...]],
) -> tuple[tuple, list]:
    """The key of :func:`_program`, plus the distinct factor objects in
    first-occurrence order.

    The key holds what the term layouts and the absorption order depend on:
    the layout of ``net``, each partition's id, edges, kind and factor
    shapes, which partitions share a factor object (as the first-occurrence
    number of each factor, not its ``id()``), and the patterns."""
    number: dict[int, int] = {}
    factors: list = []
    parts = []
    for part in partitions:
        if isinstance(part.projector, Factorized):
            spec = []
            for f in part.projector.factors:
                j = number.setdefault(id(f), len(factors))
                if j == len(factors):
                    factors.append(f)
                spec.append((np.shape(f), j))
            parts.append((part.id, part.edges, "F", tuple(spec)))
        else:
            parts.append((part.id, part.edges, "J", np.shape(part.projector.tail)))
    return (_layout(net), tuple(parts), tuple(patterns)), factors


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _program(key: tuple) -> _Program:
    """Compile the pattern networks of a build from its structure alone.

    Each pattern's network is built as the module docstring states. A
    single-edge complement is absorbed at the tail of its (possibly
    continued) edge, so complements of overlapping partitions compose
    tail to head. A multi-edge or joint complement is a dense node over the
    merged space, wired by :func:`_wire_joint`. The factors go in as one
    batch in edge order, each absorbed at both endpoints in endpoint order,
    then the joint pairs, which never share edges with anything.

    A node's variant is its root and the operators absorbed into it so far,
    each ``(axis, operator)``; every absorption is on the tail side. Each
    distinct variant is one value, computed from its prefix, and a factor
    shared by several partitions is one operator."""
    (node_ids, _, edge_list), parts, patterns = key
    base = {eid: Edge(endpoints=ends, dim=dim) for eid, ends, dim in edge_list}
    values: list[tuple] = []
    index: dict[tuple, int] = {}

    def value(variant: tuple) -> int:
        i = index.get(variant)
        if i is None:
            root, ops = variant
            step = root if not ops else (value((root, ops[:-1])),) + ops[-1]
            i = index[variant] = len(values)
            values.append(step)
        return i

    terms, dense = [], []
    for pattern in patterns:
        edges = dict(base)
        remap: dict[int, int] = {}      # partition edge -> its continuation
        variant = {n: (("node", n), ()) for n in node_ids}

        def absorb(n: int, ax: int, op: tuple) -> None:
            root, ops = variant[n]
            variant[n] = (root, ops + ((ax, op),))

        factors: dict[int, tuple[int, int]] = {}    # edge -> (factor, rank)
        joints = []
        for k, ((_, pedges, kind, spec), tag) in enumerate(zip(parts, pattern)):
            if tag == "P" and kind == "F":
                for e, (shape, j) in zip(pedges, spec):
                    factors.setdefault(e, (j, shape[1]))
            elif tag == "P":
                joints.append(k)
            elif tag == "Q":
                eids = [remap.get(e, e) for e in pedges]
                if kind == "F" and len(pedges) == 1:
                    n, ax = edges[eids[0]].endpoints[0]
                    absorb(n, ax, ("Q", k))
                    continue
                dims = [edges[e].dim for e in eids]
                dense.append((k, math.prod(dims)))
                node = max(variant) + 1
                variant[node] = (("dense", k, tuple(dims + dims)), ())
                continuation = _wire_joint(edges, eids, node)
                remap.update((e, continuation[c]) for e, c in zip(pedges, eids))
        for e, (j, r) in sorted(factors.items()):
            eid = remap.get(e, e)
            edge = edges[eid]
            for n, ax in edge.endpoints:
                absorb(n, ax, ("P", j))
            edges[eid] = Edge(endpoints=edge.endpoints, dim=r)
        for k in joints:
            _, pedges, _, (_, r) = parts[k]
            legs = tuple(edges[e].dim for e in pedges) + ((r,) if r > 1 else ())
            node = max(variant) + 1
            variant[node] = (("tail", k, legs), ())
            variant[node + 1] = (("head", k, legs), ())
            _wire_joint(edges, pedges, node, r)
        terms.append((tuple((n, value(v)) for n, v in variant.items()), edges))
    return _Program(values=tuple(values), terms=tuple(terms), dense=tuple(dense))


def _pattern_networks(
    net: TensorNetwork, partitions: Sequence[Partition], patterns: Sequence[tuple[str, ...]],
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> tuple[_Program, list[TensorNetwork]]:
    """The network of each pattern, replayed from the cached program of the
    build's structure: one :func:`absorb_matrix` per value, with the
    operands and in the order the program records, so every term has the
    bits of building it alone. The values, complement matrices included,
    are shared by all terms and read-only; the input network's nodes are
    shared as they are. Raises :class:`MemoryBudgetError` before building
    a dense complement larger than ``memory_cap_bytes``, decided on every
    call."""
    key, factors = _program_key(net, partitions, patterns)
    prog = _program(key)
    for k, dim in prog.dense:
        if dim * dim * 8 > memory_cap_bytes:
            raise MemoryBudgetError(
                f"partition {partitions[k].id}: dense complement of {dim}x{dim} entries "
                f"({dim * dim * 8} bytes) exceeds the {memory_cap_bytes}-byte cap",
                shape=(dim, dim),
            )
    complements: dict[int, np.ndarray] = {}

    def operand(op: tuple) -> np.ndarray:
        kind, k = op
        if kind == "P":
            return asarray(factors[k])
        if k not in complements:
            complements[k] = _complement(partitions[k])
        return complements[k]

    values: list[np.ndarray] = []
    for step in prog.values:
        src, k = step[0], step[1]
        if src == "node":
            values.append(net.nodes[k])
            continue
        if src == "dense":
            arr = operand(("Q", k)).reshape(step[2])
        elif src in ("tail", "head"):
            pair = partitions[k].projector
            arr = asarray(pair.tail if src == "tail" else pair.head).reshape(step[2])
        else:
            arr = absorb_matrix(values[src], k, operand(step[2]), head_side=False)
        arr.flags.writeable = False
        values.append(arr)
    networks = [
        TensorNetwork(nodes={n: values[i] for n, i in nodes}, edges=dict(edges))
        for nodes, edges in prog.terms
    ]
    return prog, networks


def _complement(part: Partition) -> np.ndarray:
    """``1 - P`` for partition ``part``, dense over its merged edge space."""
    p = part.dense_matrix()
    return np.eye(p.shape[0]) - p


@dataclass(frozen=True)
class ExpansionTerm:
    pattern: tuple[str, ...]       # one of "I", "P", "Q" per partition
    coefficient: int
    network: TensorNetwork
    plan: ContractionPlan


@dataclass(frozen=True)
class ResidueSpec:
    """One all-complement network to add back for exact verification."""

    coefficient: float
    network: TensorNetwork
    partitions: tuple[Partition, ...]


@dataclass
class Expansion:
    form: str                      # "linear" | "combinatorial" | "recursive"
    net: TensorNetwork
    partitions: tuple[Partition, ...]
    terms: list[ExpansionTerm]
    residues: list[ResidueSpec] = field(default_factory=list)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def peak_cost_exponent(self, chi: float) -> float:
        return max(t.plan.cost_exponent(chi) for t in self.terms)


def _check_partitions(net: TensorNetwork, partitions: Sequence[Partition]) -> None:
    """Reject a partition list no expansion of ``net`` can carry. Each
    distinct factor of an edge and each joint pair is checked here once, so
    the builder does not check it per term."""
    if not partitions:
        raise ExpansionError("an expansion needs at least one partition")
    seen: dict[int, tuple] = {}     # edge -> its first factor, as given and as checked
    joint_edges: set[int] = set()
    for part in partitions:
        factorized = isinstance(part.projector, Factorized)
        for idx, e in enumerate(part.edges):
            if e not in net.edges:
                raise ExpansionError(f"partition {part.id} references unknown edge {e}")
            if net.edges[e].is_open:
                raise ExpansionError(f"partition {part.id} references open edge {e}")
            if e in joint_edges or (e in seen and not factorized):
                raise ExpansionError(f"edge {e} is shared with a joint partition")
            if factorized:
                f = part.projector.factors[idx]
                if e in seen and seen[e][0] is f:
                    continue                    # checked where the edge first carried it
                arr = checked_isometry(
                    f, net.edges[e].dim, ExpansionError, f"partition {part.id}: factor of edge {e}"
                )
                if e not in seen:
                    seen[e] = (f, arr)
                elif seen[e][1].shape != arr.shape or not np.allclose(seen[e][1], arr, atol=1e-12):
                    raise ExpansionError(
                        f"edge {e} is shared between partitions with different factors; "
                        "shared edges must carry identical projectors"
                    )
            else:
                joint_edges.add(e)
        if not factorized:
            _check_pair(part, math.prod(net.edges[e].dim for e in part.edges))


def _check_pair(part: Partition, dim: int) -> None:
    """Raise unless the joint pair of ``part`` is (dim, r), r >= 1, with
    ``head.T @ tail = I_r`` to 1e-8 times the product of the factors'
    spectral norms, which is 1 for an isometry."""
    tail, head = asarray(part.projector.tail), asarray(part.projector.head)
    if tail.ndim != 2 or tail.shape != head.shape or tail.shape[0] != dim or tail.shape[1] < 1:
        raise ExpansionError(
            f"partition {part.id}: pair shapes {tail.shape}/{head.shape} are incompatible with merged dim {dim}"
        )
    bound = 1e-8 * np.linalg.norm(tail, 2) * np.linalg.norm(head, 2)
    if not _near_identity(head.T @ tail, bound):
        raise ExpansionError(f"partition {part.id}: head.T @ tail is not the identity (pair not biorthogonal)")


def _expansion(
    form: str,
    net: TensorNetwork,
    partitions: tuple[Partition, ...],
    patterns: Sequence[tuple[tuple[str, ...], int]],
) -> Expansion:
    """One term per (pattern, coefficient), plus the all-complement residue.

    ``net`` is validated first, raising what :func:`plan_order` would. The
    first build of a structure plans its terms with :func:`plan_order` and
    keeps the plans with the program; a later one looks up no plan."""
    problems = validate(net)
    if problems:
        raise NetworkError("cannot plan an invalid network: " + "; ".join(problems))
    prog, networks = _pattern_networks(net, partitions, [p for p, _ in patterns])
    if prog.plans is None:
        prog.plans = tuple(plan_order(work) for work in networks)
    terms = [
        ExpansionTerm(pattern=pattern, coefficient=coefficient, network=work, plan=plan)
        for (pattern, coefficient), work, plan in zip(patterns, networks, prog.plans)
    ]
    residue = ResidueSpec(coefficient=1.0, network=net, partitions=partitions)
    return Expansion(form=form, net=net, partitions=partitions, terms=terms, residues=[residue])


def build_linear(net: TensorNetwork, partitions: Sequence[Partition]) -> Expansion:
    """Linear-form expansion: term r carries complements on the first r
    partitions and the projector on partition r.

    Restricted to single-edge partitions: a multi-edge complement does not
    factorize and would raise the contraction cost, so multi-edge partition
    sets must use :func:`build_combinatorial`.
    """
    partitions = tuple(partitions)
    _check_partitions(net, partitions)
    edges_seen = set()
    for part in partitions:
        if not (part.is_single_edge and isinstance(part.projector, Factorized)):
            raise ExpansionError(
                f"partition {part.id} spans {len(part.edges)} edges; the linear form "
                "only supports single-edge partitions -- use build_combinatorial"
            )
        if part.edges[0] in edges_seen:
            raise ExpansionError(f"edge {part.edges[0]} appears in more than one linear partition")
        edges_seen.add(part.edges[0])
    m = len(partitions)
    patterns = [(("Q",) * r + ("P",) + ("I",) * (m - r - 1), 1) for r in range(m)]
    return _expansion("linear", net, partitions, patterns)


def build_combinatorial(
    net: TensorNetwork,
    partitions: Sequence[Partition],
    cap: int = COMBINATORIAL_CAP,
) -> Expansion:
    """Inclusion-exclusion expansion over all non-empty activation patterns.

    Patterns with an odd number of active projectors enter with +1, even
    patterns with -1; 2^M - 1 terms in total.
    """
    partitions = tuple(partitions)
    _check_partitions(net, partitions)
    m = len(partitions)
    if m > cap:
        raise ExpansionError(
            f"{m} partitions would create {2 ** m - 1} terms (cap {cap}); "
            "use recursive_expand to keep the term count bounded"
        )
    return _expansion("combinatorial", net, partitions, _combinatorial_patterns(m))


@functools.cache
def _combinatorial_patterns(m: int) -> tuple[tuple[tuple[str, ...], int], ...]:
    return tuple(
        (tuple("P" if k in active else "I" for k in range(m)), 1 if size % 2 == 1 else -1)
        for size in range(1, m + 1)
        for active in itertools.combinations(range(m), size)
    )


@dataclass(frozen=True)
class EvalResult:
    value: np.ndarray
    term_values: tuple[np.ndarray, ...]

    def scalar(self) -> float:
        return float(self.value)


def evaluate(
    exp: Expansion,
    workers: int = 1,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> EvalResult:
    """Evaluate the expansion: sum of coefficient * contraction over terms.

    Every term is contracted, whatever the projectors. The reduction always
    runs in term-index order, so the value is bit-reproducible for any
    worker count.
    """

    def term_value(t: ExpansionTerm) -> np.ndarray:
        try:
            return contract(t.network, memory_cap_bytes=memory_cap_bytes)
        except NetworkError as exc:
            raise ExpansionError(f"term {t.pattern} failed to contract: {exc}") from exc
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(term_value, exp.terms))
    else:
        values = [term_value(t) for t in exp.terms]
    total = None
    for t, v in zip(exp.terms, values):
        contrib = t.coefficient * v
        total = contrib if total is None else total + contrib
    return EvalResult(value=np.asarray(total), term_values=tuple(values))


def _e0_columns(partitions: Sequence[Partition]) -> bool:
    """Whether every partition is factorized into rank-1 e0 basis columns,
    the projectors of a symmetrized message fixed point."""
    for part in partitions:
        if not isinstance(part.projector, Factorized):
            return False
        for f in part.projector.factors:
            f = asarray(f)
            if f.shape[1] != 1 or not np.allclose(f, basis_columns(f.shape[0], 1), atol=1e-10):
                return False
    return True


def evaluate_residue(
    exp: Expansion,
    cross_check: bool = True,
    rtol: float = 1e-10,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> np.ndarray:
    """Directly evaluate the all-complement residue network(s).

    The complements are inserted at full extent as dense operators, which is
    affordable only at verification scale. With ``cross_check`` the result
    is compared against ``contract(net) - evaluate(exp)``.
    """
    total = None
    for spec in exp.residues:
        all_q = ("Q",) * len(spec.partitions)
        _, (work,) = _pattern_networks(spec.network, spec.partitions, [all_q], memory_cap_bytes)
        val = spec.coefficient * contract(work, memory_cap_bytes=memory_cap_bytes)
        total = val if total is None else total + val
    total = np.asarray(total)
    if cross_check:
        exact = contract(exp.net, memory_cap_bytes=memory_cap_bytes)
        approx = evaluate(exp, memory_cap_bytes=memory_cap_bytes).value
        ref = exact - approx
        scale = max(float(np.linalg.norm(exact.ravel())), 1e-300)
        err = float(np.linalg.norm((total - ref).ravel())) / scale
        if err > rtol:
            raise ExpansionError(
                f"residue disagrees with the subtraction form by a relative {err:.3e}"
            )
    return total


def residue_pattern_sum(
    net: TensorNetwork,
    partitions: Sequence[Partition],
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> np.ndarray:
    """Residue of factorized partitions as the explicit sum over per-edge
    complement patterns (at least one complement within every partition).

    The pattern networks are one build on the partitions split into
    single-edge :class:`Factorized` ones, every edge carrying its factor
    ("P") or its complement ("Q"). Exponential in the total edge count;
    verification oracle only.
    """
    seen_edges = set()
    for part in partitions:
        if not isinstance(part.projector, Factorized):
            raise ExpansionError("pattern-sum residue needs factorized projectors")
        if seen_edges & set(part.edges):
            raise ExpansionError("pattern-sum residue needs edge-disjoint partitions")
        seen_edges.update(part.edges)
    edge_factors = [(e, f) for part in partitions for e, f in zip(part.edges, part.projector.factors)]
    singles = [Partition(id=k, edges=(e,), projector=Factorized((f,))) for k, (e, f) in enumerate(edge_factors)]
    _check_partitions(net, singles)
    choices = [[p for p in itertools.product("PQ", repeat=len(part.edges)) if "Q" in p] for part in partitions]
    patterns = [tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*choices)]
    total = None
    for work in _pattern_networks(net, singles, patterns, memory_cap_bytes)[1]:
        val = contract(work, memory_cap_bytes=memory_cap_bytes)
        total = val if total is None else total + val
    return np.asarray(total)


def residue_degrees(
    exp: Expansion,
    max_degree: int = 10,
) -> list[int]:
    """Degrees (excited-edge counts) of the non-dangling residue
    configurations, up to ``max_degree``.

    Valid only for rank-1 fixed-point message projectors (symmetrized e0
    columns): only then do configurations with a dangling excitation vanish
    identically. Every configuration must excite at least one edge of every
    partition and give each tensor 0 or >= 2 excited edges.
    """
    if not _e0_columns(exp.partitions):
        raise ExpansionError("residue degrees require rank-1 fixed-point message projectors")
    net = exp.net
    closed = sorted(e for e, edge in net.edges.items() if not edge.is_open)
    part_sets = [set(p.edges) for p in exp.partitions]
    endpoints = {e: (net.edges[e].endpoints[0][0], net.edges[e].endpoints[1][0]) for e in closed}
    degrees: list[int] = []
    for size in range(1, min(len(closed), max_degree) + 1):
        for combo in itertools.combinations(closed, size):
            excited = set(combo)
            if any(not (ps & excited) for ps in part_sets):
                continue
            count: dict[int, int] = {}
            for e in combo:
                a, b = endpoints[e]
                count[a] = count.get(a, 0) + 1
                count[b] = count.get(b, 0) + 1
            if any(c == 1 for c in count.values()):
                continue
            degrees.append(size)
    return sorted(degrees)


ProjectorSource = Callable[[TensorNetwork, int], "tuple[TensorNetwork, Sequence[Partition]] | None"]


def recursive_expand(
    net: TensorNetwork,
    partitions: Sequence[Partition],
    cost_cap_exponent: float,
    projector_source: ProjectorSource,
    chi: float | None = None,
    depth_cap: int = 4,
) -> Expansion:
    """Expand combinatorially, then re-expand every term whose planned cost
    exceeds the cap.

    ``projector_source(sub_network, depth)`` supplies finer partitions for an
    over-budget term; it may return the sub-network re-gauged (any rewriting
    that preserves the contracted value) together with partitions on it, or
    None when it cannot help. The flattened signed term list plus one residue
    per expansion event reproduces the exact contraction. A term that stays
    over the cap raises :class:`ExpansionError` naming, per term, the depth
    cap or the depth at which the source had no finer partitions.
    Each expansion event is one build, which validates its input once.
    """
    if chi is None:
        chi = max(e.dim for e in net.edges.values())

    flat_terms: list[ExpansionTerm] = []
    residues: list[ResidueSpec] = []

    def expand(work: TensorNetwork, parts: Sequence[Partition], coeff: float, depth: int) -> None:
        exp = build_combinatorial(work, parts)
        residues.append(ResidueSpec(coefficient=coeff, network=work, partitions=tuple(parts)))
        offenders = []
        for term in exp.terms:
            if term.plan.cost_exponent(chi) <= cost_cap_exponent + 1e-9:
                flat_terms.append(
                    ExpansionTerm(
                        pattern=term.pattern,
                        coefficient=int(coeff) * term.coefficient,
                        network=term.network,
                        plan=term.plan,
                    )
                )
                continue
            if depth + 1 > depth_cap:
                offenders.append(f"{term.pattern} (depth cap {depth_cap} reached)")
                continue
            sourced = projector_source(term.network, depth + 1)
            if not sourced:
                offenders.append(f"{term.pattern} (no finer partitions at depth {depth + 1})")
                continue
            sub_net, sub_parts = sourced
            expand(sub_net, sub_parts, coeff * term.coefficient, depth + 1)
        if offenders:
            raise ExpansionError(f"terms above cost exponent {cost_cap_exponent}: {'; '.join(offenders)}")

    try:
        expand(net, tuple(partitions), 1.0, 0)
    finally:
        # ``expand`` refers to itself; unbinding it frees the terms' networks
        # when the caller drops them, not at the next cyclic collection.
        del expand
    result = Expansion(
        form="recursive",
        net=net,
        partitions=tuple(partitions),
        terms=flat_terms,
        residues=residues,
    )
    return result
