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
their dressed node tensors recur. A build therefore keeps a *node-variant
table* while it runs: each node tensor with an ordered prefix of absorbed
operators is computed once, from the next shorter prefix, and shared by
every term that carries it. The order of absorption is the one stated
above, so a term's bits are those of building it alone. Shared arrays are
read-only, and the table is dropped when the build returns. Each factor
(shape and orthonormality) and each joint pair (shape and biorthogonality)
is checked once per build, not once per term.
A build validates its input network before it builds any term. Each term
takes its plan from :func:`plan_order`, which checks the term's layout
once per layout in the plan cache, and :func:`evaluate` contracts it with
:func:`contract`.
"""

from __future__ import annotations

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
    absorb_matrix,
    checked_isometry,
    contract,
    insert_joint_dense,
    insert_joint_pair,
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


def _shared(table: dict, key: tuple, make: Callable[[], np.ndarray]) -> np.ndarray:
    """``table[key]``, computed by ``make`` on first use and made read-only."""
    arr = table.get(key)
    if arr is None:
        arr = table[key] = make()
        arr.flags.writeable = False
    return arr


def _pattern_network(
    net: TensorNetwork, partitions: Sequence[Partition], pattern: Sequence[str], table: dict,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> TensorNetwork:
    """The network of one pattern, built as the module docstring states.

    Complements of overlapping partitions compose as operators on the shared
    edges, tail to head: a single-edge complement is absorbed at the tail of
    its (possibly continued) edge. The factors go in as one batch in edge
    order, each absorbed at both endpoints in endpoint order, then the joint
    projectors, which never share edges with anything. A multi-edge or joint
    complement is a dense D x D matrix over the merged space;
    :class:`MemoryBudgetError` is raised before building one larger than
    ``memory_cap_bytes``.

    ``table`` is the node-variant table of one build. A node's key is its
    root, ``("node", n)`` for node ``n`` of ``net`` or ``("dense", k)`` for
    the complement node of partition ``k``, followed by the ops absorbed
    into it so far, each ``(axis, operator)``. Every absorption is on the
    tail side. The complement of partition ``k`` is the operator ``("Q",
    k)`` and a factor is ``("P", id(factor))``, so a factor shared by
    several partitions is one operator. Each key is absorbed once, from its
    prefix, with the operands and order above, so a term's bits do not
    depend on which terms were built before it. The stored arrays,
    complement matrices included, are shared by all terms and read-only.
    """
    work = net.copy()
    remap = {e: e for e in net.edges}
    variant: dict[int, tuple] = {n: ("node", n) for n in net.nodes}

    def absorb(n: int, ax: int, op: tuple, m: np.ndarray) -> None:
        key = variant[n] + ((ax, op),)
        work.nodes[n] = _shared(table, key, lambda: absorb_matrix(work.nodes[n], ax, m, head_side=False))
        variant[n] = key

    factors: dict[int, np.ndarray] = {}
    joints: list[Partition] = []
    for k, (part, tag) in enumerate(zip(partitions, pattern)):
        if tag == "P":
            if isinstance(part.projector, Factorized):
                for e, f in zip(part.edges, part.projector.factors):
                    factors.setdefault(e, f)
            else:
                joints.append(part)
        elif tag == "Q":
            single = part.is_single_edge and isinstance(part.projector, Factorized)
            dim = math.prod(net.edges[e].dim for e in part.edges)
            if not single and dim * dim * 8 > memory_cap_bytes:
                raise MemoryBudgetError(
                    f"partition {part.id}: dense complement of {dim}x{dim} entries "
                    f"({dim * dim * 8} bytes) exceeds the {memory_cap_bytes}-byte cap",
                    shape=(dim, dim),
                )
            q = _shared(table, ("Q", k), lambda: _complement(part))
            eids = [remap[e] for e in part.edges]
            if single:
                n, ax = work.edges[eids[0]].endpoints[0]
                absorb(n, ax, ("Q", k), q)
            else:
                variant[work.next_node_id()] = ("dense", k)
                work, continuation = insert_joint_dense(work, eids, q)
                for orig, cur in zip(part.edges, eids):
                    remap[orig] = continuation[cur]
    for e, f in sorted(factors.items()):
        u = asarray(f)
        edge = work.edges[remap[e]]
        for n, ax in edge.endpoints:
            absorb(n, ax, ("P", id(f)), u)
        work.edges[remap[e]] = Edge(endpoints=edge.endpoints, dim=u.shape[1])
    for part in joints:
        work = insert_joint_pair(work, part.edges, part.projector.tail, part.projector.head)
    return work


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
    if not np.allclose(head.T @ tail, np.eye(tail.shape[1]), atol=bound):
        raise ExpansionError(f"partition {part.id}: head.T @ tail is not the identity (pair not biorthogonal)")


def _expansion(
    form: str,
    net: TensorNetwork,
    partitions: tuple[Partition, ...],
    patterns: Sequence[tuple[tuple[str, ...], int]],
) -> Expansion:
    """One term per (pattern, coefficient), plus the all-complement residue.

    ``net`` is validated first, raising what :func:`plan_order` would. The
    terms share one node-variant table, dropped when the build returns."""
    problems = validate(net)
    if problems:
        raise NetworkError("cannot plan an invalid network: " + "; ".join(problems))
    table: dict = {}
    terms = []
    for pattern, coefficient in patterns:
        work = _pattern_network(net, partitions, pattern, table)
        terms.append(ExpansionTerm(pattern=pattern, coefficient=coefficient, network=work,
                                   plan=plan_order(work)))
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
    patterns = [
        (tuple("P" if k in active else "I" for k in range(m)), 1 if size % 2 == 1 else -1)
        for size in range(1, m + 1)
        for active in itertools.combinations(range(m), size)
    ]
    return _expansion("combinatorial", net, partitions, patterns)


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
        work = _pattern_network(spec.network, spec.partitions, all_q, {}, memory_cap_bytes)
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

    Each pattern's network is built by :func:`_pattern_network` on the
    partitions split into single-edge :class:`Factorized` ones, every edge
    carrying its factor ("P") or its complement ("Q"), with one node-variant
    table for the whole sum. Exponential in the total edge count;
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
    table: dict = {}
    total = None
    for combo in itertools.product(*choices):
        pattern = tuple(itertools.chain.from_iterable(combo))
        work = _pattern_network(net, singles, pattern, table, memory_cap_bytes)
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
