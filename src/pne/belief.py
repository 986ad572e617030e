"""Belief propagation on tensor networks.

Messages are unit-norm vectors living on directed edges. Open edges use
boundary reflection: the incoming message on an open index is the outgoing
message on that index. After convergence the message pairs can be gauged so
both directions equal the first basis vector ``e0``, which makes the rank-1
dominant-subspace factor on every edge a plain basis column.

A sweep works on stacks. Messages of one extent are the rows of one
``(K, dim)`` array, and nodes of one shape are absorbed together as one
``(N, *shape)`` stack (small nodes copied once per run into stacks of at
most :data:`STACK_BYTES`, a large node as a view of its own array). The
kernel :func:`_outgoing` absorbs each node's incoming messages from its
first axis upward and from its last axis downward, so no node tensor is
transposed or copied; its docstring states that order. Absorbing a set of
caps into one tensor (:func:`_absorb_all`) keeps descending axis order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pne.network import (
    Edge,
    NetworkError,
    TensorNetwork,
    absorb_matrix,
    contract,
    subnetwork,
    validate,
)
from pne.tensor import asarray, basis_columns, orthogonal_complement

__all__ = [
    "BPError",
    "GaugeError",
    "BPState",
    "SymmetrizedGauge",
    "run_bp",
    "fixed_point_residual",
    "bp_scalar",
    "bp_approx",
    "symmetrize",
    "projectors_from_bp",
    "grouped_network",
    "joint_message_pair",
]


class BPError(NetworkError):
    pass


class GaugeError(BPError):
    """Message overlap too small to fix a gauge."""


def _sign_fix(x: np.ndarray) -> np.ndarray:
    """Canonical sign of every row of a ``(K, dim)`` stack: the first entry
    of magnitude > 1e-12 is made positive, or the entry of largest
    magnitude when there is none."""
    mag = np.abs(x)
    big = mag > 1e-12
    col = np.where(big.any(axis=1), big.argmax(axis=1), mag.argmax(axis=1))
    flip = x[np.arange(len(x)), col] < 0
    return np.where(flip[:, None], -x, x)


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norm of every row of a ``(K, dim)`` stack, from the ddot that
    ``np.linalg.norm`` uses on one vector, so each row's bits match it."""
    return np.sqrt(np.vecdot(x, x))


@dataclass
class BPState:
    """Directed messages keyed by ``(edge_id, direction)``.

    Direction 0 is emitted by the edge tail toward the head; direction 1 is
    the reverse. Open edges store both directions equal (reflection).
    ``residual_history`` holds the largest message residual of each sweep.
    """

    messages: dict[tuple[int, int], np.ndarray]
    iterations: int
    residuals: dict[tuple[int, int], float]
    converged: bool
    tol: float
    residual_history: list[float] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def _wiring(net: TensorNetwork, index, nid: int) -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
    """``(axis, incoming key, outgoing key)`` of every attachment of ``nid``
    (``index`` is ``net.attachment_index()``), in ascending axis order."""
    wires = []
    for eid, slot, ax in index[nid]:
        if net.edges[eid].is_open:
            # Reflection: incoming equals the stored outgoing message.
            wires.append((ax, (eid, 0), (eid, 0)))
        else:
            # Incoming at the tail is the head-emitted message and vice versa.
            wires.append((ax, (eid, 1 - slot), (eid, slot)))
    return sorted(wires)


def _absorb_all(t: np.ndarray, pairs) -> np.ndarray:
    """Absorb ``(axis, vector)`` pairs in descending-axis order, so every
    axis still has its own number when its turn comes. Each vector goes in
    as a ``(d, 1)`` column through :func:`absorb_matrix`, its unit axis
    reshaped away: ``np.tensordot(t, vec, axes=([ax], [0]))`` and its bits."""
    for ax, vec in sorted(pairs, key=lambda p: -p[0]):
        rest = t.shape[:ax] + t.shape[ax + 1:]
        t = absorb_matrix(t, ax, vec.reshape(-1, 1), head_side=False).reshape(rest)
    return t


# Same-shape nodes of at most half this many bytes are copied into shared
# stacks of at most this size; a larger node is absorbed from its own array.
STACK_BYTES = 256 * 1024


def _absorb_front(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Absorb the ``(N, d)`` rows ``v`` into axis 1 of the stack ``s``: per
    item ``np.tensordot(t, v, axes=([0], [0]))`` and its bits. On a
    contiguous stack the transposed view is never copied: each item is one
    column-major matrix-vector product."""
    n, d = v.shape
    m = s.transpose(0, *range(2, s.ndim), 1).reshape(n, -1, d)
    return (m @ v[:, :, None]).reshape((n,) + s.shape[2:])


def _absorb_back(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Absorb the ``(N, d)`` rows ``v`` into the last axis of the stack
    ``s``: per item ``np.tensordot(t, v, axes=([t.ndim - 1], [0]))`` and its
    bits, one row-major matrix-vector product."""
    n, d = v.shape
    return (s.reshape(n, -1, d) @ v[:, :, None]).reshape(s.shape[:-1])


def _outgoing(stack: np.ndarray, vecs: list[np.ndarray]) -> list[np.ndarray]:
    """Every outgoing message of a stack of same-shape nodes ``(N, *shape)``
    whose incoming messages on axis ``a`` are the rows of ``vecs[a]``.

    The order rule of message passing lives here. The message leaving axis
    ``j`` absorbs axes ``0 .. j-1`` from the front, in ascending order, and
    then axes ``n-1 .. j+1`` from the back, in descending order. Every
    absorb is a matrix-vector product on the axis that is first or last at
    its turn, so no node tensor is transposed or copied, and the front
    prefixes are shared, so each node is read twice per sweep. Items that
    are axis permutations of contiguous arrays get, byte for byte, the
    ``np.tensordot`` chain in the same order."""
    out = []
    prefix = stack
    for j in range(len(vecs)):
        t = prefix
        for v in reversed(vecs[j + 1:]):
            t = _absorb_back(t, v)
        out.append(t)
        if j + 1 < len(vecs):
            prefix = _absorb_front(prefix, vecs[j])
    return out


def _message_layout(dims):
    """Where each message key lives while messages are iterated: keys of one
    extent, in key order, are the rows of one ``(K, dim)`` stack. Returns
    ``{dim: keys}`` and ``{key: (dim, row)}``."""
    groups: dict[int, list] = {}
    place = {}
    for k, dim in dims.items():
        place[k] = (dim, len(groups.setdefault(dim, [])))
        groups[dim].append(k)
    return groups, place


def _rows(place, keys) -> tuple[int, np.ndarray]:
    """Extent and stack rows of ``keys``, which share one extent."""
    return place[keys[0]][0], np.array([place[k][1] for k in keys], dtype=np.intp)


def _stack_emit(chunks):
    """``emit`` for :func:`_iterate_messages` from node stacks. Each chunk is
    ``(stack, inputs, outputs)``: per axis, the ``(dim, rows)`` of the
    incoming and of the outgoing messages of the stacked nodes. Every key
    must be the output of exactly one chunk axis and item."""
    def emit(stacks):
        raw = {dim: np.empty_like(x) for dim, x in stacks.items()}
        for stack, inputs, outputs in chunks:
            outs = _outgoing(stack, [stacks[dim][rows] for dim, rows in inputs])
            for (dim, rows), m in zip(outputs, outs):
                raw[dim][rows] = m
        return raw
    return emit


def _node_chunks(net: TensorNetwork, place) -> list:
    """:func:`_stack_emit` chunks of every node with legs, grouped by shape
    in node order. Nodes of at most half :data:`STACK_BYTES` are copied
    into stacks of at most that many bytes; a larger node is a chunk of its
    own, a view of its array (contiguous, as ``TensorNetwork.build`` makes
    it), so no large tensor is ever copied."""
    index = net.attachment_index()
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for nid, t in net.nodes.items():
        if t.ndim:
            by_shape.setdefault(t.shape, []).append(nid)
    chunks = []
    for shape, nids in by_shape.items():
        per = STACK_BYTES // max(net.nodes[nids[0]].nbytes, 1)
        if per < 2:
            parts = [([nid], np.ascontiguousarray(net.nodes[nid])[None]) for nid in nids]
        else:
            parts = [(nids[i:i + per], np.stack([net.nodes[nid] for nid in nids[i:i + per]]))
                     for i in range(0, len(nids), per)]
        for part, stack in parts:
            wires = [_wiring(net, index, nid) for nid in part]
            inputs = [_rows(place, [w[a][1] for w in wires]) for a in range(len(shape))]
            outputs = [_rows(place, [w[a][2] for w in wires]) for a in range(len(shape))]
            chunks.append((stack, inputs, outputs))
    return chunks


def _start_message(initial, eid: int, d: int, dim: int) -> np.ndarray:
    if (eid, d) not in initial:
        raise BPError(f"initial messages have no entry for edge {eid} direction {d}")
    m = asarray(initial[(eid, d)])
    if m.shape != (dim,):
        raise BPError(f"initial message on edge {eid} direction {d} has shape {m.shape}, not ({dim},)")
    nrm = np.linalg.norm(m)
    if not (np.isfinite(nrm) and nrm > 0.0):
        raise BPError(f"initial message on edge {eid} direction {d} has norm {nrm}; "
                      "it must be finite and nonzero")
    return m


def _iterate_messages(dims, emit, tol, max_iter, damping, seed, error, initial=None):
    """Synchronous damped message passing, the loop of :func:`run_bp` and
    :func:`pne.models.uniform_fixed_point`; failures raise ``error``.

    ``dims`` maps each message key to its extent. Messages live in one
    ``(K, dim)`` stack per extent, laid out by :func:`_message_layout`.
    ``emit(stacks)`` returns the raw update of every message in the same
    layout. The start is ``initial`` (finite nonzero vectors) or ones plus
    1e-3 noise drawn in key order. Each sweep normalizes the update, keeps
    fraction ``damping`` of the previous message and fixes the sign, and
    stops once the largest 2-norm change is below ``tol``. A sweep with a
    zero or non-finite update raises, naming the first such key in key
    order. Returns ``(messages, iterations, residuals, residual_history,
    converged)``, the dicts in key order; they are the only per-key dicts
    the loop makes.

    Every step of a sweep is elementwise or a row norm with
    ``np.linalg.norm``'s own ddot (:func:`_norms`), so it has the bits of
    updating one message at a time.
    """
    if not 0.0 <= damping < 1.0:
        raise error(f"damping {damping} is outside [0, 1)")
    groups, place = _message_layout(dims)

    def by_key(rows):
        rows = {dim: list(r) for dim, r in rows.items()}
        return {k: rows[dim][i] for k, (dim, i) in place.items()}

    rng = np.random.default_rng(seed)
    start = {k: initial[k] if initial is not None else np.ones(dim) + 1e-3 * rng.standard_normal(dim)
             for k, dim in dims.items()}
    stacks = {}
    for dim, keys in groups.items():
        x = np.stack([start[k] for k in keys])
        stacks[dim] = _sign_fix(x / _norms(x)[:, None])
    res = {dim: [np.inf] * len(keys) for dim, keys in groups.items()}
    history: list[float] = []
    it = 0
    for it in range(1, max_iter + 1):
        xs = emit(stacks)
        nrms = {dim: _norms(x) for dim, x in xs.items()}
        if not all(n.all() and np.isfinite(n).all() for n in nrms.values()):
            k, n = next((k, n) for k, n in by_key(nrms).items() if n == 0.0 or not np.isfinite(n))
            raise error(f"{'zero' if n == 0.0 else 'non-finite'} outgoing message {k}")
        new = {}
        for dim, x in xs.items():
            m = x / nrms[dim][:, None]
            if damping:
                m = (1.0 - damping) * m + damping * stacks[dim]
                m /= _norms(m)[:, None]
            new[dim] = m = _sign_fix(m)
            res[dim] = _norms(m - stacks[dim])
        stacks = new
        history.append(max((float(r.max()) for r in res.values()), default=0.0))
        if history[-1] < tol:
            break
    return (by_key(stacks), it, {k: float(r) for k, r in by_key(res).items()}, history,
            bool(history) and history[-1] < tol)


def run_bp(
    net: TensorNetwork,
    tol: float = 1e-12,
    max_iter: int = 2000,
    damping: float = 0.2,
    seed: int = 0,
    initial: dict[tuple[int, int], np.ndarray] | None = None,
) -> BPState:
    """Iterate synchronous damped message passing to a fixed point.

    Returns a state with ``converged=False`` after ``max_iter`` sweeps rather
    than raising; expansions can fall back to weight passing in that case.
    ``initial`` warm-starts from given directed messages (normalized copies
    are taken) instead of the seeded near-uniform start; every message must
    be there, of its edge's extent, finite and nonzero. ``damping`` keeps
    that fraction of the previous message and must lie in [0, 1).

    Nodes are grouped by shape once per run. Nodes of at most half
    :data:`STACK_BYTES` are copied into stacks of at most that size, and a
    larger node runs alone from its own array, so a run's extra memory is at
    most the bytes of its small nodes. Each sweep runs :func:`_outgoing` once
    per stack: every outgoing message of every node, from shared front
    prefixes and without transposing or copying a node, in the absorption
    order that function states. Messages stay in per-extent stacks
    throughout; index arrays built once per run gather each stack's
    incoming rows and scatter its outgoing ones.
    """
    problems = validate(net)
    if problems:
        raise BPError("cannot run BP on an invalid network: " + "; ".join(problems))
    for eid, edge in net.edges.items():
        if len(edge.endpoints) == 2 and edge.endpoints[0][0] == edge.endpoints[1][0]:
            raise BPError(f"edge {eid} is a self-loop; BP updates are not defined for it")

    # An open edge carries one message, stored under both directions.
    source = {(eid, d): (eid, 0 if edge.is_open else d) for eid, edge in sorted(net.edges.items()) for d in (0, 1)}
    dims = {k: net.edges[k[0]].dim for k in source.values()}
    start = None if initial is None else {k: _start_message(initial, *k, dim) for k, dim in dims.items()}
    emit = _stack_emit(_node_chunks(net, _message_layout(dims)[1]))
    messages, it, residuals, history, converged = _iterate_messages(
        dims, emit, tol, max_iter, damping, seed, BPError, start)
    return BPState(messages={k: messages[src] for k, src in source.items()}, iterations=it,
                   residuals={k: residuals[src] for k, src in source.items()}, converged=converged, tol=tol,
                   residual_history=history)


def fixed_point_residual(net: TensorNetwork, state: BPState) -> float:
    """Largest 2-norm change of any message in one undamped sweep from
    ``state.messages`` (each normalized and sign-fixed first), which is near
    zero at a fixed point of ``net``. Raises :class:`BPError` naming the key
    when ``state`` lacks a message of ``net`` or has one of the wrong
    extent."""
    return run_bp(net, tol=0.0, max_iter=1, damping=0.0, initial=state.messages).residual_history[0]


def bp_scalar(net: TensorNetwork, state: BPState) -> float:
    """Fixed-point estimate of the closed-network scalar (see :func:`bp_approx`)."""
    if not net.is_closed:
        raise BPError("bp_scalar is defined for closed networks; use bp_approx for open ones")
    return float(bp_approx(net, state))


def bp_approx(net: TensorNetwork, state: BPState) -> np.ndarray:
    """BP approximation of the network contraction (scalar or open tensor).

    Every closed edge is cut by its message pair: each node absorbs its
    incoming messages, the nodes are outer-multiplied in node-id order and
    the product is divided by every closed edge's message overlap. Open
    edges pass through, so for open networks the result is the
    rank-1-environment estimate of the open tensor in ascending open-edge
    order.
    """
    if not state.converged:
        raise BPError("the BP estimate requires a converged BP state")
    overlaps = []
    for eid, edge in sorted(net.edges.items()):
        if edge.is_open:
            continue
        ov = float(state.messages[(eid, 0)] @ state.messages[(eid, 1)])
        if abs(ov) < 1e-14:
            raise GaugeError(f"message overlap on edge {eid} is {ov:.2e}; gauge is ill-conditioned")
        overlaps.append(ov)
    index = net.attachment_index()
    value = np.ones(())
    open_ids: list[int] = []
    for nid in sorted(net.nodes):
        wires = _wiring(net, index, nid)
        cut = [(ax, state.messages[k_in]) for ax, k_in, _ in wires if not net.edges[k_in[0]].is_open]
        value = np.multiply.outer(value, _absorb_all(net.nodes[nid], cut))
        # The open axes survive in ascending axis order.
        open_ids += [k_in[0] for _, k_in, _ in wires if net.edges[k_in[0]].is_open]
    for ov in overlaps:
        value = value / ov
    return value.transpose(np.argsort(open_ids, kind="stable"))


@dataclass
class SymmetrizedGauge:
    """Per-edge gauge factors bringing both fixed-point messages to ``e0``.

    ``x`` acts on the head side and ``x_inv`` on the tail side, so the pair
    inserts the identity on every closed edge. Open edges record the tail
    factor only; the contracted open tensor is rotated by ``x`` on those axes
    (compensate with :meth:`compensate_open` when comparing against the
    pre-gauge network).
    """

    x: dict[int, np.ndarray] = field(default_factory=dict)
    x_inv: dict[int, np.ndarray] = field(default_factory=dict)
    dims: dict[int, int] = field(default_factory=dict)
    open_edges: set[int] = field(default_factory=set)

    def compensate_open(self, tensor: np.ndarray, open_edge_order: list[int]) -> np.ndarray:
        """Undo the open-leg rotations on a contracted open tensor."""
        out = tensor
        for ax, eid in enumerate(open_edge_order):
            if eid in self.open_edges:
                out = absorb_matrix(np.asarray(out), ax, self.x[eid], head_side=False)
        return out


def _message_gauge(fwd: np.ndarray, rev: np.ndarray, error: type[NetworkError],
                   what: str) -> tuple[np.ndarray, np.ndarray]:
    """Gauge matrix ``x`` and its inverse for the message pair on ``what``.

    Raises ``error`` when the overlap ``fwd @ rev`` is below 1e-12. ``x`` stacks the pair-normalized forward message on top of an
    orthonormal basis of the normalized reverse message's orthogonal
    complement, so absorbing ``x_inv`` on the tail side and ``x`` on the
    head side turns both messages into e0.
    """
    c = float(fwd @ rev)
    if abs(c) < 1e-12:
        raise error(f"message overlap {c:.2e} on {what} is too small to fix a gauge")
    s = np.sqrt(abs(c))
    x = np.vstack([(fwd * (np.sign(c) / s))[None, :], orthogonal_complement(rev / s)])
    return x, np.linalg.solve(x, np.eye(x.shape[0]))


def symmetrize(net: TensorNetwork, state: BPState) -> tuple[TensorNetwork, SymmetrizedGauge]:
    """Re-gauge every edge so incoming and outgoing messages both become e0.

    The gauge factor pair of each edge comes from ``_message_gauge``;
    absorbing it into the endpoint tensors leaves the contracted value
    unchanged.
    """
    if not state.converged:
        raise BPError("symmetrize requires a converged BP state")
    out = net.copy()
    gauge = SymmetrizedGauge()
    for eid, edge in sorted(net.edges.items()):
        # Forward is tail -> head, reverse head -> tail.
        x, x_inv = _message_gauge(state.messages[(eid, 0)], state.messages[(eid, 1)], GaugeError,
                                  f"edge {eid}")
        gauge.x[eid] = x
        gauge.x_inv[eid] = x_inv
        gauge.dims[eid] = edge.dim
        if edge.is_open:
            gauge.open_edges.add(eid)
            tn, tax = edge.endpoints[0]
            out.nodes[tn] = absorb_matrix(out.nodes[tn], tax, x_inv, head_side=False)
        else:
            (tn, tax), (hn, hax) = edge.endpoints
            out.nodes[tn] = absorb_matrix(out.nodes[tn], tax, x_inv, head_side=False)
            out.nodes[hn] = absorb_matrix(out.nodes[hn], hax, x, head_side=True)
    return out, gauge


def projectors_from_bp(gauge: SymmetrizedGauge, edges) -> dict[int, np.ndarray]:
    """Rank-1 dominant-subspace factors on symmetrized edges, as
    ``{edge: (dim, 1) isometry}``.

    In the symmetrized gauge the fixed-point message is e0, so the factor on
    every edge is the single basis column.
    """
    out = {}
    for eid in edges:
        if eid not in gauge.dims:
            raise GaugeError(f"edge {eid} is not part of the gauge")
        out[eid] = basis_columns(gauge.dims[eid], 1)
    return out


# ---------------------------------------------------------------------------
# Two-site (grouped) messages
# ---------------------------------------------------------------------------

def grouped_network(net: TensorNetwork, pair: tuple[int, int]) -> tuple[TensorNetwork, int]:
    """Derived network in which a pair of edges is merged into one edge.

    The two tail endpoints are contracted into one node (over any bonds
    between them) and likewise the two head endpoints; each merged node
    keeps the id of its first-edge endpoint, its other legs in edge-id order
    and the pair last. The pair then fuses into a single edge whose extent
    is the product of the pair's extents (first edge major). Running
    ordinary message passing on the derived network yields genuinely
    two-site messages whenever the merged endpoints share a bond.
    """
    e1, e2 = pair
    for eid in pair:
        if net.edges[eid].is_open:
            raise BPError(f"edge {eid} is open; grouping needs closed edges")
    (t1, _), (h1, _) = net.edges[e1].endpoints
    (t2, _), (h2, _) = net.edges[e2].endpoints
    if {t1, t2} & {h1, h2}:
        raise BPError("tail and head groups of the paired edges overlap")
    nodes = dict(net.nodes)
    moved: dict[tuple[int, int], tuple[int, int]] = {}
    internal: set[int] = set()
    fused_ends = []
    for keep, other in ((t1, t2), (h1, h2)):
        sub = subnetwork(net, {keep, other})
        legs = sub.open_edge_ids()
        internal.update(e for e in sub.edges if e not in legs)
        order = [e for e in legs if e not in pair] + [e1, e2]
        merged = contract(sub).transpose([legs.index(e) for e in order])
        if other != keep:
            del nodes[other]
        nodes[keep] = merged.reshape(merged.shape[:-2] + (-1,))
        for k, eid in enumerate(order[:-2]):
            (ep,) = sub.edges[eid].endpoints
            moved[ep] = (keep, k)
        fused_ends.append((keep, len(order) - 2))
    edges = {eid: Edge(endpoints=tuple(moved.get(ep, ep) for ep in edge.endpoints), dim=edge.dim)
             for eid, edge in net.edges.items() if eid not in internal and eid not in pair}
    fused = max(e for e in net.edges if e not in internal) + 1
    edges[fused] = Edge(endpoints=tuple(fused_ends), dim=net.edges[e1].dim * net.edges[e2].dim)
    return TensorNetwork(nodes=nodes, edges=edges), fused


def joint_message_pair(state: BPState, fused_edge: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Ket/bra pair of the fixed-point messages on a fused edge.

    ``|ket><bra| / overlap`` is an idempotent rank-1 operator on the merged
    index space; the ket caps the tail side and the bra the head side.
    """
    ket = state.messages[(fused_edge, 1)]
    bra = state.messages[(fused_edge, 0)]
    ov = float(bra @ ket)
    if abs(ov) < 1e-14:
        raise GaugeError(f"two-site message overlap {ov:.2e} on fused edge {fused_edge}")
    return ket, bra, ov
