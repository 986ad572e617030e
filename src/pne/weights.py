"""Weight passing: an iterative gauge that places a positive diagonal weight
spectrum on every edge of a closed network.

Each edge update dresses the two endpoint tensors with their neighboring
weights, decomposes both against the shared index, re-decomposes the merged
spectrum and keeps its ``alpha`` power as the new edge weight (the remainder
is pushed back into the endpoint tensors). Every update is a pure gauge
move, so the weighted network keeps its contracted value. The leading weight
directions then seed projectors of any rank, with no fixed point of message
passing required.

``alpha`` sets how steeply the converged spectra fall. Relative to the
leading entry, the fixed-point weights go as ``q_k ** (alpha / (1 - alpha))``
with ``q_k < 1`` fixed by the network alone (on random chi=16 patches the
log-ratios at alpha 0.6 and 0.8 measure 1.50 and 3.95-3.99 times those at
0.5, against 1.5 and 4), and the merged singular values behind them as
``q_k ** (1 / (1 - alpha))``. A sharp stage therefore pins the leading
direction firmly but can push the trailing merged values down to the
``SINGULAR_FLOOR`` scale: at alpha = 0.8 on those patches every weight after
the first sits near 1e-10 and the order of those directions is numerical
noise. Directions beyond the first are therefore read from a flatter stage
of the same value-exact gauge (``rank_stage``, alpha = ``RANK_ALPHA``),
which keeps the trailing merged spectrum many orders above the floor.

A sweep updates every edge once, in ascending edge id, and runs as a
sequence of commuting layers (:func:`_layers`, computed once per stage). An
update reads and writes only its two endpoint tensors and its own weight,
and reads the weights of the other edges at those endpoints, so updates of
edges that share no node commute exactly. An edge's layer is one more than
the largest layer of any lower-id edge it shares a node with, so every pair
that does share a node keeps its order, and each edge meets the same
inputs, and performs the same floating-point operations, as in the plain
sweep. Within a layer the SVDs and small products run as one stacked call
per equal-shape group, each item with the bits of its own call, and the
stripped log-norms are added to ``log_prefactor`` in ascending edge id at
the end of the sweep: the layered sweep is the ascending-id sweep bit for
bit, and one edge alone (:func:`wp_update_edge`) is a one-edge layer.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from pne.belief import _norms
from pne.network import (
    Edge,
    NetworkError,
    TensorNetwork,
    absorb_matrix,
    contract,
    validate,
)
from pne.tensor import basis_columns, svd_stack

__all__ = [
    "WeightState",
    "run_weight_passing",
    "wp_update_edge",
    "rank_stage",
    "projectors_from_weights",
]

SINGULAR_FLOOR = 1e-13
# Stage that orders the directions beyond the first: trailing weights fall as
# q_k ** 1.5 here, against q_k ** 4 at the customary alpha = 0.8.
RANK_ALPHA = 0.6


class WeightPassingError(NetworkError):
    pass


@dataclass
class WeightState:
    """Gauged network plus per-edge descending positive weight vectors.

    Weight vectors are kept at unit 2-norm; the scale stripped at each
    update accumulates in ``log_prefactor`` so that
    ``contract(network_with_weights()) * exp(log_prefactor)`` stays equal to
    the contraction of the original network. ``tol`` and ``max_sweeps`` are
    the convergence settings of the run, reused by ``rank_stage``.
    """

    net: TensorNetwork
    weights: dict[int, np.ndarray]
    alpha: float
    sweeps: int = 0
    residual: float = np.inf
    converged: bool = False
    log_prefactor: float = 0.0
    residual_history: list[float] = field(default_factory=list)
    tol: float = 1e-10
    max_sweeps: int = 500
    _rank_stage: WeightState | None = field(default=None, init=False, repr=False)

    def network_with_weights(self) -> TensorNetwork:
        """Plain network with every edge weight absorbed into its tail node
        (in edge-id order)."""
        tails: dict[int, list[tuple[int, np.ndarray]]] = {}
        for eid, w in sorted(self.weights.items()):
            nid, ax = self.net.edges[eid].endpoints[0]
            tails.setdefault(nid, []).append((ax, w))
        out = self.net.copy()
        for nid, factors in tails.items():
            out.nodes[nid] = _scale_axes(out.nodes[nid], factors)
        return out

    def contract_value(self) -> float:
        return float(contract(self.network_with_weights())) * float(np.exp(self.log_prefactor))


def _init_state(net: TensorNetwork, alpha: float) -> WeightState:
    problems = validate(net)
    if problems:
        raise WeightPassingError("invalid network: " + "; ".join(problems))
    if not net.is_closed:
        raise WeightPassingError("weight passing is defined for closed networks only")
    for eid, edge in net.edges.items():
        if edge.endpoints[0][0] == edge.endpoints[1][0]:
            raise WeightPassingError(f"edge {eid} is a self-loop; weight passing does not support it")
    weights = {eid: np.ones(edge.dim) for eid, edge in net.edges.items()}
    return WeightState(net=net.copy(), weights=weights, alpha=alpha)


def _scale_axes(t: np.ndarray, factors) -> np.ndarray:
    """``t`` with each ``(axis, vector)`` of ``factors`` multiplied onto its
    axis, in the given order."""
    for ax, w in factors:
        shape = [1] * t.ndim
        shape[ax] = w.size
        t = t * w.reshape(shape)
    return t


def _dressed(state: WeightState, index, nid: int, skip_edge: int) -> np.ndarray:
    """Node tensor with the weights of all other incident edges absorbed
    (``index`` is ``state.net.attachment_index()``)."""
    return _scale_axes(state.net.nodes[nid],
                       [(ax, state.weights[eid]) for eid, _slot, ax in index[nid] if eid != skip_edge])


def wp_update_edge(state: WeightState, eid: int) -> WeightState:
    """One gauge update of a single edge (mutates and returns ``state``).

    Singular values below ``1e-13`` are floored before inversion (with a
    warning); directions that small carry no weight anyway. Raises
    :class:`WeightPassingError` for an edge the network does not have.
    """
    if eid not in state.weights:
        raise WeightPassingError(f"edge {eid} is not an edge of the network")
    state.log_prefactor += _update_layer(state, state.net.attachment_index(), [eid])[eid]
    return state


def _layers(net: TensorNetwork) -> list[list[int]]:
    """The ascending-id sweep as commuting layers: an edge's layer is one
    more than the largest layer of any lower-id edge sharing a node with it.

    Updates of edges that share no node commute exactly, and each pair that
    does share one keeps its ascending-id order, so running the layers in
    order performs every edge's floating-point operations on the same
    inputs as the plain sweep."""
    last: dict[int, int] = {}
    layers: list[list[int]] = []
    for eid in sorted(net.edges):
        nodes = [n for n, _ax in net.edges[eid].endpoints]
        k = 1 + max(last.get(n, -1) for n in nodes)
        for n in nodes:
            last[n] = k
        if k == len(layers):
            layers.append([])
        layers[k].append(eid)
    return layers


def _groups(keys) -> list[list[int]]:
    """Positions of ``keys`` grouped by equal key, in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _stacked_svds(mats: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, bool]]:
    """Sign-fixed ``(u, s, vh)`` of every matrix, one stacked SVD call per
    shape, and whether any of its singular values is below the floor."""
    out: list = [None] * len(mats)
    for idx in _groups(m.shape for m in mats):
        u, s, vh = svd_stack(np.stack([mats[i] for i in idx]))
        low = (s < SINGULAR_FLOOR).any(axis=1)
        for j, i in enumerate(idx):
            out[i] = (u[j], s[j], vh[j], low[j])
    return out


def _update_layer(state: WeightState, index, layer: list[int]) -> dict[int, float]:
    """Update the edges of one commuting layer, each exactly as a lone
    update would (``index`` is ``state.net.attachment_index()``).

    The endpoint tensors are dressed with the weights of their other edges,
    decomposed against the shared index (a-side: the tail, with that index
    as columns; b-side: the head, with it as rows), the merged spectrum
    ``diag(s_a) vh_a diag(w) u_b diag(s_b)`` is decomposed again, and its
    ``alpha`` power becomes the new weight while ``g_a``, ``g_b`` push the
    remainder into the endpoints. SVDs and products run stacked over the
    edges of equal shapes. Returns the ``log`` of each edge's stripped norm,
    for the caller to add to ``log_prefactor`` in edge order.
    """
    edges = state.net.edges
    a_mats, b_mats = [], []
    for eid in layer:
        # An update changes the edge's dim, never its endpoints, so one
        # attachment index serves a whole stage.
        (an, aax), (bn, bax) = edges[eid].endpoints
        a = _dressed(state, index, an, skip_edge=eid)
        b = _dressed(state, index, bn, skip_edge=eid)
        a_mats.append(a.transpose(*range(aax), *range(aax + 1, a.ndim), aax).reshape(-1, a.shape[aax]))
        b_mats.append(b.transpose(bax, *range(bax), *range(bax + 1, b.ndim)).reshape(b.shape[bax], -1))
    svd_a = _stacked_svds(a_mats)
    svd_b = _stacked_svds(b_mats)
    for eid, (*_, low_a), (*_, low_b) in zip(layer, svd_a, svd_b):
        if low_a or low_b:
            _warn(f"edge {eid}: singular values below {SINGULAR_FLOOR:g} floored during weight update")

    alpha = state.alpha
    updates: list = [None] * len(layer)
    for idx in _groups((svd_a[i][2].shape, svd_b[i][0].shape) for i in range(len(layer))):
        s_a = np.stack([svd_a[i][1] for i in idx])
        vh_a = np.stack([svd_a[i][2] for i in idx])
        u_b = np.stack([svd_b[i][0] for i in idx])
        s_b = np.stack([svd_b[i][1] for i in idx])
        w = np.stack([state.weights[layer[i]] for i in idx])
        inv_a = 1.0 / np.maximum(s_a, SINGULAR_FLOOR)
        inv_b = 1.0 / np.maximum(s_b, SINGULAR_FLOOR)

        mid = (s_a[:, :, None] * vh_a) @ (w[:, :, None] * u_b * s_b[:, None, :])
        u_c, s_c, vh_c = svd_stack(mid)
        half = np.power(s_c, (1.0 - alpha) / 2.0)
        new_w = np.power(s_c, alpha)
        nrm = _norms(new_w)
        g_a = (np.swapaxes(vh_a, 1, 2) * inv_a[:, None, :]) @ (u_c * half[:, None, :])
        g_b = (half[:, :, None] * vh_c) @ (inv_b[:, :, None] * np.swapaxes(u_b, 1, 2))
        for j, i in enumerate(idx):
            updates[i] = (float(nrm[j]), new_w[j], g_a[j], g_b[j])

    nodes = state.net.nodes
    logs = {}
    for eid, (nrm, new_w, g_a, g_b) in zip(layer, updates):
        if nrm == 0.0:
            raise WeightPassingError(f"edge {eid}: weight spectrum collapsed to zero")
        logs[eid] = float(np.log(nrm))
        edge = edges[eid]
        (an, aax), (bn, bax) = edge.endpoints
        nodes[an] = absorb_matrix(nodes[an], aax, g_a, head_side=False)
        nodes[bn] = absorb_matrix(nodes[bn], bax, g_b, head_side=True)
        if new_w.size != edge.dim:
            edges[eid] = Edge(endpoints=edge.endpoints, dim=new_w.size)
        state.weights[eid] = new_w / nrm
    return logs


def _residual(previous: dict[int, np.ndarray], weights: dict[int, np.ndarray], rel_tol: float,
              resolved_ratio: float) -> float:
    """The larger, over all edges, of the 2-norm of the weight change and
    ``rel_tol`` times the largest relative change of a weight at least
    ``resolved_ratio`` times its edge's leading one; ``inf`` if an edge
    changed its extent. Computed on one stack per extent, with the ddot of
    ``np.linalg.norm`` (:func:`pne.belief._norms`) and exact maxima, so it
    has the bits of a per-edge loop."""
    if any(previous[eid].size != w.size for eid, w in weights.items()):
        return np.inf
    news, olds = list(weights.values()), [previous[eid] for eid in weights]
    residual = 0.0
    for idx in _groups(w.size for w in news):
        w = np.stack([news[i] for i in idx])
        change = np.abs(w - np.stack([olds[i] for i in idx]))
        resolved = w >= w[:, :1] * resolved_ratio
        relative = np.divide(change, w, out=np.zeros_like(w), where=resolved)
        residual = max(residual, float(_norms(change).max()),
                       float((rel_tol * relative.max(axis=1)).max()))
    return residual


def _run_stage(state: WeightState, alpha: float) -> None:
    """Sweep edge updates (ascending edge id) at ``alpha`` until converged.

    Each sweep runs the commuting layers of :func:`_layers`, computed once
    per stage, and adds the stripped log-norms to ``log_prefactor`` in
    ascending edge id at its end, so the sweep, its float sums included,
    is bit for bit the one-edge-at-a-time sweep.

    The residual of a sweep is, over all edges, the larger of the 2-norm of
    the weight change and ``sqrt(tol)`` times the largest relative change of
    a resolved weight, one whose merged singular value is at least
    ``SINGULAR_FLOOR`` times the leading one. Below ``tol`` every weight
    vector has moved by less than ``tol`` and every resolved weight by less
    than ``sqrt(tol)`` of itself. So the trailing weights are covered too,
    which an absolute test alone cannot do for entries of a unit-norm vector
    smaller than ``tol``; weights below the floor are rounding noise that
    never settles relatively and are held to the absolute test only.
    """
    state.alpha = alpha
    state.converged = False
    rel_tol = float(np.sqrt(state.tol))
    resolved_ratio = SINGULAR_FLOOR**alpha
    index = state.net.attachment_index()
    layers = _layers(state.net)
    for _ in range(state.max_sweeps):
        previous = dict(state.weights)
        logs: dict[int, float] = {}
        for layer in layers:
            logs.update(_update_layer(state, index, layer))
        for eid in sorted(logs):
            state.log_prefactor += logs[eid]
        state.sweeps += 1
        residual = _residual(previous, state.weights, rel_tol, resolved_ratio)
        state.residual = residual
        state.residual_history.append(residual)
        if residual < state.tol:
            state.converged = True
            return


def run_weight_passing(
    net: TensorNetwork,
    alpha: float = 0.8,
    tol: float = 1e-10,
    max_sweeps: int = 500,
    ramp: list[float] | None = None,
) -> WeightState:
    """Sweep edge updates (ascending edge id) until the weights converge.

    Each sweep runs in commuting layers of edges that share no node, with
    stacked SVDs per layer; it is bit for bit the one-edge-at-a-time sweep
    (see the module docstring). ``alpha`` and every ``ramp`` stage must lie
    in [0, 1] and ``tol`` must be positive, else ``WeightPassingError``.

    With ``ramp`` the stages run in order, each to convergence, carrying the
    gauge forward; annealing from flatter spectra helps difficult networks.
    A non-convergent run returns ``converged=False`` with the residual
    history rather than raising. Convergence requires every weight vector to
    move by less than ``tol`` in a sweep and every weight resolved above
    ``SINGULAR_FLOOR`` by less than ``sqrt(tol)`` of itself.

    ``alpha`` fixes the steepness of the converged spectra (see the module
    docstring): the larger it is, the further the trailing weights fall
    below the leading one. Rank-r projectors take their first direction
    from this state and the directions beyond it from ``rank_stage``.
    """
    for stage_alpha in [*(ramp or []), alpha]:
        if not 0.0 <= stage_alpha <= 1.0:
            raise WeightPassingError(f"alpha {stage_alpha} is outside [0, 1]")
    if not tol > 0.0:
        raise WeightPassingError(f"tol {tol} must be positive")
    state = _init_state(net, alpha)
    state.tol = tol
    state.max_sweeps = max_sweeps
    for stage_alpha in [*(ramp or []), alpha]:
        _run_stage(state, stage_alpha)
    return state


def rank_stage(state: WeightState) -> WeightState:
    """The state whose spectra order the directions beyond the first.

    A state at ``alpha <= RANK_ALPHA`` is returned as it is. A sharper one
    is carried on, as a further stage of the same value-exact gauge, to
    ``RANK_ALPHA`` under the state's own ``tol`` and ``max_sweeps``; the
    result is computed once per state and kept with it. Its leading
    directions agree with the sharper state's, and its trailing weights stay
    far enough above ``SINGULAR_FLOOR`` to be ordered.
    """
    if state.alpha <= RANK_ALPHA:
        return state
    if state._rank_stage is None:
        flat = WeightState(
            net=state.net.copy(),
            weights={eid: w.copy() for eid, w in state.weights.items()},
            alpha=RANK_ALPHA,
            sweeps=state.sweeps,
            log_prefactor=state.log_prefactor,
            residual_history=list(state.residual_history),
            tol=state.tol,
            max_sweeps=state.max_sweeps,
        )
        _run_stage(flat, RANK_ALPHA)
        state._rank_stage = flat
    return state._rank_stage


def projectors_from_weights(
    state: WeightState,
    edges,
    rank: int,
) -> dict[int, np.ndarray]:
    """Rank-r factors spanning the leading weight directions, as
    ``{edge: (dim, r) isometry}``.

    In the weight gauge the spectra are axis-aligned, so the factor on each
    edge is simply the first r basis columns of ``state.net``. A cutoff the
    spectrum cannot resolve is reported, since truncating there is
    gauge-ambiguous: two weights within 1e-12 of each other, or two merged
    singular values (``(w / w[0]) ** (1 / alpha)``) within ``SINGULAR_FLOOR``
    of each other, as in the collapsed tail of a sharp stage. For rank > 1
    pass ``rank_stage(state)``, whose trailing spectrum is resolved.
    """
    if rank < 1:
        raise WeightPassingError(f"rank {rank} must be at least 1")
    out = {}
    for eid in sorted(edges):
        if eid not in state.weights:
            raise WeightPassingError(f"edge {eid} has no weights")
        w = state.weights[eid]
        dim = state.net.edges[eid].dim
        if rank > dim:
            raise WeightPassingError(f"rank {rank} exceeds the extent {dim} of edge {eid}")
        if rank < dim and _unresolved_cutoff(w, rank, state.alpha):
            _warn(
                f"edge {eid}: weight spectrum is degenerate at the rank-{rank} cutoff "
                f"(weights {w[rank - 1]:.2e}, {w[rank]:.2e})"
            )
        out[eid] = basis_columns(dim, rank)
    return out


def _warn(message: str) -> None:
    """Warn at the first calling frame outside the ``pne`` package."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "pne":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _unresolved_cutoff(w: np.ndarray, rank: int, alpha: float) -> bool:
    # alpha = 0 makes every weight equal, so the first test decides it.
    if abs(w[rank - 1] - w[rank]) < 1e-12:
        return True
    merged = np.power(w[rank - 1 : rank + 1] / w[0], 1.0 / alpha)
    return bool(merged[0] - merged[1] < SINGULAR_FLOOR)
