import warnings

import numpy as np
import pytest

from pne.bench import make_instance
from pne.models import random_grid
from pne.network import (
    DenseOp,
    Edge,
    EdgeInsertion,
    ProjectorP,
    TensorNetwork,
    absorb_matrix,
    apply_insertions,
    contract,
)
from pne.tensor import basis_columns, svd
from pne.weights import (
    RANK_ALPHA,
    SINGULAR_FLOOR,
    WeightPassingError,
    WeightState,
    _dressed,
    _init_state,
    _layers,
    _warn,
    projectors_from_weights,
    rank_stage,
    run_weight_passing,
    wp_update_edge,
)


def weighted_value(state):
    return state.contract_value()


class TestUpdate:
    def test_single_updates_preserve_scalar(self):
        for seed in range(6):
            g = random_grid((2, 2), 3, bias=0.2, seed=seed)
            exact = float(contract(g.net))
            state = run_weight_passing(g.net, alpha=0.7, max_sweeps=0)
            rng = np.random.default_rng(seed)
            for _ in range(4):
                eid = int(rng.choice(sorted(state.net.edges)))
                wp_update_edge(state, eid)
                assert abs((weighted_value(state) - exact) / exact) < 1e-10

    def test_alpha_zero_flat(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=1)
        state = run_weight_passing(g.net, alpha=0.0, max_sweeps=20)
        for w in state.weights.values():
            np.testing.assert_allclose(w, w[0], atol=1e-12)

    def test_two_vector_bond_collapses(self):
        net = TensorNetwork.build(
            {0: np.array([3.0, 4.0]), 1: np.array([1.0, 2.0])}, {0: [(0, 0), (1, 0)]}
        )
        state = run_weight_passing(net, alpha=1.0, max_sweeps=3)
        assert state.weights[0].size == 1
        np.testing.assert_allclose(state.contract_value(), 11.0, rtol=1e-12)

    def test_weights_descending_positive(self):
        g = random_grid((2, 3), 4, bias=0.2, seed=2)
        state = run_weight_passing(g.net, alpha=0.8, max_sweeps=100)
        for w in state.weights.values():
            assert np.all(w > 0)
            assert np.all(np.diff(w) <= 1e-12)


class TestNetworkWithWeights:
    def test_weight_on_tail_only(self):
        net = TensorNetwork.build(
            {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0])}, {0: [(0, 0), (1, 0)]}
        )
        out = WeightState(net=net, weights={0: np.array([2.0, 10.0])}, alpha=0.8).network_with_weights()
        np.testing.assert_array_equal(out.nodes[0], [2.0, 20.0])
        assert out.nodes[1] is net.nodes[1]
        assert out.edges == net.edges
        assert float(contract(out)) == 1 * 2 * 3 + 2 * 10 * 4

    def test_matches_diagonal_tail_operators_and_keeps_value(self):
        g = random_grid((2, 3), 3, bias=0.2, seed=4)
        state = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=100)
        weighted = state.network_with_weights()
        via_dense = apply_insertions(
            state.net, [EdgeInsertion(eid, DenseOp(np.diag(w), side=0)) for eid, w in state.weights.items()]
        )
        assert weighted.edges == state.net.edges
        for nid, t in via_dense.nodes.items():
            np.testing.assert_allclose(weighted.nodes[nid], t, rtol=1e-13, atol=0.0)
        exact = float(contract(g.net))
        assert abs(float(contract(weighted)) * np.exp(state.log_prefactor) - exact) < 1e-10 * abs(exact)


class TestRun:
    def test_converged_and_value_preserved(self):
        g = random_grid((2, 3), 4, bias=0.2, seed=3)
        exact = float(contract(g.net))
        state = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=300)
        assert state.converged
        assert abs((weighted_value(state) - exact) / exact) < 1e-9

    def test_idempotent_at_convergence(self):
        g = random_grid((2, 2), 3, bias=0.3, seed=4)
        state = run_weight_passing(g.net, alpha=0.8, tol=1e-11, max_sweeps=300)
        assert state.converged
        before = {e: w.copy() for e, w in state.weights.items()}
        for eid in sorted(state.net.edges):
            wp_update_edge(state, eid)
        for e, w in state.weights.items():
            assert np.linalg.norm(w - before[e]) < 1e-9

    def test_rescaling_leaves_weights(self):
        g = random_grid((2, 2), 3, bias=0.3, seed=5)
        s1 = run_weight_passing(g.net, alpha=0.8, tol=1e-11, max_sweeps=300)
        scaled = g.net.copy()
        scaled.nodes[1] = 4.0 * scaled.nodes[1]
        s2 = run_weight_passing(scaled, alpha=0.8, tol=1e-11, max_sweeps=300)
        for e in s1.weights:
            np.testing.assert_allclose(s2.weights[e], s1.weights[e], atol=1e-8)

    def test_alpha_one_sharpens(self):
        g = random_grid((2, 2), 4, bias=0.4, seed=6)
        state = run_weight_passing(g.net, alpha=1.0, max_sweeps=0)
        ratios = []
        for _ in range(12):
            for eid in sorted(state.net.edges):
                wp_update_edge(state, eid)
            w = state.weights[0]
            ratios.append(float(np.min(w) / np.max(w)))
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_unbiased_random_stays_flat_and_flagged(self):
        def sub_ratio(bias, seeds):
            out = []
            for s in seeds:
                g = random_grid((2, 2), 4, bias=bias, seed=s)
                st = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=60)
                out.append((st.converged, float(np.median([w[1] / w[0] for w in st.weights.values()]))))
            return out

        unbiased = sub_ratio(0.0, range(4))
        biased = sub_ratio(0.5, range(4))
        assert not any(c for c, _ in unbiased)          # flagged: no convergence
        flat_u = np.median([r for _, r in unbiased])
        flat_b = np.median([r for _, r in biased])
        assert flat_u > 10 * flat_b                      # spectra stay much flatter

    def test_ramp_runs_stages(self):
        g = random_grid((2, 2), 3, bias=0.3, seed=8)
        state = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=200, ramp=[0.3, 0.5])
        assert state.converged
        exact = float(contract(g.net))
        assert abs((weighted_value(state) - exact) / exact) < 1e-9

    def test_converged_covers_trailing_weights(self):
        # At alpha = 0.8 this patch's trailing weights sit near 1e-10, where
        # an absolute test on the unit-norm vectors cannot fail; at
        # convergence a further sweep must still move every weight resolved
        # above the floor by less than sqrt(tol) of itself.
        g = make_instance("random", (2, 3), seed=20240801)
        state = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=300)
        assert state.converged
        before = {e: w.copy() for e, w in state.weights.items()}
        assert max(float(w[1]) for w in before.values()) < 1e-9
        for eid in sorted(state.net.edges):
            wp_update_edge(state, eid)
        for e, w in state.weights.items():
            resolved = w >= w[0] * SINGULAR_FLOOR**0.8
            assert np.all(np.abs(w - before[e])[resolved] < 1e-5 * w[resolved])

    def test_open_network_rejected(self):
        g = random_grid((2, 3), 3, seed=0, open_axes=frozenset({((1, 0), (0, 1))}))
        with pytest.raises(WeightPassingError):
            run_weight_passing(g.net)


def rank_deficient_grid():
    """A 2x3 grid whose corner node has one slice of its last axis zeroed,
    so the weight updates meet singular values below the floor."""
    g = random_grid((2, 3), 3, bias=0.2, seed=0)
    g.net.nodes[0][..., -1] = 0.0
    return g


def floored_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return [w for w in caught if "floored" in str(w.message)]


class TestWarningAttribution:
    def test_floor_warning_names_the_caller(self):
        g = rank_deficient_grid()
        caught = floored_warnings(lambda: run_weight_passing(g.net))
        assert caught and all(w.filename == __file__ for w in caught)

    def test_floor_warning_through_build_preset(self):
        from pne.presets import build_preset

        g = rank_deficient_grid()
        caught = floored_warnings(lambda: build_preset("doubleloop-3v", g, projectors="weights"))
        assert caught and all(w.filename == __file__ for w in caught)


class TestProjectors:
    def test_rank_and_idempotence(self):
        g = random_grid((2, 3), 4, bias=0.2, seed=9)
        state = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=300)
        pr = projectors_from_weights(state, [0, 1], rank=2)
        for p in pr.values():
            mat = p.isometry @ p.isometry.T
            np.testing.assert_allclose(mat @ mat, mat, atol=1e-14)
            assert np.linalg.matrix_rank(mat) == 2

    def test_full_rank_is_identity(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=10)
        state = run_weight_passing(g.net, alpha=0.8, max_sweeps=50)
        pr = projectors_from_weights(state, [0], rank=state.net.edges[0].dim)
        u = pr[0].isometry
        np.testing.assert_allclose(u @ u.T, np.eye(u.shape[0]), atol=1e-14)

    def test_rank_too_large(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=11)
        state = run_weight_passing(g.net, alpha=0.8, max_sweeps=20)
        with pytest.raises(WeightPassingError):
            projectors_from_weights(state, [0], rank=99)

    def test_degenerate_cutoff_warns(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=12)
        state = run_weight_passing(g.net, alpha=0.8, max_sweeps=20)
        state.weights[0] = np.array([0.8, 0.4242, 0.4242])
        with pytest.warns(UserWarning, match="degenerate"):
            projectors_from_weights(state, [0], rank=2)

    def test_unresolved_tail_cutoff_warns(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=12)
        state = run_weight_passing(g.net, alpha=0.8, max_sweeps=20)
        # Merged singular values 1, 2.8e-13, 2.3e-13: the rank-1 cutoff is
        # resolved, the rank-2 cutoff lies inside the collapsed tail.
        state.weights[0] = np.array([1.0, 9e-11, 7.7e-11])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projectors_from_weights(state, [0], rank=1)
        with pytest.warns(UserWarning, match="degenerate"):
            projectors_from_weights(state, [0], rank=2)

    def test_rank_stage_resolves_the_tail(self):
        g = make_instance("random", (2, 3), seed=20240801)
        exact = float(contract(g.net))
        sharp = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=300)
        flat = rank_stage(sharp)
        assert flat is rank_stage(sharp)
        assert flat.converged and flat.alpha == RANK_ALPHA
        assert rank_stage(flat) is flat
        assert abs((flat.contract_value() - exact) / exact) < 1e-9
        for e, w in flat.weights.items():
            assert w[0] / np.linalg.norm(w) > 0.99
            assert (w[1] / w[0]) ** (1 / RANK_ALPHA) > 1e6 * SINGULAR_FLOOR
            assert sharp.weights[e][1] < 1e-9

    def test_leading_direction_matches_bp(self):
        # On an instance with a clean fixed point the top weight direction
        # spans the same subspace as the symmetrized message.
        from pne.belief import run_bp, symmetrize

        g = random_grid((2, 3), 4, bias=0.5, seed=13)
        bp = run_bp(g.net, tol=1e-12, max_iter=4000, seed=0)
        assert bp.converged
        net2, gauge = symmetrize(g.net, bp)
        ws = run_weight_passing(net2, alpha=0.8, tol=1e-10, max_sweeps=300)
        assert ws.converged
        # In the symmetrized gauge the message direction is e0, and in the
        # weight gauge the top weight direction is e0. Both are value-exact
        # gauges of the same network, so when the two directions span the
        # same subspace the rank-1 cut of an edge keeps the same share of
        # the contraction in either gauge.
        def cut_ratio(net, eid):
            e0 = ProjectorP(basis_columns(net.edges[eid].dim, 1))
            return float(contract(apply_insertions(net, [EdgeInsertion(eid, e0)]))) / float(contract(net))

        weighted = ws.network_with_weights()
        for eid in sorted(net2.edges):
            w = ws.weights[eid]
            assert w[0] / np.linalg.norm(w) > 0.99
            bp_ratio = cut_ratio(net2, eid)
            assert abs(cut_ratio(weighted, eid) - bp_ratio) < 1e-8 * abs(bp_ratio)


# ---------------------------------------------------------------------------
# The one-edge-at-a-time sweep, kept as the oracle of the layered kernel
# ---------------------------------------------------------------------------

def oracle_update_edge(state, index, eid):
    edge = state.net.edges[eid]
    (an, aax), (bn, bax) = edge.endpoints
    a_dressed = _dressed(state, index, an, skip_edge=eid)
    b_dressed = _dressed(state, index, bn, skip_edge=eid)

    other_a = [i for i in range(a_dressed.ndim) if i != aax]
    res_a = svd(a_dressed, row_axes=other_a, col_axes=[aax])
    other_b = [i for i in range(b_dressed.ndim) if i != bax]
    res_b = svd(b_dressed, row_axes=[bax], col_axes=other_b)

    s_a, vh_a = res_a.s, res_a.vh_matrix()
    u_b, s_b = res_b.u_matrix(), res_b.s
    if np.any(s_a < SINGULAR_FLOOR) or np.any(s_b < SINGULAR_FLOOR):
        _warn(f"edge {eid}: singular values below {SINGULAR_FLOOR:g} floored during weight update")
    inv_a = 1.0 / np.maximum(s_a, SINGULAR_FLOOR)
    inv_b = 1.0 / np.maximum(s_b, SINGULAR_FLOOR)

    mid = (s_a[:, None] * vh_a) @ (state.weights[eid][:, None] * u_b * s_b[None, :])
    res_c = svd(mid)
    s_c = res_c.s
    u_c = res_c.u_matrix()
    vh_c = res_c.vh_matrix()

    half = np.power(s_c, (1.0 - state.alpha) / 2.0)
    new_w = np.power(s_c, state.alpha)
    nrm = float(np.linalg.norm(new_w))
    if nrm == 0.0:
        raise WeightPassingError(f"edge {eid}: weight spectrum collapsed to zero")
    state.log_prefactor += float(np.log(nrm))

    g_a = (res_a.vh_matrix().T * inv_a[None, :]) @ (u_c * half[None, :])
    g_b = (half[:, None] * vh_c) @ (inv_b[:, None] * u_b.T)

    state.net.nodes[an] = absorb_matrix(state.net.nodes[an], aax, g_a, head_side=False)
    state.net.nodes[bn] = absorb_matrix(state.net.nodes[bn], bax, g_b, head_side=True)
    new_dim = s_c.size
    if new_dim != edge.dim:
        state.net.edges[eid] = Edge(endpoints=edge.endpoints, dim=new_dim)
    state.weights[eid] = new_w / nrm
    return state


def oracle_run_stage(state, alpha):
    state.alpha = alpha
    state.converged = False
    rel_tol = float(np.sqrt(state.tol))
    resolved_ratio = SINGULAR_FLOOR**alpha
    index = state.net.attachment_index()
    for _ in range(state.max_sweeps):
        previous = {eid: w.copy() for eid, w in state.weights.items()}
        for eid in sorted(state.net.edges):
            oracle_update_edge(state, index, eid)
        state.sweeps += 1
        residual = 0.0
        for eid, w in state.weights.items():
            old = previous[eid]
            if old.size != w.size:
                residual = np.inf
                break
            change = np.abs(w - old)
            resolved = w >= w[0] * resolved_ratio
            relative = np.divide(change, w, out=np.zeros_like(w), where=resolved)
            residual = max(residual, float(np.linalg.norm(change)), rel_tol * float(relative.max()))
        state.residual = residual
        state.residual_history.append(residual)
        if residual < state.tol:
            state.converged = True
            return


def oracle_run(net, alpha=0.8, tol=1e-10, max_sweeps=500, ramp=None):
    state = _init_state(net, alpha)
    state.tol = tol
    state.max_sweeps = max_sweeps
    for stage_alpha in [*(ramp or []), alpha]:
        oracle_run_stage(state, stage_alpha)
    return state


def oracle_rank_stage(state):
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
    oracle_run_stage(flat, RANK_ALPHA)
    return flat


def assert_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_state(got, want):
    assert got.net.edges == want.net.edges
    assert got.weights.keys() == want.weights.keys()
    for eid, w in want.weights.items():
        assert_bits(got.weights[eid], w)
    assert got.net.nodes.keys() == want.net.nodes.keys()
    for nid, t in want.net.nodes.items():
        assert_bits(got.net.nodes[nid], t)
    assert got.log_prefactor == want.log_prefactor
    assert (got.alpha, got.sweeps, got.converged) == (want.alpha, want.sweeps, want.converged)
    assert got.residual == want.residual
    assert got.residual_history == want.residual_history


def two_vector_bond():
    return TensorNetwork.build({0: np.array([3.0, 4.0]), 1: np.array([1.0, 2.0])}, {0: [(0, 0), (1, 0)]})


def double_bond(seed=0):
    rng = np.random.default_rng(seed)
    return TensorNetwork.build(
        {0: rng.normal(size=(3, 4)) + 0.5, 1: rng.normal(size=(3, 4)) + 0.5},
        {0: [(0, 0), (1, 0)], 1: [(0, 1), (1, 1)]},
    )


class TestLayeredKernel:
    """The layered sweep reproduces the one-edge-at-a-time sweep bit for
    bit: weights, node tensors, edge dims, prefactor, sweep counts and
    residual history."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_gauge_sweep_grids(self, seed):
        net = random_grid((4, 4), 4, bias=0.2, seed=seed).net
        got = run_weight_passing(net, alpha=0.8, tol=1e-10, max_sweeps=400)
        assert got.sweeps > 5
        assert_same_state(got, oracle_run(net, alpha=0.8, tol=1e-10, max_sweeps=400))

    @pytest.mark.parametrize("seed", range(3))
    def test_first_sweeps(self, seed):
        # The prefactor is a float sum whose order shows most from the start.
        for shape, chi in [((4, 4), 4), ((3, 3), 3)]:
            net = random_grid(shape, chi, bias=0.2, seed=seed).net
            for sweeps in (1, 2):
                assert_same_state(run_weight_passing(net, max_sweeps=sweeps), oracle_run(net, max_sweeps=sweeps))

    def test_capped_chi16_patch_and_rank_stage(self):
        net = make_instance("random", (2, 3), seed=20240801).net
        got = run_weight_passing(net, alpha=0.8, tol=1e-10, max_sweeps=300)
        want = oracle_run(net, alpha=0.8, tol=1e-10, max_sweeps=300)
        assert_same_state(got, want)
        assert_same_state(rank_stage(got), oracle_rank_stage(want))

    def test_bond_that_collapses_to_dim_one(self):
        got = run_weight_passing(two_vector_bond(), alpha=1.0, max_sweeps=3)
        assert got.net.edges[0].dim == 1
        assert_same_state(got, oracle_run(two_vector_bond(), alpha=1.0, max_sweeps=3))

    def test_two_nodes_joined_by_two_edges(self):
        got = run_weight_passing(double_bond(), alpha=0.8, tol=1e-11, max_sweeps=200)
        assert [len(layer) for layer in _layers(got.net)] == [1, 1]
        assert_same_state(got, oracle_run(double_bond(), alpha=0.8, tol=1e-11, max_sweeps=200))

    def test_ramp(self):
        net = random_grid((3, 3), 3, bias=0.3, seed=8).net
        got = run_weight_passing(net, alpha=0.8, tol=1e-10, max_sweeps=200, ramp=[0.3, 0.5])
        assert_same_state(got, oracle_run(net, alpha=0.8, tol=1e-10, max_sweeps=200, ramp=[0.3, 0.5]))

    def test_single_edge_updates(self):
        net = random_grid((2, 3), 3, bias=0.2, seed=3).net
        got = run_weight_passing(net, alpha=0.7, max_sweeps=0)
        want = run_weight_passing(net, alpha=0.7, max_sweeps=0)
        index = want.net.attachment_index()
        for eid in np.random.default_rng(3).choice(sorted(net.edges), size=12):
            wp_update_edge(got, int(eid))
            oracle_update_edge(want, index, int(eid))
        assert_same_state(got, want)


class TestLayers:
    @pytest.mark.parametrize("shape, edges, layers", [((4, 4), 24, 6), ((12, 12), 264, 22), ((3, 3), 12, 4)])
    def test_grid_counts(self, shape, edges, layers):
        schedule = _layers(random_grid(shape, 2, seed=0).net)
        assert sum(map(len, schedule)) == edges and len(schedule) == layers

    @pytest.mark.parametrize("seed", range(8))
    def test_layers_commute_and_keep_shared_node_order(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(2, 9))
        pairs = [tuple(rng.choice(n_nodes, size=2, replace=False)) for _ in range(int(rng.integers(1, 25)))]
        legs = {n: [] for n in range(n_nodes)}
        edges = {}
        for eid, (a, b) in zip(rng.permutation(100)[: len(pairs)], pairs):
            edges[int(eid)] = [(int(a), len(legs[a])), (int(b), len(legs[b]))]
            legs[a].append(eid)
            legs[b].append(eid)
        nodes = {n: np.ones((2,) * len(ax)) for n, ax in legs.items() if ax}
        net = TensorNetwork.build(nodes, edges)
        schedule = _layers(net)
        assert sorted(e for layer in schedule for e in layer) == sorted(edges)
        position = {e: k for k, layer in enumerate(schedule) for e in layer}
        for layer in schedule:
            assert layer == sorted(layer)
            touched = [n for e in layer for n, _ in edges[e]]
            assert len(touched) == len(set(touched))
        for e in edges:
            for f in edges:
                if e < f and {n for n, _ in edges[e]} & {n for n, _ in edges[f]}:
                    assert position[e] < position[f]


def floored_edges(run):
    return sorted(int(str(w.message).split(":")[0].split()[1]) for w in floored_warnings(run))


class TestLayeredWarnings:
    def test_floor_warning_once_per_edge_as_oracle(self):
        g = rank_deficient_grid()
        for sweeps in (1, 2, 3):
            got = floored_edges(lambda: run_weight_passing(g.net, max_sweeps=sweeps))
            want = floored_edges(lambda: oracle_run(g.net, max_sweeps=sweeps))
            assert got and got == want

    def chain(self, zero_nodes):
        # Edges 0 (nodes 0-1) and 1 (nodes 2-3) form layer 0, edge 2 layer 1.
        nodes = {0: np.array([1.0, 2.0]), 1: np.ones((2, 2)), 2: np.ones((2, 2)) + np.eye(2),
                 3: np.array([2.0, 1.0])}
        for n in zero_nodes:
            nodes[n] = np.zeros_like(nodes[n])
        return TensorNetwork.build(nodes, {0: [(0, 0), (1, 0)], 1: [(2, 1), (3, 0)], 2: [(1, 1), (2, 0)]})

    @pytest.mark.parametrize("zero_nodes, eid", [((3,), 1), ((0, 3), 0)])
    def test_collapse_names_lowest_edge_of_its_layer(self, zero_nodes, eid):
        assert _layers(self.chain(zero_nodes)) == [[0, 1], [2]]
        for run in (run_weight_passing, oracle_run):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(WeightPassingError, match=rf"^edge {eid}: weight spectrum collapsed"):
                    run(self.chain(zero_nodes), max_sweeps=2)


class TestArguments:
    @pytest.mark.parametrize("alpha", [-0.5, 1.5, float("nan"), float("inf")])
    def test_alpha_outside_unit_interval(self, alpha):
        g = random_grid((2, 2), 3, seed=1)
        with pytest.raises(WeightPassingError, match="alpha"):
            run_weight_passing(g.net, alpha=alpha)
        with pytest.raises(WeightPassingError, match="alpha"):
            run_weight_passing(g.net, alpha=0.8, ramp=[0.3, alpha])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tol_not_positive(self, tol):
        g = random_grid((2, 2), 3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeightPassingError, match="tol"):
                run_weight_passing(g.net, tol=tol)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one(self, rank):
        g = random_grid((2, 2), 3, bias=0.2, seed=11)
        state = run_weight_passing(g.net, alpha=0.8, max_sweeps=20)
        with pytest.raises(WeightPassingError, match=f"rank {rank}"):
            projectors_from_weights(state, [0], rank=rank)

    def test_update_of_unknown_edge_is_named(self):
        state = run_weight_passing(random_grid((2, 2), 3, seed=1).net, alpha=0.8, max_sweeps=0)
        before = dict(state.weights), state.log_prefactor
        with pytest.raises(WeightPassingError, match="edge 99 is not an edge of the network"):
            wp_update_edge(state, 99)
        assert (dict(state.weights), state.log_prefactor) == before
