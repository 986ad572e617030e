import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pne.expansion import evaluate
from pne.models import random_grid
from pne.network import (
    DEFAULT_MEMORY_CAP_BYTES,
    PLAN_CACHE_SIZE,
    DenseOp,
    Edge,
    EdgeInsertion,
    Identity,
    InsertionError,
    MemoryBudgetError,
    NetworkError,
    ProjectorP,
    TensorNetwork,
    absorb_matrix,
    apply_insertions,
    contract,
    insert_joint_dense,
    insert_joint_pair,
    _Planner,
    _compile,
    _layout,
    _plan_dp,
    _plan_for,
    _plan_greedy,
    _planner_key,
    _plan_sweep,
    plan_order,
    subnetwork,
    validate,
)
from pne.presets import PRESETS, build_preset


def vec_net():
    return TensorNetwork.build(
        {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0])}, {0: [(0, 0), (1, 0)]}
    )


def run_plan(plan, net):
    """``plan`` compiled for ``net``'s own layout and run the way
    :func:`contract` runs a cached plan's program."""
    return _compile(plan, _layout(net))(list(net.nodes.values()))


def brute_force_value(net):
    eids = sorted(net.edges)
    axes = {n: net.node_axes(n) for n in net.nodes}
    total = 0.0
    for assign in itertools.product(*(range(net.edges[e].dim) for e in eids)):
        idx = dict(zip(eids, assign))
        term = 1.0
        for n, t in net.nodes.items():
            term *= t[tuple(idx[e] for e in axes[n])]
        total += term
    return total


class TestValidate:
    def test_scalar_node_ok(self):
        net = TensorNetwork(nodes={0: np.array(2.5)}, edges={})
        assert validate(net) == []

    def test_extent_mismatch_names_edge(self):
        net = TensorNetwork(
            nodes={0: np.zeros(2), 1: np.zeros(3)},
            edges={7: Edge(endpoints=((0, 0), (1, 0)), dim=2)},
        )
        problems = validate(net)
        assert len(problems) == 1 and "edge 7" in problems[0]

    def test_generated_lattice_ok(self):
        g = random_grid((3, 3), 3, seed=0)
        assert validate(g.net) == []

    def test_uncovered_axis(self):
        net = TensorNetwork(nodes={0: np.zeros((2, 2))}, edges={})
        assert any("not covered" in p for p in validate(net))

    @pytest.mark.parametrize("attachments, problem", [
        ({0: [(0, 0), (1, 0)], 1: []}, "edge 1: has 0 endpoints"),
        ({0: [(0, 0), (1, 0), (1, 0)]}, "edge 0: has 3 endpoints"),
        ({0: [(0, 0), (5, 0)]}, "edge 0: unknown node 5"),
        ({0: [(0, 0), (1, 2)]}, "edge 0: node 1 has no axis 2"),
        ({0: [(0, 0), (2, 0)], 1: [(1, 0)]}, "edge 0: extent 3 of node 2 axis 0 != edge dim 2"),
    ])
    def test_build_rejects_malformed_structure(self, attachments, problem):
        with pytest.raises(NetworkError, match=problem):
            TensorNetwork.build({0: np.ones(2), 1: np.ones(2), 2: np.ones(3)}, attachments)

    def test_build_reports_every_violation(self):
        with pytest.raises(NetworkError, match="unknown node 5.*has no axis 1"):
            TensorNetwork.build({0: np.ones(2), 1: np.ones(2)}, {0: [(0, 0), (5, 0)], 1: [(1, 1)]})


class TestContract:
    def test_two_vectors(self):
        assert float(contract(vec_net())) == 11.0

    def test_matches_index_sum(self):
        g = random_grid((2, 2), 2, bias=0.2, seed=3)
        np.testing.assert_allclose(float(contract(g.net)), brute_force_value(g.net), rtol=1e-12)

    def test_open_axes_ascending_edge_order(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(2, 3))
        net = TensorNetwork.build({0: t}, {5: [(0, 1)], 2: [(0, 0)]})
        out = contract(net)
        assert out.shape == (2, 3)     # edge 2 (axis 0) first, then edge 5
        np.testing.assert_allclose(out, t)

    def test_trace_edge(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(3, 3))
        net = TensorNetwork.build({0: t}, {0: [(0, 0), (0, 1)]})
        np.testing.assert_allclose(float(contract(net)), np.trace(t), rtol=1e-12)

    def test_disconnected_outer_product(self):
        net = TensorNetwork.build(
            {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0]), 2: np.array([5.0, 6.0]), 3: np.array([7.0, 8.0])},
            {0: [(0, 0), (1, 0)], 1: [(2, 0), (3, 0)]},
        )
        np.testing.assert_allclose(float(contract(net)), 11.0 * 83.0, rtol=1e-12)

    def test_plan_independence(self):
        g = random_grid((3, 3), 3, bias=0.2, seed=5)
        key = _planner_key(_layout(g.net))
        plans = [
            _plan_sweep(key),
            _plan_sweep(key, reverse=True),
            _plan_greedy(key),
            _plan_greedy(key, seed=3),
            _plan_dp(key),
        ]
        values = [float(run_plan(plan, g.net)) for plan in plans]
        for v in values[1:]:
            np.testing.assert_allclose(v, values[0], rtol=1e-10)

    def test_memory_cap(self):
        g = random_grid((3, 3), 4, seed=1)
        with pytest.raises(MemoryBudgetError):
            contract(g.net, memory_cap_bytes=64)

    def test_memory_cap_is_the_plans_peak(self):
        # The cap admits the plan's largest result exactly and refuses it
        # one byte short, before any step runs.
        g = random_grid((3, 3), 4, seed=1)
        peak = plan_order(g.net).peak_result_entries
        assert peak > 1
        want = float(contract(g.net))
        assert float(contract(g.net, memory_cap_bytes=8 * peak)) == want
        message = rf"planned intermediate of {peak} entries \({8 * peak} bytes\) exceeds the {8 * peak - 1}-byte cap"
        with pytest.raises(MemoryBudgetError, match=message) as info:
            contract(g.net, memory_cap_bytes=8 * peak - 1)
        assert info.value.shape == (peak,)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(11)
        g = random_grid((2, 3), 3, bias=0.2, seed=2)
        base = float(contract(g.net))
        for eid in sorted(g.net.edges):
            x = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            net2 = apply_insertions(g.net, [EdgeInsertion(eid, DenseOp(x, side=0))])
            net2 = apply_insertions(net2, [EdgeInsertion(eid, DenseOp(np.linalg.inv(x), side=1))])
            np.testing.assert_allclose(float(contract(net2)), base, rtol=1e-10)


def pair_net(a, b, pairs):
    """Two-node network joining axis ``i`` of ``a`` to axis ``j`` of ``b`` for
    each ``(i, j)`` in ``pairs``; the open edges are numbered so that the
    result carries the free axes of ``a`` first, then those of ``b``."""
    att = {k: [(0, i), (1, j)] for k, (i, j) in enumerate(pairs)}
    free = [(0, i) for i in range(a.ndim) if i not in {p[0] for p in pairs}]
    free += [(1, j) for j in range(b.ndim) if j not in {p[1] for p in pairs}]
    for k, ep in enumerate(free, start=len(pairs)):
        att[k] = [ep]
    return TensorNetwork.build({0: a, 1: b}, att)


def loop_contract(a, b, pairs):
    """Naive nested-loop contraction oracle."""
    ax_a = [p[0] for p in pairs]
    ax_b = [p[1] for p in pairs]
    free_a = [i for i in range(a.ndim) if i not in ax_a]
    free_b = [i for i in range(b.ndim) if i not in ax_b]
    out = np.zeros([a.shape[i] for i in free_a] + [b.shape[i] for i in free_b])
    for idx_a in itertools.product(*(range(s) for s in a.shape)):
        full_b = [0] * b.ndim
        for i, j in pairs:
            full_b[j] = idx_a[i]
        for idx_free_b in itertools.product(*(range(b.shape[j]) for j in free_b)):
            for j, v in zip(free_b, idx_free_b):
                full_b[j] = v
            key = tuple(idx_a[i] for i in free_a) + idx_free_b
            out[key] += a[idx_a] * b[tuple(full_b)]
    return out


class TestPairContraction:
    """Two-node contractions: every pairwise product of the package runs
    through ``contract``'s pair step."""

    def test_identity_times_vector(self):
        out = contract(pair_net(np.eye(2), np.array([3.0, 4.0]), [(1, 0)]))
        np.testing.assert_allclose(out, [3.0, 4.0])

    def test_dot_product(self):
        v = np.array([1.0, 2.0, 2.0])
        out = contract(pair_net(v, v, [(0, 0)]))
        assert out.ndim == 0
        assert float(out) == 9.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 4))
        out = contract(pair_net(a, b, [(2, 0), (1, 1)]))
        oracle = np.einsum("ijk,kj->i", a, b)
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        np.testing.assert_allclose(out, loop_contract(a, b, [(2, 0), (1, 1)]), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-5, 5, allow_nan=False))
    def test_bilinear(self, seed, alpha):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        lhs = contract(pair_net(alpha * a, b, [(1, 0)]))
        rhs = alpha * contract(pair_net(a, b, [(1, 0)]))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_small_shapes_match_loops(self, seed):
        rng = np.random.default_rng(seed)
        ra = int(rng.integers(1, 4))
        rb = int(rng.integers(1, 4))
        npairs = int(rng.integers(0, min(ra, rb) + 1))
        dims = [int(rng.integers(1, 5)) for _ in range(npairs)]
        a = rng.normal(size=dims + [int(rng.integers(1, 5)) for _ in range(ra - npairs)])
        b = rng.normal(size=dims + [int(rng.integers(1, 5)) for _ in range(rb - npairs)])
        pairs = [(i, i) for i in range(npairs)]
        np.testing.assert_allclose(
            contract(pair_net(a, b, pairs)), loop_contract(a, b, pairs), atol=1e-10
        )

    def test_mismatch_raises(self):
        with pytest.raises(NetworkError, match="extent 3 of node 1 axis 0 != edge dim 2"):
            pair_net(np.zeros((2, 3)), np.zeros((3, 3)), [(0, 0)])


class TestPlanOrder:
    def test_double_loop_exponent(self):
        g = random_grid((2, 3), 3, seed=0)
        assert plan_order(g.net).cost_exponent(3) == pytest.approx(4.0, abs=1e-9)

    def test_grid3x3_exponent(self):
        g = random_grid((3, 3), 3, seed=0)
        assert plan_order(g.net).cost_exponent(3) == pytest.approx(6.0, abs=1e-9)

    def test_chain_exponent(self):
        chi = 3
        rng = np.random.default_rng(0)
        tensors = {i: rng.normal(size=(chi, chi)) for i in range(4)}
        attach = {
            0: [(0, 0)], 1: [(0, 1), (1, 0)], 2: [(1, 1), (2, 0)],
            3: [(2, 1), (3, 0)], 4: [(3, 1)],
        }
        net = TensorNetwork.build(tensors, attach)
        assert plan_order(net).cost_exponent(chi) == pytest.approx(3.0, abs=1e-9)

    def test_disconnected_plans(self):
        net = TensorNetwork.build(
            {0: np.ones(2), 1: np.ones(2), 2: np.ones(3), 3: np.ones(3)},
            {0: [(0, 0), (1, 0)], 1: [(2, 0), (3, 0)]},
        )
        plan = plan_order(net)
        assert any(s.kind == "outer" for s in plan.steps)

    def test_empty_network_is_named(self):
        with pytest.raises(NetworkError, match="network has no nodes"):
            plan_order(TensorNetwork(nodes={}, edges={}))

    def test_costs_beyond_int64(self):
        # Zero-copy views: the cap check must stop contract before numpy allocates.
        big = np.broadcast_to(np.zeros(1), (2**16,) * 3)
        ends = [((0, 0), (1, 0)), ((0, 1),), ((0, 2),), ((1, 1),), ((1, 2),)]
        net = TensorNetwork(nodes={0: big, 1: big}, edges={e: Edge(eps, 2**16) for e, eps in enumerate(ends)})
        plan = plan_order(net)
        assert (plan.peak_step_flops, plan.peak_result_entries) == (2**80, 2**64)
        with pytest.raises(MemoryBudgetError):
            contract(net)


def _brute_force_peak(key):
    """Least peak step flops over every binary contraction tree of ``key``'s
    nodes, after tracing each node's self-loops, counted step by step from
    explicit leg sets."""
    node_ids, edges = key
    peak = 0
    for n in node_ids:
        axes = [d for _, ends, d in edges for x in ends if x == n]
        for _, ends, d in sorted((eid, ends, d) for eid, ends, d in edges if ends == (n, n)):
            peak = max(peak, math.prod(axes))
            axes.remove(d)
            axes.remove(d)
    dims = {eid: d for eid, _, d in edges}

    def legs(group):
        inside = [(eid, [x in group for x in ends]) for eid, ends, _ in edges]
        return frozenset(eid for eid, ins in inside if any(ins) and (len(ins) == 1 or not all(ins)))

    def tree_peaks(group):
        if len(group) == 1:
            return [0]
        first, *rest = sorted(group)
        peaks = []
        for k in range(len(rest)):
            for others in itertools.combinations(rest, k):
                a, b = frozenset((first, *others)), group - {first, *others}
                step = math.prod(dims[e] for e in legs(a) | legs(b))
                peaks += [max(pa, pb, step) for pa in tree_peaks(a) for pb in tree_peaks(b)]
        return peaks

    return max(peak, min(tree_peaks(frozenset(node_ids))))


def _random_key(rng):
    """A random plan key of 1-6 nodes with open edges, multi-edges, self-loops
    and, often, more than one connected part."""
    node_ids = [int(x) for x in rng.choice(20, size=int(rng.integers(1, 7)), replace=False)]
    edges = []
    for eid in rng.permutation(int(rng.integers(0, 10))):
        r = rng.random()
        if r < 0.2:
            ends = (int(rng.choice(node_ids)),)
        elif r < 0.35:
            ends = (int(rng.choice(node_ids)),) * 2
        else:
            ends = tuple(int(x) for x in rng.choice(node_ids, size=2, replace=len(node_ids) == 1))
        edges.append((int(eid), ends, int(rng.integers(1, 5))))
    return tuple(node_ids), tuple(edges)


class TestPlanStrategies:
    def test_dp_peak_is_least_over_all_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            key = _random_key(rng)
            plan = _plan_dp(key)
            assert plan.peak_step_flops == _brute_force_peak(key), key
            flops = [s.flops for s in plan.steps]
            assert plan.total_flops == sum(flops)
            assert plan.peak_step_flops == max(flops, default=0)
            assert plan.peak_result_entries == max((s.result_entries for s in plan.steps), default=0)

    def test_greedy_matches_rescoring_every_pair(self):
        # The greedy planner rescores only the pairs a merge touches; it
        # must pick what scoring every live pair after each merge picks.
        def rescore_all(key, seed):
            rng = np.random.default_rng(seed) if seed is not None else None
            pl = _Planner(key)
            while len(pl.legs) > 1:
                live = sorted(pl.legs)
                cands = [(pl.entries(a, b), a, b)
                         for i, a in enumerate(live) for b in live[i + 1:] if pl.adjacent(a, b)]
                if not cands:
                    pl.merge(live[0], live[1])
                    continue
                lowest = min(c[0] for c in cands)
                pool = [c for c in cands if c[0] == lowest]
                _, a, b = pool[0] if rng is None else pool[int(rng.integers(len(pool)))]
                pl.merge(a, b)
            return pl.plan()

        rng = np.random.default_rng(11)
        keys = [_random_key(rng) for _ in range(150)]
        keys += [_planner_key(_layout(random_grid(shape, 2, seed=0).net)) for shape in ((3, 3), (4, 5), (2, 2, 2))]
        for key in keys:
            for seed in (None, 0, 3, 7):
                assert _plan_greedy(key, seed) == rescore_all(key, seed), (key, seed)

    def test_trace_steps_count_untraced_loops_twice(self):
        t = np.random.default_rng(2).normal(size=(2, 2, 3, 3, 5))
        net = TensorNetwork.build({0: t}, {0: [(0, 0), (0, 1)], 1: [(0, 2), (0, 3)], 2: [(0, 4)]})
        plan = plan_order(net)
        steps = [(s.kind, s.flops, s.result_entries) for s in plan.steps]
        assert steps == [("trace", 180, 45), ("trace", 45, 5)]
        np.testing.assert_allclose(contract(net), np.einsum("aabbc->c", t), rtol=1e-12)


class TestPlanCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _plan_for.cache_clear()

    def test_cached_plans_match_fresh_ones(self):
        terms = []
        for name, (shape, open_axes, _) in sorted(PRESETS.items()):
            g = random_grid(shape, 3, bias=0.2, seed=5, open_axes=open_axes)
            terms += build_preset(name, g, projectors="random", seed=1).expansion.terms
        assert _plan_for.cache_info().hits > 0
        for term in terms:
            _plan_for.cache_clear()
            assert plan_order(term.network) == term.plan

    def test_bond_dim_gets_its_own_plan(self):
        p2 = plan_order(random_grid((3, 3), 2, seed=0).net)
        p3 = plan_order(random_grid((3, 3), 3, seed=0).net)
        assert p2 is not p3
        assert (p2.peak_step_flops, p3.peak_step_flops) == (2**6, 3**6)
        assert _plan_for.cache_info().currsize == 2

    def test_same_structure_shares_the_plan_object(self):
        a, b = random_grid((3, 3), 3, seed=1), random_grid((3, 3), 3, bias=0.5, seed=2)
        assert plan_order(a.net) is plan_order(b.net)
        assert _plan_for.cache_info().hits == 1

    def test_invalid_twin_still_raises(self):
        # A warmed entry never vouches for a network it has not seen: same
        # edges, but node 0 has a wrong extent, then an extra trailing axis.
        g = random_grid((2, 3), 3, seed=0)
        plan_order(g.net)
        wrong_extent, extra_axis = g.net.copy(), g.net.copy()
        wrong_extent.nodes[0] = g.net.nodes[0][..., :2]
        extra_axis.nodes[0] = g.net.nodes[0][..., None]
        cases = ((wrong_extent, "extent 2 of node 0"), (extra_axis, "axis 2 of node 0 is not covered"))
        for bad, problem in cases:
            message = "cannot plan an invalid network: " + "; ".join(validate(bad))
            assert problem in message
            for call in (plan_order, contract):
                with pytest.raises(NetworkError) as info:
                    call(bad)
                assert type(info.value) is NetworkError and str(info.value) == message
        np.testing.assert_allclose(float(contract(g.net)), brute_force_value(g.net), rtol=1e-12)


    def test_raises_exactly_when_validate_complains(self):
        # A hit proves a network valid only if every miss is checked and no
        # failure is cached: half the networks get a node with a wrong
        # extent or an uncovered extra axis.
        rng = np.random.default_rng(21)
        invalid = 0
        for _ in range(300):
            net = _random_network(rng)
            if rng.random() < 0.5:
                n = int(rng.choice(list(net.nodes)))
                shape = list(net.nodes[n].shape)
                if shape and rng.random() < 0.5:
                    shape[int(rng.integers(len(shape)))] += 1
                else:
                    shape.append(int(rng.integers(1, 3)))
                net.nodes[n] = np.zeros(shape)
            problems = validate(net)
            if not problems:
                _same_bytes(contract(net), oracle_contract(net))
                continue
            invalid += 1
            size = _plan_for.cache_info().currsize
            for call in (plan_order, contract):
                with pytest.raises(NetworkError) as info:
                    call(net)
                assert type(info.value) is NetworkError
                assert str(info.value) == "cannot plan an invalid network: " + "; ".join(problems)
            assert _plan_for.cache_info().currsize == size
        assert 100 < invalid < 200


class TestInsertions:
    def test_identity_everywhere(self):
        g = random_grid((2, 2), 3, bias=0.3, seed=4)
        ins = [EdgeInsertion(e, Identity()) for e in g.net.edges]
        np.testing.assert_allclose(
            float(contract(apply_insertions(g.net, ins))), float(contract(g.net)), rtol=1e-12
        )

    def test_projector_matches_dense(self):
        g = random_grid((2, 2), 2, bias=0.2, seed=5)
        iso = np.array([[1.0], [0.0]])
        eid = sorted(g.net.edges)[0]
        via_absorb = contract(apply_insertions(g.net, [EdgeInsertion(eid, ProjectorP(iso))]))
        via_dense = contract(apply_insertions(g.net, [EdgeInsertion(eid, DenseOp(iso @ iso.T))]))
        np.testing.assert_allclose(float(via_absorb), float(via_dense), rtol=1e-12)
        assert apply_insertions(g.net, [EdgeInsertion(eid, ProjectorP(iso))]).edges[eid].dim == 1

    def test_duplicate_edge_rejected(self):
        net = vec_net()
        with pytest.raises(InsertionError, match="more than one"):
            apply_insertions(net, [EdgeInsertion(0, Identity()), EdgeInsertion(0, Identity())])

    def test_non_isometry_rejected(self):
        net = vec_net()
        with pytest.raises(InsertionError, match="orthonormal"):
            apply_insertions(net, [EdgeInsertion(0, ProjectorP(np.array([[2.0], [0.0]])))])


class TestAbsorbMatrix:
    @pytest.mark.parametrize("head_side", [False, True])
    def test_matches_tensordot_bytes(self, head_side):
        # Contiguous tensors and permuted views, matrices and their
        # transposed views, square and rectangular, dim-1 axes included.
        rng = np.random.default_rng(0)
        for _ in range(60):
            shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 5))))
            t = rng.normal(size=shape)
            if rng.random() < 0.5:
                t = t.transpose(rng.permutation(t.ndim))
            ax = int(rng.integers(t.ndim))
            k = int(rng.integers(1, 5))
            m = rng.normal(size=(k, t.shape[ax]) if head_side else (t.shape[ax], k))
            if rng.random() < 0.5:
                m = np.ascontiguousarray(m.T).T
            want = np.moveaxis(np.tensordot(t, m, axes=([ax], [1 if head_side else 0])), -1, ax)
            got = absorb_matrix(t, ax, m, head_side=head_side)
            assert got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestSubnetwork:
    def test_keeps_ids_and_cuts_to_open_edges(self):
        g = random_grid((3, 3), 2, bias=0.2, seed=10)
        top = [g.node_of[(r, c)] for r in (0, 1) for c in range(3)]
        sub = subnetwork(g.net, top)
        assert sorted(sub.nodes) == sorted(top)
        assert all(sub.nodes[n] is g.net.nodes[n] for n in top)
        for eid, edge in sub.edges.items():
            inside = tuple(ep for ep in g.net.edges[eid].endpoints if ep[0] in top)
            assert edge == Edge(endpoints=inside, dim=g.net.edges[eid].dim)
        assert sub.open_edge_ids() == [g.v_edge(1, c) for c in range(3)]
        assert validate(sub) == []

    def test_joining_the_cut_restores_the_value(self):
        g = random_grid((3, 3), 3, bias=0.2, seed=11)
        left = [n for p, n in g.node_of.items() if p[1] < 2]
        right = [n for n in g.net.nodes if n not in left]
        a, b = subnetwork(g.net, left), subnetwork(g.net, right)
        assert a.open_edge_ids() == b.open_edge_ids() == [g.h_edge(r, 1) for r in range(3)]
        joined = np.tensordot(contract(a), contract(b), axes=3)
        np.testing.assert_allclose(float(joined), float(contract(g.net)), rtol=1e-12)


class TestJointInsertions:
    def test_joint_dense_identity(self):
        g = random_grid((2, 2), 2, bias=0.2, seed=7)
        edges = sorted(g.net.edges)[:2]
        net2, cont = insert_joint_dense(g.net, edges, np.eye(4))
        np.testing.assert_allclose(float(contract(net2)), float(contract(g.net)), rtol=1e-10)
        assert set(cont) == set(edges)

    def test_joint_isometry_vs_dense(self):
        g = random_grid((2, 2), 2, bias=0.2, seed=8)
        edges = sorted(g.net.edges)[:2]
        rng = np.random.default_rng(0)
        w, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        via_iso = insert_joint_pair(g.net, edges, w, w)
        via_dense, _ = insert_joint_dense(g.net, edges, w @ w.T)
        np.testing.assert_allclose(float(contract(via_iso)), float(contract(via_dense)), rtol=1e-10)

    def test_joint_ketbra_vs_dense(self):
        g = random_grid((2, 2), 2, bias=0.2, seed=9)
        edges = sorted(g.net.edges)[:2]
        rng = np.random.default_rng(1)
        ket, bra = rng.normal(size=4), rng.normal(size=4)
        via_kb = insert_joint_pair(g.net, edges, 0.7 * ket[:, None], bra[:, None])
        via_dense, _ = insert_joint_dense(g.net, edges, 0.7 * np.outer(ket, bra))
        np.testing.assert_allclose(float(contract(via_kb)), float(contract(via_dense)), rtol=1e-10)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_pair_layout(self, rank):
        # A rank-1 pair is an outer product of two nodes; a rank-r pair joins
        # them by one new edge of extent r.
        g = random_grid((2, 2), 2, bias=0.2, seed=10)
        edges = sorted(g.net.edges)[:2]
        rng = np.random.default_rng(2)
        tail, head = rng.normal(size=(4, rank)), rng.normal(size=(4, rank))
        out = insert_joint_pair(g.net, edges, tail, head)
        t = g.net.next_node_id()
        assert sorted(set(out.nodes) - set(g.net.nodes)) == [t, t + 1]
        legs = (2, 2) + ((rank,) if rank > 1 else ())
        assert out.nodes[t].shape == out.nodes[t + 1].shape == legs
        between = [e for e in out.edges.values() if {n for n, _ in e.endpoints} == {t, t + 1}]
        assert between == ([Edge(((t, 2), (t + 1, 2)), dim=rank)] if rank > 1 else [])
        assert len(out.edges) == len(g.net.edges) + len(edges) + len(between)
        assert validate(out) == []
        via_dense, _ = insert_joint_dense(g.net, edges, tail @ head.T)
        np.testing.assert_allclose(float(contract(out)), float(contract(via_dense)), rtol=1e-10)

    def test_pair_shapes_checked(self):
        g = random_grid((2, 2), 2, bias=0.2, seed=11)
        edges = sorted(g.net.edges)[:2]
        for tail, head in [(np.ones((4, 2)), np.ones((4, 1))), (np.ones((3, 1)), np.ones((3, 1))),
                           (np.ones(4), np.ones(4)), (np.ones((4, 0)), np.ones((4, 0)))]:
            with pytest.raises(InsertionError, match="merged dim 4$"):
                insert_joint_pair(g.net, edges, tail, head)


def oracle_contract(net, memory_cap_bytes=DEFAULT_MEMORY_CAP_BYTES, plan=None):
    """The per-call contraction loop that compiled programs replaced, verbatim."""
    if plan is None:
        plan = plan_order(net)
    if plan.peak_result_entries * 8 > memory_cap_bytes:
        big = max(plan.steps, key=lambda s: s.result_entries)
        raise MemoryBudgetError(
            f"planned intermediate of {big.result_entries} entries "
            f"({big.result_entries * 8} bytes) exceeds the {memory_cap_bytes}-byte cap",
            shape=(big.result_entries,),
        )

    tensors = {n: net.nodes[n] for n in net.nodes}
    axes: dict[int, list[int]] = {}
    for n in net.nodes:
        axes[n] = [-1] * net.nodes[n].ndim
    for eid, edge in net.edges.items():
        for nd, ax in edge.endpoints:
            axes[nd][ax] = eid

    for step in plan.steps:
        if step.kind == "trace":
            (n,) = step.nodes
            eid_counts: dict[int, int] = {}
            for e in axes[n]:
                eid_counts[e] = eid_counts.get(e, 0) + 1
            eid = min(e for e, c in eid_counts.items() if c == 2)
            positions = [i for i, e in enumerate(axes[n]) if e == eid]
            tensors[n] = np.trace(tensors[n], axis1=positions[0], axis2=positions[1])
            axes[n] = [e for i, e in enumerate(axes[n]) if i not in positions]
        else:
            a, b = step.nodes
            shared = sorted(set(axes[a]) & set(axes[b]))
            ax_a = [axes[a].index(e) for e in shared]
            ax_b = [axes[b].index(e) for e in shared]
            if shared:
                res = np.tensordot(tensors[a], tensors[b], axes=(ax_a, ax_b))
            else:
                res = np.multiply.outer(tensors[a], tensors[b])
            new_axes = [e for e in axes[a] if e not in shared] + [e for e in axes[b] if e not in shared]
            tensors[step.result] = res
            axes[step.result] = new_axes
            other = b if step.result == a else a
            del tensors[other]
            del axes[other]

    (last,) = tensors
    result = tensors[last]
    open_ids = axes[last]
    if open_ids:
        order = np.argsort(open_ids, kind="stable")
        result = result.transpose(tuple(int(i) for i in order))
    return result


def _random_network(rng):
    """A random valid network on 1-6 nodes with self-loops, multi-edges,
    open edges, often several connected parts, dim-1 and dim-0 edges, and
    node arrays that are permuted, strided or read-only views."""
    node_ids = [int(x) for x in rng.choice(30, size=int(rng.integers(1, 7)), replace=False)]
    axes_of = {n: [] for n in node_ids}      # per node, the (edge id, slot) of each axis
    attach, dims = {}, {}
    for eid in rng.permutation(30)[:int(rng.integers(0, 10))]:
        eid = int(eid)
        r = rng.random()
        if r < 0.2:
            nodes = [int(rng.choice(node_ids))]
        elif r < 0.35:
            nodes = [int(rng.choice(node_ids))] * 2
        else:
            nodes = [int(x) for x in rng.choice(node_ids, size=2, replace=len(node_ids) == 1)]
        dims[eid] = int(rng.choice([0, 1, 2, 3, 4], p=[0.03, 0.17, 0.4, 0.3, 0.1]))
        attach[eid] = [None] * len(nodes)
        for slot, n in enumerate(nodes):
            axes_of[n].append((eid, slot))
    tensors = {}
    for n in node_ids:
        legs = axes_of[n]
        order = rng.permutation(len(legs))
        legs = [legs[i] for i in order]
        shape = tuple(dims[e] for e, _ in legs)
        kind = rng.integers(4)
        if kind == 1 and len(shape) > 1:     # a permuted view
            perm = rng.permutation(len(shape))
            t = np.ascontiguousarray(rng.normal(size=shape).transpose(perm)).transpose(np.argsort(perm))
        elif kind == 2 and shape:             # a strided view
            t = rng.normal(size=shape[:-1] + (2 * shape[-1],))[..., ::2]
        else:
            t = rng.normal(size=shape)
        if kind == 3:
            t.flags.writeable = False
        tensors[n] = t
        for ax, (eid, slot) in enumerate(legs):
            attach[eid][slot] = (n, ax)
    return TensorNetwork.build(tensors, attach)


def _same_bytes(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestCompiledContract:
    def test_bytes_equal_oracle_on_random_networks(self):
        rng = np.random.default_rng(19)
        kinds = set()
        for _ in range(300):
            net = _random_network(rng)
            key = _planner_key(_layout(net))
            plans = [plan_order(net), _plan_sweep(key, reverse=True), _plan_greedy(key, seed=2)]
            for plan in plans:
                _same_bytes(run_plan(plan, net), oracle_contract(net, plan=plan))
                kinds.update(s.kind for s in plan.steps)
            _same_bytes(contract(net), oracle_contract(net))
        assert kinds == {"trace", "pair", "outer"}

    def test_bytes_equal_oracle_on_preset_terms(self):
        g = random_grid((3, 3), 4, bias=0.2, seed=3)
        terms = build_preset("grid3x3-chi4", g, projectors="random", seed=2).expansion.terms
        assert any(not t.flags.writeable for term in terms for t in term.network.nodes.values())
        for term in terms:
            _same_bytes(contract(term.network), oracle_contract(term.network, plan=term.plan))

    def test_open_edges_in_ascending_id_order(self):
        rng = np.random.default_rng(4)
        t0, t1 = rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4))
        net = TensorNetwork.build({0: t0, 1: t1}, {9: [(0, 0)], 1: [(0, 2), (1, 1)], 3: [(1, 0)], 7: [(0, 1)]})
        got = contract(net)
        assert got.shape == (5, 3, 2)     # edges 3, 7, 9
        np.testing.assert_allclose(got, np.einsum("abk,ck->cba", t0, t1), rtol=1e-12)
        _same_bytes(got, oracle_contract(net))

    def test_layouts_differing_only_in_axes(self):
        # Equal node ids, edge ids and dims; node 1's axes are swapped. The
        # plans compare equal, but each carries its own layout's program.
        rng = np.random.default_rng(5)
        t0, t1, t2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        a = TensorNetwork.build({0: t0, 1: t1, 2: t2}, {0: [(0, 0), (1, 0)], 1: [(1, 1), (2, 0)], 2: [(2, 1), (0, 1)]})
        b = TensorNetwork.build({0: t0, 1: t1, 2: t2}, {0: [(0, 0), (1, 1)], 1: [(1, 0), (2, 0)], 2: [(2, 1), (0, 1)]})
        assert _planner_key(_layout(a)) == _planner_key(_layout(b)) and _layout(a) != _layout(b)
        assert plan_order(a) == plan_order(b) and plan_order(a).program != plan_order(b).program
        for _ in range(2):
            np.testing.assert_allclose(float(contract(a)), np.trace(t0.T @ t1 @ t2), rtol=1e-12)
            np.testing.assert_allclose(float(contract(b)), np.trace(t0.T @ t1.T @ t2), rtol=1e-12)

    def test_one_layout_shares_one_program(self):
        # A program holds no tensor: networks of one layout run the same
        # program, each on its own values, in any order.
        nets = [random_grid((2, 3), 2, bias=0.2, seed=s).net for s in range(3)]
        assert len({_layout(net) for net in nets}) == 1
        assert len({id(plan_order(net).program) for net in nets}) == 1
        want = [brute_force_value(net) for net in nets]
        assert len(set(want)) == 3
        for i in (2, 0, 1, 0):
            np.testing.assert_allclose(float(contract(nets[i])), want[i], rtol=1e-12)

    def test_cached_program_peak_is_the_plans(self):
        # contract checks its memory cap against the plan's peak, so that
        # must be the largest result the cached program makes.
        class Recording(list):
            peak = 0

            def __setitem__(self, i, t):
                if t is not None:
                    self.peak = max(self.peak, t.size or 1)   # plans count an empty result as 1
                super().__setitem__(i, t)

        rng = np.random.default_rng(20)
        for _ in range(300):
            net = _random_network(rng)
            plan = plan_order(net)
            tensors = Recording(net.nodes.values())
            _same_bytes(plan.program(tensors), oracle_contract(net))
            assert tensors.peak == plan.peak_result_entries

    def test_cache_stays_bounded(self):
        _plan_for.cache_clear()
        try:
            x = np.arange(1.0, 3.0)
            for eid in range(PLAN_CACHE_SIZE + 5):
                net = TensorNetwork.build({0: x, 1: x}, {eid: [(0, 0), (1, 0)]})
                assert float(contract(net)) == 5.0
            info = _plan_for.cache_info()
            assert info.currsize == info.maxsize == PLAN_CACHE_SIZE
        finally:
            _plan_for.cache_clear()

    def test_evaluate_threads_bit_equal(self):
        g = random_grid((3, 3), 4, bias=0.2, seed=8)
        exp = build_preset("grid3x3-chi4", g, projectors="random", seed=3).expansion
        one, two = evaluate(exp, workers=1), evaluate(exp, workers=2)
        _same_bytes(two.value, one.value)
        for v2, v1 in zip(two.term_values, one.term_values):
            _same_bytes(v2, v1)
