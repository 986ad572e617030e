import gc
import math
import weakref

import pne.expansion

import numpy as np
import pytest

from pne.expansion import (
    ExpansionError,
    Factorized,
    JointIsometry,
    JointKetBra,
    Partition,
    build_combinatorial,
    build_linear,
    evaluate,
    evaluate_residue,
    recursive_expand,
    residue_degrees,
    residue_pattern_sum,
)
from pne.models import random_grid
from pne.network import (
    DenseOp,
    Edge,
    EdgeInsertion,
    InsertionError,
    MemoryBudgetError,
    NetworkError,
    ProjectorP,
    TensorNetwork,
    apply_insertions,
    contract,
    insert_joint_dense,
    insert_joint_isometry,
    insert_joint_ketbra,
    plan_order,
    validate,
)


def rand_iso(d, r, rng):
    q, _ = np.linalg.qr(rng.normal(size=(d, r)))
    return q[:, :r]


def e0col(d, r=1):
    m = np.zeros((d, r))
    m[:r, :r] = np.eye(r)
    return m


def single_parts(grid, edges, factors):
    return [
        Partition(id=k, edges=(e,), projector=Factorized((f,)))
        for k, (e, f) in enumerate(zip(edges, factors))
    ]


class TestBuildLinear:
    def test_one_partition_split(self):
        rng = np.random.default_rng(0)
        g = random_grid((2, 2), 3, bias=0.2, seed=0)
        parts = single_parts(g, [0], [rand_iso(3, 2, rng)])
        exp = build_linear(g.net, parts)
        assert [t.pattern for t in exp.terms] == [("P",)]
        val = evaluate(exp)
        res = evaluate_residue(exp)
        ex = float(contract(g.net))
        assert abs((float(val.value) + float(res) - ex) / ex) < 1e-12

    def test_three_way_patterns(self):
        rng = np.random.default_rng(1)
        g = random_grid((2, 3), 3, bias=0.2, seed=1)
        edges = [g.v_edge(0, c) for c in range(3)]
        parts = single_parts(g, edges, [rand_iso(3, 1, rng) for _ in range(3)])
        exp = build_linear(g.net, parts)
        assert [t.pattern for t in exp.terms] == [
            ("P", "I", "I"), ("Q", "P", "I"), ("Q", "Q", "P"),
        ]
        assert all(t.coefficient == 1 for t in exp.terms)

    def test_four_way_split_matches_dense_insertions(self):
        # Term-by-term against explicit dense operator insertions.
        rng = np.random.default_rng(2)
        g = random_grid((2, 3), 3, bias=0.2, seed=2)
        edges = [g.v_edge(0, c) for c in range(3)]
        isos = [rand_iso(3, 1, rng) for _ in range(3)]
        parts = single_parts(g, edges, isos)
        exp = build_linear(g.net, parts)
        mats = {e: u @ u.T for e, u in zip(edges, isos)}
        for term in exp.terms:
            ins = []
            for e, tag in zip(edges, term.pattern):
                if tag == "P":
                    ins.append(EdgeInsertion(e, DenseOp(mats[e])))
                elif tag == "Q":
                    ins.append(EdgeInsertion(e, DenseOp(np.eye(3) - mats[e])))
            oracle = float(contract(apply_insertions(g.net, ins)))
            np.testing.assert_allclose(float(contract(term.network)), oracle, rtol=1e-10)

    def test_multi_edge_rejected(self):
        g = random_grid((2, 3), 3, bias=0.2, seed=3)
        part = Partition(
            id=0, edges=(g.h_edge(0, 0), g.h_edge(1, 0)),
            projector=Factorized((e0col(3), e0col(3))),
        )
        with pytest.raises(ExpansionError, match="combinatorial"):
            build_linear(g.net, [part])

    def test_duplicate_edge_rejected(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=4)
        parts = single_parts(g, [0, 0], [e0col(3), e0col(3)])
        with pytest.raises(ExpansionError, match="more than one"):
            build_linear(g.net, parts)

    @pytest.mark.parametrize("builder", [build_linear, build_combinatorial])
    def test_no_partitions_rejected(self, builder):
        g = random_grid((2, 2), 3, bias=0.2, seed=4)
        with pytest.raises(ExpansionError, match="at least one partition"):
            builder(g.net, [])


class TestBuildCombinatorial:
    def test_inclusion_exclusion_signs(self):
        rng = np.random.default_rng(5)
        g = random_grid((2, 3), 3, bias=0.2, seed=5)
        edges = [g.v_edge(0, c) for c in range(3)]
        parts = single_parts(g, edges, [rand_iso(3, 1, rng) for _ in range(3)])
        exp = build_combinatorial(g.net, parts)
        assert exp.term_count == 7
        assert [t.coefficient for t in exp.terms] == [1, 1, 1, -1, -1, -1, 1]

    def test_identity_projectors_telescope(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=6)
        eye = np.eye(3)
        parts = single_parts(g, [0, 1], [eye, eye])
        exp = build_combinatorial(g.net, parts)
        ex = float(contract(g.net))
        np.testing.assert_allclose(float(evaluate(exp).value), ex, rtol=1e-12)

    def test_terms_match_dense_insertions(self):
        # Term by term against explicit dense insertions: two factorized
        # partitions sharing an edge plus one joint isometry.
        rng = np.random.default_rng(8)
        g = random_grid((2, 3), 3, bias=0.2, seed=8)
        line = [g.v_edge(0, c) for c in range(3)]
        joint = (g.h_edge(1, 0), g.h_edge(1, 1))
        isos = {e: rand_iso(3, 1, rng) for e in line}
        w = rand_iso(9, 2, rng)
        parts = [
            Partition(id=0, edges=tuple(line[:2]), projector=Factorized(tuple(isos[e] for e in line[:2]))),
            Partition(id=1, edges=tuple(line[1:]), projector=Factorized(tuple(isos[e] for e in line[1:]))),
            Partition(id=2, edges=joint, projector=JointIsometry(w)),
        ]
        exp = build_combinatorial(g.net, parts)
        assert exp.term_count == 7
        mats = {e: u @ u.T for e, u in isos.items()}
        for term in exp.terms:
            capped = {e for part, tag in zip(parts[:2], term.pattern) if tag == "P" for e in part.edges}
            oracle = apply_insertions(g.net, [EdgeInsertion(e, DenseOp(mats[e])) for e in sorted(capped)])
            if term.pattern[2] == "P":
                oracle, _ = insert_joint_dense(oracle, joint, w @ w.T)
            np.testing.assert_allclose(float(contract(term.network)), float(contract(oracle)), rtol=1e-10)

    def test_term_count_six_partitions(self):
        g = random_grid((3, 3), 2, bias=0.2, seed=7)
        edges = sorted(g.net.edges)[:6]
        parts = single_parts(g, edges, [e0col(2)] * 6)
        exp = build_combinatorial(g.net, parts)
        principal = [t for t in exp.terms if sum(x == "P" for x in t.pattern) == 1]
        assert len(principal) == 6
        assert exp.term_count - len(principal) == 57

    def test_cap(self):
        g = random_grid((3, 3), 2, bias=0.2, seed=8)
        edges = sorted(g.net.edges)
        parts = single_parts(g, edges, [e0col(2)] * len(edges))
        with pytest.raises(ExpansionError, match="recursive"):
            build_combinatorial(g.net, parts, cap=6)

    def test_linear_equals_combinatorial(self):
        rng = np.random.default_rng(9)
        g = random_grid((2, 3), 4, bias=0.2, seed=9)
        edges = [g.v_edge(0, c) for c in range(3)]
        parts = single_parts(g, edges, [rand_iso(4, int(rng.integers(1, 4)), rng) for _ in range(3)])
        v_lin = evaluate(build_linear(g.net, parts))
        v_com = evaluate(build_combinatorial(g.net, parts))
        np.testing.assert_allclose(float(v_lin.value), float(v_com.value), rtol=1e-10)


class TestEvaluate:
    def test_full_rank_exact(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=10)
        parts = single_parts(g, [0, 2], [np.eye(3), np.eye(3)])
        exp = build_combinatorial(g.net, parts)
        np.testing.assert_allclose(float(evaluate(exp).value), float(contract(g.net)), rtol=1e-12)

    def test_workers_bit_identical(self):
        rng = np.random.default_rng(11)
        g = random_grid((2, 3), 4, bias=0.2, seed=11)
        edges = [g.v_edge(0, c) for c in range(3)]
        parts = single_parts(g, edges, [rand_iso(4, 2, rng) for _ in range(3)])
        exp = build_combinatorial(g.net, parts)
        v1 = evaluate(exp, workers=1).value
        v8 = evaluate(exp, workers=8).value
        assert float(v1) == float(v8)

    def test_cost_monotonicity(self):
        chi = 3
        g = random_grid((3, 3), chi, bias=0.2, seed=12)
        base = 6.0
        rng = np.random.default_rng(12)
        edges = [g.v_edge(0, 0), g.v_edge(1, 2), g.h_edge(1, 1)]
        parts = single_parts(g, edges, [rand_iso(chi, 1, rng) for _ in range(3)])
        for exp in (build_linear(g.net, parts), build_combinatorial(g.net, parts)):
            assert exp.peak_cost_exponent(chi) <= base + 1e-9


class TestResidue:
    def test_full_rank_residue_zero(self):
        g = random_grid((2, 2), 3, bias=0.2, seed=13)
        parts = single_parts(g, [0, 1], [np.eye(3), np.eye(3)])
        exp = build_combinatorial(g.net, parts)
        res = evaluate_residue(exp)
        assert abs(float(res)) < 1e-12 * abs(float(contract(g.net)))

    @pytest.mark.parametrize("chi, rank, seed, layout", [
        (2, 1, 14, [[("h", 0, 0), ("h", 1, 0)], [("v", 0, 1)]]),
        (3, 2, 16, [[("h", 0, 0), ("h", 1, 0)], [("v", 0, 1)], [("h", 2, 1), ("v", 1, 2)]]),
    ], ids=["chi2-rank1", "chi3-rank2"])
    def test_pattern_sum_equals_dense(self, chi, rank, seed, layout):
        rng = np.random.default_rng(seed)
        g = random_grid((3, 3), chi, bias=0.2, seed=seed)
        parts = [
            Partition(
                id=k, edges=tuple(getattr(g, f"{kind}_edge")(r, c) for kind, r, c in cut),
                projector=Factorized(tuple(rand_iso(chi, rank, rng) for _ in cut)),
            )
            for k, cut in enumerate(layout)
        ]
        dense = evaluate_residue(build_combinatorial(g.net, parts), cross_check=True)
        patterns = residue_pattern_sum(g.net, parts)
        np.testing.assert_allclose(float(dense), float(patterns), rtol=1e-10, atol=1e-12)

    def test_cross_check_detects_mismatch(self):
        rng = np.random.default_rng(15)
        g = random_grid((2, 2), 3, bias=0.2, seed=15)
        parts = single_parts(g, [0], [rand_iso(3, 1, rng)])
        exp = build_combinatorial(g.net, parts)
        exp.terms[0] = exp.terms[0].__class__(
            pattern=exp.terms[0].pattern,
            coefficient=-1,
            network=exp.terms[0].network,
            plan=exp.terms[0].plan,
        )
        with pytest.raises(ExpansionError, match="subtraction"):
            evaluate_residue(exp)

    def test_dense_complement_respects_memory_cap(self):
        # Two 4x4 nodes joined by two chi=4 edges: the joint complement is a
        # 16x16 matrix (2048 bytes), while every contraction step of the
        # residue network stays at 16 entries (128 bytes).
        rng = np.random.default_rng(16)
        net = TensorNetwork.build(
            {0: rng.normal(size=(4, 4)), 1: rng.normal(size=(4, 4))},
            {0: ((0, 0), (1, 0)), 1: ((0, 1), (1, 1))},
        )
        part = Partition(id=0, edges=(0, 1), projector=Factorized((rand_iso(4, 1, rng), rand_iso(4, 1, rng))))
        exp = build_combinatorial(net, [part])
        with pytest.raises(MemoryBudgetError, match="dense complement"):
            evaluate_residue(exp, cross_check=False, memory_cap_bytes=1024)
        assert np.isfinite(float(evaluate_residue(exp, memory_cap_bytes=4096)))


class TestResidueDegrees:
    def test_double_loop_three_partitions(self):
        g = random_grid((2, 3), 2, seed=18)
        parts = single_parts(g, [g.v_edge(0, c) for c in range(3)], [e0col(2)] * 3)
        exp = build_linear(g.net, parts)
        assert residue_degrees(exp, max_degree=7) == [7]

    def test_double_loop_single_cut(self):
        g = random_grid((2, 3), 2, seed=19)
        parts = single_parts(g, [g.v_edge(0, 0)], [e0col(2)])
        exp = build_linear(g.net, parts)
        assert residue_degrees(exp, max_degree=7) == [4, 6, 7]

    def test_rejects_non_message_projectors(self):
        rng = np.random.default_rng(20)
        g = random_grid((2, 3), 2, seed=20)
        parts = single_parts(g, [g.v_edge(0, 0)], [rand_iso(2, 1, rng)])
        exp = build_linear(g.net, parts)
        with pytest.raises(ExpansionError):
            residue_degrees(exp)


class TestOverlappingPartitions:
    def test_exactness_with_shared_edges(self):
        rng = np.random.default_rng(21)
        g = random_grid((3, 3), 3, bias=0.2, seed=21)
        factors = {e: rand_iso(3, 1, rng) for e in g.net.edges}
        lines = [
            tuple(g.h_edge(r, 0) for r in range(3)),
            tuple(g.v_edge(0, c) for c in range(3)),
            (g.h_edge(0, 0), g.v_edge(0, 0)),       # overlaps both lines
        ]
        parts = [
            Partition(id=k, edges=es, projector=Factorized(tuple(factors[e] for e in es)))
            for k, es in enumerate(lines)
        ]
        exp = build_combinatorial(g.net, parts)
        val = evaluate(exp)
        res = evaluate_residue(exp, cross_check=False)
        ex = float(contract(g.net))
        assert abs((float(val.value) + float(res) - ex) / ex) < 1e-10

    def test_conflicting_factors_rejected(self):
        rng = np.random.default_rng(22)
        g = random_grid((2, 2), 3, bias=0.2, seed=22)
        p1 = Partition(id=0, edges=(0,), projector=Factorized((rand_iso(3, 1, rng),)))
        p2 = Partition(id=1, edges=(0, 1), projector=Factorized((rand_iso(3, 1, rng), rand_iso(3, 1, rng))))
        with pytest.raises(ExpansionError, match="identical"):
            build_combinatorial(g.net, [p1, p2])

    def test_repeated_edge_rejected(self):
        # Rejected when built: an expansion over it would fail in the residue
        # with a bare KeyError.
        q = e0col(3)
        with pytest.raises(ExpansionError, match="repeated edge"):
            Partition(id=0, edges=(0, 0), projector=Factorized((q, q)))
        with pytest.raises(ExpansionError, match="repeated edge"):
            Partition(id=1, edges=(2, 1, 2), projector=JointIsometry(np.eye(27)[:, :1]))


def test_wide_joint_sizes_do_not_wrap():
    # Four 2**16 edges between zero-copy (2**16, 2**16) views, tails on nodes
    # 0 and 1 and heads on 2 and 3, merge to 2**64: past int64.
    big = np.broadcast_to(np.ones(1), (2**16, 2**16))
    edges = {2 * a + ax: Edge(((a, ax), (a + 2, ax)), dim=2**16) for a in (0, 1) for ax in (0, 1)}
    net = TensorNetwork(nodes={n: big for n in range(4)}, edges=edges)
    with pytest.raises(InsertionError, match=f"merged dim {2**64}$"):
        insert_joint_ketbra(net, sorted(edges), np.ones(4), np.ones(4))
    part = Partition(id=0, edges=tuple(sorted(edges)), projector=Factorized((big,) * 4))
    assert part.rank() == 2**64


class TestJointPartitions:
    def test_joint_isometry_exactness(self):
        rng = np.random.default_rng(23)
        g = random_grid((2, 2, 2), 2, bias=0.2, seed=23)
        pair = (g.bond[(0, (0, 0, 0))], g.bond[(0, (0, 1, 1))])
        part = Partition(id=0, edges=pair, projector=JointIsometry(rand_iso(4, 2, rng)))
        exp = build_combinatorial(g.net, [part])
        val = evaluate(exp)
        res = evaluate_residue(exp)
        ex = float(contract(g.net))
        assert abs((float(val.value) + float(res) - ex) / ex) < 1e-10

    def test_joint_ketbra_exactness(self):
        rng = np.random.default_rng(24)
        g = random_grid((2, 2, 2), 2, bias=0.2, seed=24)
        pair = (g.bond[(1, (0, 0, 0))], g.bond[(1, (1, 0, 1))])
        part = Partition(id=0, edges=pair, projector=JointKetBra(rng.normal(size=4), rng.normal(size=4)))
        exp = build_combinatorial(g.net, [part])
        val = evaluate(exp)
        res = evaluate_residue(exp)
        ex = float(contract(g.net))
        assert abs((float(val.value) + float(res) - ex) / ex) < 1e-10


class TestRecursive:
    def _lines_4x3(self, g):
        rows = [tuple(g.v_edge(r, c) for c in range(3)) for r in range(3)]
        cols = [tuple(g.h_edge(r, c) for r in range(4)) for c in range(2)]
        return rows + cols

    def test_no_recursion_when_cap_high(self):
        rng = np.random.default_rng(25)
        g = random_grid((2, 3), 3, bias=0.2, seed=25)
        parts = single_parts(g, [g.v_edge(0, 1)], [rand_iso(3, 1, rng)])
        exp = recursive_expand(
            g.net, parts, cost_cap_exponent=10,
            projector_source=lambda net, depth: None,
        )
        assert len(exp.terms) == 1 and len(exp.residues) == 1

    def test_depth_cap_error(self):
        g = random_grid((4, 3), 3, bias=0.2, seed=26)
        lines = self._lines_4x3(g)
        parts = [
            Partition(id=k, edges=es, projector=Factorized(tuple(e0col(3) for _ in es)))
            for k, es in enumerate(lines)
        ]
        with pytest.raises(ExpansionError, match="depth cap"):
            recursive_expand(g.net, parts, cost_cap_exponent=4,
                             projector_source=lambda net, depth: None, depth_cap=0)

    def test_offender_names_missing_partitions(self):
        g = random_grid((4, 3), 3, bias=0.2, seed=26)
        parts = [
            Partition(id=k, edges=es, projector=Factorized(tuple(e0col(3) for _ in es)))
            for k, es in enumerate(self._lines_4x3(g))
        ]
        with pytest.raises(ExpansionError, match="no finer partitions at depth 1") as info:
            recursive_expand(g.net, parts, cost_cap_exponent=4,
                             projector_source=lambda net, depth: None, depth_cap=4)
        assert "depth cap" not in str(info.value)

    def test_recursive_exactness_and_cost(self):
        from pne.presets import build_preset

        g = random_grid((4, 3), 3, bias=0.2, seed=27)
        pre = build_preset("grid4x3-recursive", g, projectors="random", seed=0)
        val = evaluate(pre.expansion)
        res = evaluate_residue(pre.expansion, cross_check=False)
        ex = float(contract(g.net))
        assert abs((float(val.value) + float(res) - ex) / ex) < 1e-9
        assert pre.expansion.peak_cost_exponent(3) <= 4.0 + 1e-9
        assert len(pre.expansion.residues) == 3     # top level + two re-expanded terms

    def test_terms_freed_without_cyclic_gc(self):
        from pne.presets import build_preset

        g = random_grid((4, 3), 3, bias=0.2, seed=27)
        gc.collect()
        gc.disable()
        try:
            pre = build_preset("grid4x3-recursive", g, projectors="random", seed=0)
            refs = [weakref.ref(t.network) for t in pre.expansion.terms]
            del pre
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def reference_network(net, partitions, pattern):
    """One pattern's network built with the public inserters, in the order
    the expansion module documents: complements in partition order (a
    single-edge one absorbed at the tail of its edge, any other inserted
    densely), then one batch of factors in edge order, then the joint
    projectors."""
    work, remap = net, {e: e for e in net.edges}
    factors, joints = {}, []
    for part, tag in zip(partitions, pattern):
        if tag == "P" and isinstance(part.projector, Factorized):
            for e, f in zip(part.edges, part.projector.factors):
                factors.setdefault(e, np.asarray(f, dtype=float))
        elif tag == "P":
            joints.append(part)
        elif tag == "Q" and len(part.edges) == 1 and isinstance(part.projector, Factorized):
            f = np.ascontiguousarray(part.projector.factors[0], dtype=float)
            q = np.eye(f.shape[0]) - f @ f.T
            work = apply_insertions(work, [EdgeInsertion(remap[part.edges[0]], DenseOp(q, side=0))])
        elif tag == "Q":
            p = part.dense_matrix()
            eids = [remap[e] for e in part.edges]
            work, continuation = insert_joint_dense(work, eids, np.eye(p.shape[0]) - p)
            remap.update({e: continuation[c] for e, c in zip(part.edges, eids)})
    if factors:
        work = apply_insertions(
            work, [EdgeInsertion(remap[e], ProjectorP(f)) for e, f in sorted(factors.items())]
        )
    for part in joints:
        if isinstance(part.projector, JointIsometry):
            work = insert_joint_isometry(work, part.edges, part.projector.isometry)
        else:
            ket = np.asarray(part.projector.ket, dtype=float).reshape(-1)
            bra = np.asarray(part.projector.bra, dtype=float).reshape(-1)
            work = insert_joint_ketbra(work, part.edges, ket, bra, scale=1.0 / float(bra @ ket))
    return work


def assert_same_network(got, want):
    assert list(got.nodes) == list(want.nodes)
    for n, arr in want.nodes.items():
        assert got.nodes[n].shape == arr.shape and np.array_equal(got.nodes[n], arr)
    assert list(got.edges.items()) == list(want.edges.items())


def _preset(name, projectors="random"):
    from pne.presets import PRESETS, build_preset

    shape = PRESETS[name][0]
    bias = 0.5 if projectors == "bp" else 0.2
    g = random_grid(shape, 3, bias=bias, seed=21)
    return build_preset(name, g, projectors=projectors, seed=1, bp_kwargs=dict(max_iter=4000))


class TestNodeVariantTable:
    @pytest.mark.parametrize("name, projectors", [
        ("doubleloop-3v", "random"),        # linear: chains of complements
        ("grid3x3-chi4", "random"),         # partitions sharing edges
        ("grid4x3-recursive", "random"),    # builds at every recursion depth
        ("cube222-chi4", "bp"),             # joint ket-bra partitions
    ])
    def test_terms_equal_an_independent_construction(self, monkeypatch, name, projectors):
        builds = []
        real = pne.expansion._expansion
        monkeypatch.setattr(pne.expansion, "_expansion", lambda *a: builds.append(real(*a)) or builds[-1])
        exp = _preset(name, projectors).expansion
        for build in builds:        # the top level, and each re-expanded term of a recursion
            for term in build.terms:
                want = reference_network(build.net, build.partitions, term.pattern)
                assert_same_network(term.network, want)
                assert term.plan == plan_order(want)
        built = {id(term.network) for build in builds for term in build.terms}
        assert all(id(term.network) in built for term in exp.terms)

    def test_dense_residue_of_a_two_edge_partition(self, monkeypatch):
        rng = np.random.default_rng(31)
        g = random_grid((2, 3), 3, bias=0.2, seed=31)
        edges = (g.v_edge(0, 0), g.v_edge(0, 1))
        parts = [
            Partition(id=0, edges=edges, projector=Factorized((rand_iso(3, 1, rng), rand_iso(3, 2, rng)))),
            Partition(id=1, edges=(g.v_edge(0, 2),), projector=Factorized((rand_iso(3, 1, rng),))),
        ]
        exp = build_combinatorial(g.net, parts)
        seen = []
        real = pne.expansion.contract
        monkeypatch.setattr(pne.expansion, "contract", lambda net, **kw: seen.append(net) or real(net, **kw))
        value = evaluate_residue(exp, cross_check=False)
        (residue,) = seen
        want = reference_network(g.net, parts, ("Q", "Q"))
        assert_same_network(residue, want)
        assert plan_order(residue) == plan_order(want)
        assert np.array_equal(value, real(want))

    @pytest.mark.parametrize("builder", [build_linear, build_combinatorial])
    @pytest.mark.parametrize("bad, message", [
        (np.array([[2.0], [0.0], [0.0]]), "not orthonormal"),
        (np.eye(2)[:, :1], r"shape \(2, 1\)"),
    ])
    def test_bad_factor_rejected_before_any_term(self, monkeypatch, builder, bad, message):
        g = random_grid((2, 3), 3, bias=0.2, seed=32)
        edges = [g.v_edge(0, c) for c in range(3)]
        parts = single_parts(g, edges, [e0col(3), bad, e0col(3)])

        def no_terms(*args, **kwargs):
            raise AssertionError("a term was built")

        monkeypatch.setattr(pne.expansion, "_pattern_network", no_terms)
        with pytest.raises(ExpansionError, match=rf"partition 1: .*{message}") as info:
            builder(g.net, parts)
        assert f"edge {edges[1]}" in str(info.value)

    def test_each_factor_is_checked_once_per_build(self, monkeypatch):
        rng = np.random.default_rng(33)
        g = random_grid((3, 3), 3, bias=0.2, seed=33)
        line = [g.v_edge(0, c) for c in range(3)]
        isos = {e: rand_iso(3, 1, rng) for e in line}
        parts = [
            Partition(id=0, edges=tuple(line[:2]), projector=Factorized(tuple(isos[e] for e in line[:2]))),
            Partition(id=1, edges=tuple(line[1:]), projector=Factorized(tuple(isos[e] for e in line[1:]))),
            Partition(id=2, edges=(g.h_edge(1, 1),), projector=Factorized((rand_iso(3, 2, rng),))),
        ]
        calls = []
        real = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        exp = build_combinatorial(g.net, parts)
        assert exp.term_count == 7
        assert len(calls) == 4      # one per distinct factor, over 7 terms

    def test_shared_arrays_are_read_only(self):
        exp = _preset("grid3x3-chi4").expansion
        dressed = [
            arr for term in exp.terms for n, arr in term.network.nodes.items()
            if arr is not exp.net.nodes.get(n)
        ]
        assert dressed and not any(arr.flags.writeable for arr in dressed)
        with pytest.raises(ValueError, match="read-only"):
            dressed[0][...] = 0.0
        assert all(arr.flags.writeable for arr in exp.net.nodes.values())

    @pytest.mark.parametrize("name, cap", [("grid3x3-chi4", 55), ("grid4x3-recursive", 194)])
    def test_absorptions_per_build(self, monkeypatch, name, cap):
        # One absorption per distinct (node, ordered ops) variant; absorbing
        # per term and endpoint made 1,024 and 2,592.
        calls = []
        real = pne.expansion.absorb_matrix
        monkeypatch.setattr(pne.expansion, "absorb_matrix", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        _preset(name)
        assert 0 < len(calls) <= cap


def _case_grid(name, chi, bias=0.2, seed=0):
    from pne.presets import OPEN2X3_AXES, PRESETS

    open_axes = OPEN2X3_AXES if name.startswith("open2x3") else frozenset()
    return random_grid(PRESETS[name][0], chi, bias=bias, seed=seed, open_axes=open_axes)


def _source_cases():
    """Every preset with every source it accepts: bp, weights at rank 1 and,
    where the layout allows it, rank 2, and random."""
    from pne.presets import PRESETS, preset_names

    for name in preset_names():
        g = _case_grid(name, 2)
        layout = PRESETS[name][1](g)
        yield name, "bp", 1
        if layout.joint_pairs:
            continue            # joint partitions take fixed-point messages only
        if g.net.is_closed:     # weight passing is defined on closed networks
            yield name, "weights", 1
            if layout.rank_capable:
                yield name, "weights", 2
        yield name, "random", 1


class TestValidateOnce:
    @pytest.mark.parametrize("name, projectors, rank", list(_source_cases()))
    def test_terms_are_valid_and_planned_from_the_cache(self, monkeypatch, name, projectors, rank):
        from pne.presets import build_preset

        builds = []
        real = pne.expansion._expansion
        monkeypatch.setattr(pne.expansion, "_expansion", lambda *a: builds.append(real(*a)) or builds[-1])
        g = _case_grid(name, 3, bias=0.5 if projectors == "bp" else 0.2, seed=21)
        pre = build_preset(name, g, projectors=projectors, rank=rank, seed=1,
                           bp_kwargs=dict(max_iter=4000))
        assert len(builds) == len(pre.expansion.residues)
        for build in builds:        # the top level, and each re-expanded term of a recursion
            for term in build.terms:
                assert validate(term.network) == []
                assert term.plan == plan_order(term.network)

    @pytest.mark.parametrize("builder", [build_linear, build_combinatorial])
    def test_uncovered_axis_rejected_before_any_term(self, monkeypatch, builder):
        g = random_grid((2, 3), 3, bias=0.2, seed=34)
        net = g.net.copy()
        net.nodes[0] = net.nodes[0][..., None]
        axis = net.nodes[0].ndim - 1
        parts = single_parts(g, [g.v_edge(0, c) for c in range(3)], [e0col(3)] * 3)

        def no_terms(*args, **kwargs):
            raise AssertionError("a term was built")

        monkeypatch.setattr(pne.expansion, "_pattern_network", no_terms)
        with pytest.raises(NetworkError, match=f"cannot plan an invalid network: axis {axis} of node 0 "
                                               "is not covered by any edge"):
            builder(net, parts)

    @pytest.mark.parametrize("name, projectors", [
        ("doubleloop-3v", "random"),
        ("grid3x3-chi4", "random"),
        ("grid4x3-recursive", "random"),    # three builds: the top level and two sub-terms
        ("grid4x3-recursive", "bp"),
    ])
    def test_one_validation_per_build(self, monkeypatch, name, projectors):
        calls = []
        real = pne.expansion.validate
        monkeypatch.setattr(pne.expansion, "validate", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        exp = _preset(name, projectors).expansion
        assert len(calls) == len(exp.residues) == (3 if exp.form == "recursive" else 1)
