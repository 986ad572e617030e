import itertools
import math

import numpy as np
import pytest

from pne import belief, models
from pne.belief import run_bp
from pne.models import (
    BETA_C_2D,
    BETA_C_3D,
    BlockedUnit,
    ModelError,
    ModelSpec,
    _as_unit,
    aklt_norm_tensor,
    aklt_peps_tensor,
    block,
    block_unit,
    brute_force_ising,
    capped_patch,
    finite_patch,
    grid_view,
    ising_free_energy_2d,
    ising_open_patch,
    ising_unit_tensor,
    random_grid,
    random_tensor,
    symmetrize_uniform,
    uniform_fixed_point,
)
from pne.network import absorb_matrix, contract


def sign_fix_row(v):
    """The sign rule one vector at a time: the first entry of magnitude
    > 1e-12 is made positive, else the entry of largest magnitude."""
    idx = np.flatnonzero(np.abs(v) > 1e-12)
    pivot = v[idx[0]] if idx.size else v[np.argmax(np.abs(v))]
    return -v if pivot < 0 else v


def per_direction_uniform_bp(unit, tol=1e-12, max_iter=4000, damping=0.2, seed=0):
    """The loop uniform_fixed_point had before it shared run_bp's: every
    direction's message absorbs the other faces' caps from scratch and is
    normalized, damped and sign-fixed on its own. On a dense unit the caps
    go in with plain ``np.tensordot`` in the order ``belief._outgoing``
    states (axes below the face's own from the front, ascending, then the
    axes above it from the back, descending); a lazy blocked unit contracts
    its cluster network."""
    ops = _as_unit(unit)
    dense = ops._materialized
    rng = np.random.default_rng(seed)
    dirs = [(g, s) for g in range(ops.ndim) for s in (0, 1)]
    out = {}
    for g, s in dirs:
        m = np.ones(ops.face_dim(g, s)) + 1e-3 * rng.standard_normal(ops.face_dim(g, s))
        out[(g, s)] = sign_fix_row(m / np.linalg.norm(m))
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        new = {}
        for g, s in dirs:
            caps = {(h, t): out[(h, 1 - t)] for h, t in dirs if (h, t) != (g, s)}
            if dense is None:
                vec = np.asarray(ops.apply_caps(caps)).reshape(-1)
            else:
                vec = dense
                for (h, t), cap in sorted(caps.items()):
                    if 2 * h + t < 2 * g + s:
                        vec = np.tensordot(vec, cap, axes=([0], [0]))
                for (h, t), cap in sorted(caps.items(), reverse=True):
                    if 2 * h + t > 2 * g + s:
                        vec = np.tensordot(vec, cap, axes=([vec.ndim - 1], [0]))
            m = vec / np.linalg.norm(vec)
            if damping:
                m = (1.0 - damping) * m + damping * out[(g, s)]
                m /= np.linalg.norm(m)
            new[(g, s)] = sign_fix_row(m)
        residual = max(float(np.linalg.norm(new[d] - out[d])) for d in dirs)
        out = new
        if residual < tol:
            return out, it, residual, True
    return out, it, residual, False


def materialized(unit, factors):
    bu = block_unit(unit, factors)
    bu.materialize()
    return bu


UNIFORM_UNITS = {
    "ising2d": lambda: ising_unit_tensor(2, 0.35),
    "ising3d": lambda: ising_unit_tensor(3, 0.18),
    "block2x2": lambda: block_unit(ising_unit_tensor(2, 0.35), (2, 2)).materialize(),
    "block4x4": lambda: block_unit(ising_unit_tensor(2, 0.6), (4, 4)).materialize(),
    "lazy2x2x2": lambda: BlockedUnit(ising_unit_tensor(3, 0.18), (2, 2, 2)),
    "materialized2x2": lambda: materialized(ising_unit_tensor(2, 0.35), (2, 2)),
    "aklt": aklt_norm_tensor,
    "random-bias0.3": lambda: random_tensor((3,) * 4, bias=0.3, seed=2),
    "random-bias0": lambda: random_tensor((3,) * 4, bias=0.0, seed=0),
}


class TestIsing:
    @pytest.mark.parametrize("beta", [0.5 * BETA_C_2D, BETA_C_2D, 2.0 * BETA_C_2D])
    def test_2d_matches_exhaustive(self, beta):
        g = ising_open_patch(2, beta, (4, 4))
        z = float(contract(g.net))
        assert abs(z - brute_force_ising(2, beta, (4, 4))) / z < 1e-12

    @pytest.mark.parametrize("beta", [0.5 * BETA_C_3D, BETA_C_3D, 2.0 * BETA_C_3D])
    def test_3d_matches_exhaustive(self, beta):
        g = ising_open_patch(3, beta, (2, 2, 4))
        z = float(contract(g.net))
        assert abs(z - brute_force_ising(3, beta, (2, 2, 4))) / z < 1e-12

    def test_infinite_temperature(self):
        g = ising_open_patch(2, 0.0, (2, 3))
        np.testing.assert_allclose(float(contract(g.net)), 2.0**6, rtol=1e-12)

    def test_low_temperature_ground_states(self):
        beta = 5.0
        g = ising_open_patch(2, beta, (2, 2))
        z = float(contract(g.net))
        np.testing.assert_allclose(z, 2.0 * math.exp(beta * 4), rtol=1e-6)

    def test_unit_tensor_legs(self):
        assert ising_unit_tensor(2, 0.3).shape == (2, 2, 2, 2)
        assert ising_unit_tensor(3, 0.3).shape == (2,) * 6


class TestAklt:
    def test_double_layer_bond_dimension(self):
        e = aklt_norm_tensor()
        assert e.shape == (4, 4, 4, 4)

    def test_torus_traces_non_negative(self):
        from pne.network import TensorNetwork

        e = aklt_norm_tensor()
        # The 1x1 torus state vanishes identically (odd singlet winding), so
        # its norm is exactly zero; the 2x2 torus is strictly positive.
        one = float(np.trace(np.trace(e, axis1=0, axis2=1)))
        assert abs(one) < 1e-12
        tensors = {i: e for i in range(4)}
        attach = {
            0: [(0, 1), (2, 0)], 1: [(1, 1), (3, 0)],
            2: [(2, 1), (0, 0)], 3: [(3, 1), (1, 0)],
            4: [(0, 3), (1, 2)], 5: [(2, 3), (3, 2)],
            6: [(1, 3), (0, 2)], 7: [(3, 3), (2, 2)],
        }
        torus = TensorNetwork.build(tensors, attach)
        assert float(contract(torus)) > 0

    def test_bra_ket_exchange_symmetry(self):
        e = aklt_norm_tensor().reshape(2, 2, 2, 2, 2, 2, 2, 2)
        np.testing.assert_allclose(e, e.transpose(1, 0, 3, 2, 5, 4, 7, 6), atol=1e-12)

    def test_patch_norm_matches_physical_brute_force(self):
        a = aklt_peps_tensor()     # (p, up, down, left, right)
        # 2x2 patch state over 4 physical and 8 boundary virtual indices.
        psi = np.einsum("aumlh,bvnhr,cmwxk,dnykz->abcduvwylxrz", a, a, a, a)
        norm = float(np.sum(psi**2))
        ident = np.eye(2).reshape(-1)
        caps = {(g, s): ident for g in range(2) for s in (0, 1)}
        grid = capped_patch(aklt_norm_tensor(), (2, 2), caps)
        np.testing.assert_allclose(float(contract(grid.net)), norm, rtol=1e-10)

    def test_closed_patch_positive(self):
        ident = np.eye(2).reshape(-1)
        caps = {(g, s): ident for g in range(2) for s in (0, 1)}
        for shape in [(1, 1), (2, 2), (2, 3)]:
            grid = capped_patch(aklt_norm_tensor(), shape, caps)
            assert float(contract(grid.net)) > 0


class TestRandom:
    def test_full_bias_strictly_positive(self):
        t = random_tensor((4, 4, 4), bias=1.0, seed=0)
        assert np.all(t >= 0) and np.all(t <= 2)

    def test_zero_bias_mean(self):
        t = random_tensor((40, 40, 40), bias=0.0, seed=1)
        sigma = (2.0 / math.sqrt(12.0)) / math.sqrt(t.size)
        assert abs(t.mean()) < 5 * sigma

    def test_deterministic(self):
        a = random_tensor((3, 3), bias=0.2, seed=7)
        b = random_tensor((3, 3), bias=0.2, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_default_benchmark_bias(self):
        t = random_tensor((6, 6), bias=0.2, seed=2)
        assert t.min() >= -0.8 and t.max() <= 1.2

    @pytest.mark.parametrize("shape", [(0, 3), (3, -1)])
    def test_non_positive_extent_rejected(self, shape):
        with pytest.raises(ModelError, match="positive"):
            random_grid(shape, 3)
        with pytest.raises(ModelError, match="positive"):
            ising_open_patch(2, 0.4, shape)


class TestGridView:
    def test_recovers_generator_lookups(self):
        open_axes = frozenset({((0, 0, 1), (2, 1)), ((1, 1, 0), (0, 1))})
        g = random_grid((2, 2, 2), 2, seed=1, open_axes=open_axes)
        view = grid_view(g.net, (2, 2, 2), open_axes)
        assert view.net is g.net
        assert (view.node_of, view.bond, view.open_leg) == (g.node_of, g.bond, g.open_leg)

    @pytest.mark.parametrize(
        "shape, open_axes",
        [((3, 2), frozenset()), ((3, 3), frozenset()), ((2, 3), frozenset({((0, 0), (0, 0))}))],
    )
    def test_other_layout_raises(self, shape, open_axes):
        g = random_grid((2, 3), 2, seed=2)
        with pytest.raises(ModelError):
            grid_view(g.net, shape, open_axes)

    @pytest.mark.parametrize(
        "stray", [((0, 0), (0, 1)), ((5, 5), (0, 0)), ((0, 0), (2, 0)), ((1, 2), (1, 2))]
    )
    def test_stray_open_axes_raise(self, stray):
        open_axes = frozenset({((0, 0), (0, 0)), stray})
        with pytest.raises(ModelError, match="do not point out"):
            random_grid((2, 3), 2, open_axes=open_axes)
        unit = ising_unit_tensor(2, 0.3)
        with pytest.raises(ModelError, match="do not point out"):
            capped_patch(unit, (2, 3), uniform_fixed_point(unit).caps(), open_axes)


class TestBlocking:
    def test_grid_blocking_preserves_scalar(self):
        g = ising_open_patch(2, BETA_C_2D, (4, 4))
        blocked = block(g, (2, 2))
        assert blocked.shape == (2, 2)
        # an f-wide block fuses f bonds per face: extent chi**f
        assert all(e.dim == 4 for e in blocked.net.edges.values())
        np.testing.assert_allclose(
            float(contract(blocked.net)), float(contract(g.net)), rtol=1e-12
        )

    def test_blocking_to_chi16(self):
        g = ising_open_patch(2, BETA_C_2D, (8, 8))
        blocked = block(g, (4, 4))
        assert blocked.shape == (2, 2)
        assert all(e.dim == 16 for e in blocked.net.edges.values())
        np.testing.assert_allclose(
            float(contract(blocked.net)), float(contract(g.net)), rtol=1e-12
        )

    def test_factor_one_identity(self):
        g = ising_open_patch(2, 0.3, (2, 2))
        blocked = block(g, (1, 1))
        np.testing.assert_allclose(float(contract(blocked.net)), float(contract(g.net)), rtol=1e-12)

    def test_random_grid_blocking(self):
        g = random_grid((4, 2), 2, bias=0.2, seed=3)
        blocked = block(g, (2, 2))
        np.testing.assert_allclose(
            float(contract(blocked.net)), float(contract(g.net)), rtol=1e-12
        )

    def test_unit_extent_bookkeeping(self):
        unit = ising_unit_tensor(2, 0.4)
        once = block_unit(unit, (2, 2))
        assert once.face_dim(0, 0) == 4
        twice = block_unit(once.materialize(), (2, 2))
        assert twice.face_dim(0, 0) == 16
        assert block_unit(unit, (4, 4)).face_dim(1, 1) == 16

    def test_lazy_matches_materialized(self):
        unit = ising_unit_tensor(2, 0.35)
        bu = block_unit(unit, (2, 2))
        dense = bu.materialize()
        lazy = BlockedUnit(unit, (2, 2))
        rng = np.random.default_rng(4)
        caps = {(0, 0): rng.normal(size=4), (1, 1): rng.normal(size=4)}
        got = lazy.apply_caps(caps)
        want = np.einsum("udlr,u,r->dl", dense, caps[(0, 0)], caps[(1, 1)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("factors", [(0, 1), (-1, 2)])
    def test_non_positive_factors_rejected(self, factors):
        g = random_grid((2, 2), 2, bias=0.2, seed=3)
        with pytest.raises(ModelError, match="positive"):
            block(g, factors)
        with pytest.raises(ModelError, match="positive"):
            block_unit(ising_unit_tensor(2, 0.4), factors)


class TestUnitForms:
    """A dense unit, a materialized block and a lazy block answer the same
    calls, with the same named errors."""

    FORMS = {
        "dense": lambda: ising_unit_tensor(2, 0.3),
        "materialized": lambda: materialized(ising_unit_tensor(2, 0.3), (2, 2)),
        "lazy": lambda: block_unit(ising_unit_tensor(2, 0.3), (2, 2)),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_bad_caps_raise_named_errors(self, form):
        unit = self.FORMS[form]()
        n = _as_unit(unit).face_dim(0, 1)
        caps = {(g, s): np.ones(n) for g in range(2) for s in (0, 1)}
        with pytest.raises(ModelError, match=rf"direction \(0, 1\) has length 3, but that face has dimension {n}"):
            capped_patch(unit, (2, 2), {**caps, (0, 1): np.ones(3)})
        without = {d: v for d, v in caps.items() if d != (1, 0)}
        with pytest.raises(ModelError, match=r"no vector for direction \(1, 0\)"):
            capped_patch(unit, (2, 2), without)
        with pytest.raises(ModelError, match=r"no vector for direction \(1, 0\)"):
            capped_patch(unit, (2, 2), {**caps, (1, 0): None})
        with pytest.raises(ModelError, match=r"rank-4 unit has no direction \(2, 0\)"):
            _as_unit(unit).apply_caps({(2, 0): np.ones(n)})
        # A direction no site caps may be missing.
        open_axes = frozenset({((0, 0), (1, 0)), ((1, 0), (1, 0))})
        grid = capped_patch(unit, (2, 2), without, open_axes)
        assert sorted(grid.open_leg) == sorted(open_axes)

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_odd_rank_unit_rejected(self, rank):
        unit = np.ones((2,) * rank)
        calls = [
            lambda: block_unit(unit, (1,) * (rank // 2)),
            lambda: block_unit(unit, (1,) * (rank // 2 + 1)),
            lambda: uniform_fixed_point(unit),
            lambda: capped_patch(unit, (1,) * (rank // 2), {}),
        ]
        for call in calls:
            with pytest.raises(ModelError, match="a unit tensor needs one axis pair per grid axis"):
                call()

    def test_maybe_materialize_threshold(self):
        # 16**6 = 2**24 entries stay lazy; 16**4 = 2**16 are materialized.
        lazy = block_unit(ising_unit_tensor(3, 0.2), (2, 2, 2))
        assert lazy.maybe_materialize() is lazy
        assert lazy._materialized is None
        for unit, factors in ((ising_unit_tensor(2, 0.3), (4, 4)), (aklt_norm_tensor(), (2, 2))):
            bu = block_unit(unit, factors)
            dense = bu.maybe_materialize()
            assert isinstance(dense, np.ndarray) and dense.shape == (16,) * 4
            assert dense is bu._materialized

    def test_lazy_matches_materialized_3d(self):
        unit = ising_unit_tensor(3, 0.18)
        lazy = block_unit(unit, (2, 2, 2))
        dense = materialized(unit, (2, 2, 2))
        rng = np.random.default_rng(11)
        dirs = [(g, s) for g in range(3) for s in (0, 1)]
        caps = {d: rng.normal(size=16) for d in dirs}
        open_sets = [(), ((0, 0),), ((1, 1),), ((2, 0),), ((0, 0), (0, 1)), ((0, 1), (2, 0)),
                     ((1, 0), (2, 1)), ((0, 0), (1, 1), (2, 0)), ((0, 1), (1, 0), (1, 1))]
        for open_faces in open_sets:
            pattern = {d: None if d in open_faces else caps[d] for d in dirs}
            got, want = lazy.apply_caps(pattern), dense.apply_caps(pattern)
            assert got.shape == want.shape == (16,) * len(open_faces)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), open_faces

    def test_lazy_caps_swapped_on_a_kept_cluster(self):
        # The lazy unit keeps one cluster network per set of capped faces;
        # calls repeating a set must use their own caps, never the last ones.
        unit = random_tensor((3,) * 4, bias=0.3, seed=7)
        lazy = block_unit(unit, (2, 2))
        dense = materialized(unit, (2, 2))
        rng = np.random.default_rng(12)
        first, second = ((0, 0), (1, 1)), ((0, 1),)
        for capped in (first, second, first, first, second):
            caps = {d: rng.normal(size=9) for d in capped}
            got, want = lazy.apply_caps(caps), dense.apply_caps(caps)
            assert got.shape == want.shape == (9,) * (4 - len(capped))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), capped
        assert sorted(lazy._clusters) == [((0, 0), (1, 1)), ((0, 1),)]
        assert lazy._materialized is None

    @pytest.mark.parametrize("form", ["lazy", "materialized"])
    def test_capped_block_equals_blocked_patch(self, form):
        unit = random_tensor((3,) * 4, bias=0.3, seed=5)
        rng = np.random.default_rng(6)
        caps = {(g, s): rng.normal(size=3) for g in range(2) for s in (0, 1)}
        # Each face of a 2x2 block has two cells: its cap is the Kronecker
        # product of theirs, in face-cell order.
        fused = {d: np.kron(c, c) for d, c in caps.items()}
        coarse_unit = block_unit(unit, (2, 2)) if form == "lazy" else materialized(unit, (2, 2))
        coarse = capped_patch(coarse_unit, (2, 2), fused)
        blocked = block(capped_patch(unit, (4, 4), caps), (2, 2))
        wiring = lambda g: {eid: (e.endpoints, e.dim) for eid, e in g.net.edges.items()}
        assert wiring(coarse) == wiring(blocked)
        for node, want in blocked.net.nodes.items():
            got = coarse.net.nodes[node]
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), node


class TestUniformBP:
    def test_converges_on_ising(self):
        ubp = uniform_fixed_point(ising_unit_tensor(2, BETA_C_2D))
        assert ubp.converged

    def test_patch_fixed_point_homogeneous(self):
        unit = ising_unit_tensor(2, 0.3)
        ubp = uniform_fixed_point(unit)
        g = capped_patch(unit, (3, 3), ubp.caps())
        state = run_bp(g.net, tol=1e-11, max_iter=2000)
        assert state.converged
        # All interior messages match the uniform fixed point.
        for (eid, d), m in state.messages.items():
            edge = g.net.edges[eid]
            for (g_ax, pos), e2 in g.bond.items():
                if e2 == eid:
                    ref = ubp.out_messages[(g_ax, 1 if d == 0 else 0)]
                    assert min(np.linalg.norm(m - ref), np.linalg.norm(m + ref)) < 1e-6

    def test_unbiased_random_usually_diverges(self):
        fails = 0
        for seed in range(3):
            unit = random_tensor((3,) * 4, bias=0.0, seed=seed)
            ubp = uniform_fixed_point(unit, max_iter=300, seed=seed)
            fails += not ubp.converged
        assert fails >= 2

    @pytest.mark.parametrize("damping", [1.0, -0.1, 1.5, float("nan")])
    def test_damping_outside_unit_interval_rejected(self, damping):
        # At damping 1.0 the start messages never move and the iteration
        # used to report convergence after one sweep.
        with pytest.raises(ModelError, match="damping"):
            uniform_fixed_point(ising_unit_tensor(2, 0.3), damping=damping)

    @pytest.mark.parametrize("damping", [0.0, 0.2])
    @pytest.mark.parametrize("kind", sorted(UNIFORM_UNITS))
    def test_matches_per_direction_loop(self, kind, damping):
        # The shared node-centric sweep performs the reference's tensordots
        # in the same order, so the runs agree bit for bit.
        unit = UNIFORM_UNITS[kind]()
        max_iter = 40 if kind == "lazy2x2x2" else 300
        ubp = uniform_fixed_point(unit, max_iter=max_iter, damping=damping, seed=1)
        out, it, residual, converged = per_direction_uniform_bp(unit, max_iter=max_iter, damping=damping, seed=1)
        assert list(ubp.out_messages) == list(out)
        for d, m in out.items():
            assert ubp.out_messages[d].tobytes() == m.tobytes()
        assert (ubp.iterations, ubp.residual, ubp.converged) == (it, residual, converged)
        assert len(ubp.residual_history) == ubp.iterations
        assert ubp.residual_history[-1] == ubp.residual

    def test_zero_unit_raises(self):
        with pytest.raises(ModelError, match=r"zero outgoing message \(0, 0\)"):
            uniform_fixed_point(np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_unit_raises_on_first_sweep(self, bad, monkeypatch):
        unit = ising_unit_tensor(2, 0.3).copy()
        unit[0, 1, 0, 1] = bad
        # The unit is a stack of one node: one kernel call a sweep.
        sweeps = []
        outgoing = belief._outgoing
        monkeypatch.setattr(belief, "_outgoing", lambda stack, vecs: sweeps.append(1) or outgoing(stack, vecs))
        with pytest.raises(ModelError, match=r"non-finite outgoing message \([01], [01]\)"):
            uniform_fixed_point(unit)
        assert len(sweeps) == 1


class TestSymmetrizeUniform:
    @pytest.mark.parametrize("unit", [ising_unit_tensor(2, 0.3), random_tensor((3, 3, 2, 2), bias=0.5, seed=2)],
                             ids=["ising", "random"])
    def test_matches_per_axis_chain_and_gauges_to_e0(self, unit):
        ubp = uniform_fixed_point(unit)
        assert ubp.converged
        gauged, gauges = symmetrize_uniform(unit, ubp)
        # The per-axis chain the gauge step ran before it went in one pass.
        old = unit
        for g, x in gauges.items():
            old = absorb_matrix(old, 2 * g + 1, np.linalg.inv(x), head_side=False)
            old = absorb_matrix(old, 2 * g, x, head_side=True)
        assert np.linalg.norm(gauged - old) <= 1e-12 * np.linalg.norm(old)
        for m in uniform_fixed_point(gauged).out_messages.values():
            np.testing.assert_allclose(m, np.eye(m.size)[0], atol=1e-9)

    def test_missing_message(self):
        unit = ising_unit_tensor(2, 0.3)
        ubp = uniform_fixed_point(unit)
        del ubp.out_messages[(1, 0)]
        with pytest.raises(ModelError, match=r"uniform BP state: no entry for axis 1 direction 0"):
            symmetrize_uniform(unit, ubp)

    def test_wrong_extent(self):
        unit = ising_unit_tensor(2, 0.3)
        ubp = uniform_fixed_point(unit)
        ubp.out_messages[(0, 1)] = np.ones(3)
        with pytest.raises(ModelError, match=r"axis 0 direction 1 has shape \(3,\), not \(2,\)"):
            symmetrize_uniform(unit, ubp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_message(self, bad):
        unit = ising_unit_tensor(2, 0.3)
        ubp = uniform_fixed_point(unit)
        ubp.out_messages[(1, 1)] = np.array([1.0, bad])
        with pytest.raises(ModelError, match=r"uniform BP state: axis 1 direction 1 is not finite"):
            symmetrize_uniform(unit, ubp)


class TestFinitePatch:
    def test_bp_capped_3x3(self):
        spec = ModelSpec(kind="ising2d", beta=BETA_C_2D, patch=(3, 3))
        g = finite_patch(spec)
        assert g.shape == (3, 3)
        assert g.net.is_closed
        assert float(contract(g.net)) > 0

    def test_one_by_one_is_node_scalar(self):
        unit = ising_unit_tensor(2, 0.3)
        ubp = uniform_fixed_point(unit)
        g = capped_patch(unit, (1, 1), ubp.caps())
        scalar = float(contract(g.net))
        want = np.einsum(
            "udlr,u,d,l,r->", unit,
            ubp.cap(0, 0), ubp.cap(0, 1), ubp.cap(1, 0), ubp.cap(1, 1),
        )
        np.testing.assert_allclose(scalar, want, rtol=1e-12)

    def test_open_blocked_degenerate_instance(self):
        spec = ModelSpec(
            kind="ising2d", beta=BETA_C_2D / 0.7, patch=(3, 3),
            block_factors=(4, 4), boundary="open",
        )
        g = finite_patch(spec)
        assert g.shape == (3, 3)
        assert all(e.dim == 16 for e in g.net.edges.values())

    @pytest.mark.parametrize("kind", ["ising2d", "aklt", "random"])
    def test_unknown_boundary_rejected(self, kind):
        # A misspelt "open" used to build a BP-capped patch without a word.
        spec = ModelSpec(kind=kind, beta=0.4, patch=(2, 2), boundary="opne")
        with pytest.raises(ModelError, match="boundary must be 'bp' or 'open', not 'opne'"):
            finite_patch(spec)

    def test_random_patch(self):
        spec = ModelSpec(kind="random", patch=(2, 3), chi=5, seed=3)
        g = finite_patch(spec)
        assert g.shape == (2, 3)
        assert all(e.dim == 5 for e in g.net.edges.values())

    @pytest.mark.parametrize("factors", [(2, 2), (1, 2)])
    def test_random_patch_blocked(self, factors):
        # The blocking factors used to be ignored for random grids.
        spec = ModelSpec(kind="random", patch=(2, 2), chi=2, bias=0.3, seed=5, block_factors=factors)
        g = finite_patch(spec)
        assert g.shape == (2, 2)
        for g_ax, f in enumerate(factors):
            assert all(g.net.edges[e].dim == 2 ** factors[1 - g_ax] for e in g.axis_bonds(g_ax))
        fine = random_grid((2 * factors[0], 2 * factors[1]), 2, bias=0.3, seed=5)
        np.testing.assert_allclose(float(contract(g.net)), float(contract(fine.net)), rtol=1e-12)

    def test_stall_names_sweeps_and_residual(self, monkeypatch):
        # Three sweeps leave the Ising messages short of the tolerance.
        short = models.uniform_fixed_point(ising_unit_tensor(2, 0.3), max_iter=3)
        assert not short.converged
        monkeypatch.setattr(models, "uniform_fixed_point", lambda unit: short)
        spec = ModelSpec(kind="ising2d", beta=0.3, patch=(2, 2))
        with pytest.raises(ModelError, match=rf"in 3 sweeps \(last residual {short.residual:.2e}\)"):
            finite_patch(spec)


class TestOnsager:
    def test_infinite_temperature_limit(self):
        np.testing.assert_allclose(ising_free_energy_2d(1e-9), -math.log(2.0), rtol=1e-6)

    def test_matches_large_cylinder(self):
        from pne.infinite import cylinder_baseline

        beta = 0.7 * BETA_C_2D
        f_cyl = cylinder_baseline(ising_unit_tensor(2, beta), 12)
        np.testing.assert_allclose(f_cyl, ising_free_energy_2d(beta), rtol=1e-5)
