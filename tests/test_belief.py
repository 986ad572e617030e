import numpy as np
import pytest

from pne import belief
from pne.belief import (
    STACK_BYTES,
    BPError,
    _absorb_back,
    _absorb_front,
    _norms,
    _sign_fix,
    bp_approx,
    bp_scalar,
    fixed_point_residual,
    grouped_network,
    joint_message_pair,
    projectors_from_bp,
    run_bp,
    symmetrize,
)
from pne.models import random_grid
from pne.network import DenseOp, EdgeInsertion, TensorNetwork, apply_insertions, contract, validate
from pne.presets import OPEN2X3_AXES
from pne.tensor import asarray


def random_tree(n_nodes, rng, max_dim=5):
    edges = {}
    legs = {i: [] for i in range(n_nodes)}
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        d = int(rng.integers(2, max_dim + 1))
        legs[j].append((i - 1, d))
        legs[i].append((i - 1, d))
        edges[i - 1] = d
    tensors = {}
    attach = {e: [] for e in edges}
    for i in range(n_nodes):
        dims = [d for _, d in legs[i]]
        tensors[i] = rng.normal(size=tuple(dims)) if dims else np.asarray(rng.normal())
        for ax, (eid, _) in enumerate(legs[i]):
            attach[eid].append((i, ax))
    return TensorNetwork.build(tensors, attach)


def sign_fix_row(v):
    """The sign rule one vector at a time: the first entry of magnitude
    > 1e-12 is made positive, else the entry of largest magnitude."""
    idx = np.flatnonzero(np.abs(v) > 1e-12)
    pivot = v[idx[0]] if idx.size else v[np.argmax(np.abs(v))]
    return -v if pivot < 0 else v


def per_message_bp(net, tol, max_iter, damping=0.2, seed=0, initial=None, descending=False):
    """The sweep run_bp had before it went node by node: every directed
    message absorbs its node's other incoming messages from scratch, with
    plain ``np.tensordot``, and is normalized, damped and sign-fixed on its
    own. The absorption order is the one ``belief._outgoing`` states: the
    axes before the message's own from the front in ascending order, then
    the axes after it from the back in descending order. ``descending=True``
    absorbs in descending axis order instead, the order run_bp used before
    it stacked nodes."""
    rng = np.random.default_rng(seed)
    edges = sorted(net.edges.items())
    messages = {}
    for eid, edge in edges:
        for d in range(1 if edge.is_open else 2):
            m = (asarray(initial[(eid, d)]).copy() if initial is not None
                 else np.ones(edge.dim) + 1e-3 * rng.standard_normal(edge.dim))
            messages[(eid, d)] = sign_fix_row(m / np.linalg.norm(m))
        if edge.is_open:
            messages[(eid, 1)] = messages[(eid, 0)]
    for it in range(1, max_iter + 1):
        new = {}
        for eid, edge in edges:
            for d in range(1 if edge.is_open else 2):
                nid, ax = edge.endpoints[d]
                pairs = [(a, messages[(e, 0) if net.edges[e].is_open else (e, 1 - s)])
                         for e, s, a in net.attachments(nid) if (e, a) != (eid, ax)]
                t = net.nodes[nid]
                if descending:
                    for a, vec in sorted(pairs, key=lambda p: -p[0]):
                        t = np.tensordot(t, vec, axes=([a], [0]))
                else:
                    for a, vec in sorted(pairs, key=lambda p: p[0]):
                        if a < ax:
                            t = np.tensordot(t, vec, axes=([0], [0]))
                    for a, vec in sorted(pairs, key=lambda p: -p[0]):
                        if a > ax:
                            t = np.tensordot(t, vec, axes=([t.ndim - 1], [0]))
                m = t / np.linalg.norm(t)
                if damping:
                    m = (1.0 - damping) * m + damping * messages[(eid, d)]
                    m /= np.linalg.norm(m)
                new[(eid, d)] = sign_fix_row(m)
            if edge.is_open:
                new[(eid, 1)] = new[(eid, 0)]
        residual = max(float(np.linalg.norm(new[k] - messages[k])) for k in new)
        messages = new
        if residual < tol:
            break
    return messages, it


def mixed_extent_network(rng, shape=(3, 3), n_open=4):
    """A grid whose bonds and ``n_open`` open legs (on random sites) have
    random extents from 1 to 16, both of those among them, with positive
    random entries."""
    rows, cols = shape
    site = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    bonds = [((r, c), (r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    bonds += [((r, c), (r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    legs = {nid: [] for nid in site.values()}
    dims = [1, 16] + [int(d) for d in rng.integers(1, 17, size=len(bonds) + n_open - 2)]
    attach = {}
    for eid, (a, b) in enumerate(bonds):
        attach[eid] = [(site[p], len(legs[site[p]])) for p in (a, b)]
        for p in (a, b):
            legs[site[p]].append(dims[eid])
    for k in range(n_open):
        nid = int(rng.integers(len(site)))
        attach[len(bonds) + k] = [(nid, len(legs[nid]))]
        legs[nid].append(dims[len(bonds) + k])
    tensors = {nid: rng.random(tuple(ds)) for nid, ds in legs.items()}
    return TensorNetwork.build(tensors, attach)


def dense_cut(net, state):
    """The BP estimate by another route: ``|ket><bra| / overlap`` inserted
    as a dense operator on every closed edge, then contracted exactly."""
    ops = []
    for eid, edge in sorted(net.edges.items()):
        if not edge.is_open:
            ket, bra = state.messages[(eid, 1)], state.messages[(eid, 0)]
            ops.append(EdgeInsertion(eid, DenseOp(np.outer(ket, bra) / (bra @ ket), side=0)))
    return contract(apply_insertions(net, ops))


def converged_instance(seed, shape=(2, 3), chi=4, bias=0.5):
    # Not every random instance reaches a fixed point; scan a deterministic
    # seed ladder for one that does.
    for attempt in range(5):
        s = seed + 1000 * attempt
        g = random_grid(shape, chi, bias=bias, seed=s)
        state = run_bp(g.net, tol=1e-12, max_iter=4000, seed=s)
        if state.converged:
            return g.net, state
    raise AssertionError(f"no convergent instance found from seed {seed}")


class TestRunBp:
    def test_exact_on_trees(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            net = random_tree(int(rng.integers(3, 10)), rng)
            state = run_bp(net, tol=1e-13, max_iter=500, damping=0.0, seed=trial)
            assert state.converged
            ex = float(contract(net))
            assert abs((bp_scalar(net, state) - ex) / ex) < 1e-10

    def test_unbiased_random_typically_fails(self):
        fails = 0
        for seed in range(4):
            g = random_grid((2, 3), 4, bias=0.0, seed=seed)
            state = run_bp(g.net, tol=1e-12, max_iter=300, seed=seed)
            fails += not state.converged
        assert fails >= 3

    def test_messages_unit_norm(self):
        net, state = converged_instance(0)
        for m in state.messages.values():
            np.testing.assert_allclose(np.linalg.norm(m), 1.0, atol=1e-12)

    def test_damping_shares_fixed_points(self):
        net, state = converged_instance(1)
        for d2 in (0.0, 0.5):
            resumed = run_bp(net, tol=1e-10, max_iter=2000, damping=d2, seed=1)
            assert resumed.converged
            for k in state.messages:
                np.testing.assert_allclose(resumed.messages[k], state.messages[k], atol=1e-7)

    def test_scale_invariant_messages(self):
        g = random_grid((2, 3), 3, bias=0.5, seed=5)
        s1 = run_bp(g.net, tol=1e-12, max_iter=4000, seed=3)
        scaled = g.net.copy()
        scaled.nodes[0] = 7.5 * scaled.nodes[0]
        s2 = run_bp(scaled, tol=1e-12, max_iter=4000, seed=3)
        assert s1.converged and s2.converged
        for k in s1.messages:
            np.testing.assert_allclose(s2.messages[k], s1.messages[k], atol=1e-9)


class TestNodeSweep:
    """run_bp goes node by node; it must reproduce the per-message sweep bit
    for bit, in the same dict order and the same number of sweeps."""

    def assert_same_run(self, net, **kwargs):
        state = run_bp(net, **kwargs)
        messages, iterations = per_message_bp(net, **kwargs)
        assert state.iterations == iterations
        assert list(state.messages) == list(messages)
        for k, m in messages.items():
            assert state.messages[k].tobytes() == m.tobytes(), k
        return state

    def test_closed_grid(self):
        g = random_grid((3, 3), 3, bias=0.5, seed=2)
        assert self.assert_same_run(g.net, tol=1e-12, max_iter=4000, seed=2).converged

    def test_open_grid(self):
        g = random_grid((2, 3), 3, bias=0.5, seed=8, open_axes=OPEN2X3_AXES)
        assert self.assert_same_run(g.net, tol=1e-12, max_iter=4000, seed=2).converged

    def test_tree(self):
        net = random_tree(9, np.random.default_rng(3))
        assert self.assert_same_run(net, tol=1e-13, max_iter=500, damping=0.0).converged

    def test_warm_start(self):
        g = random_grid((3, 3), 3, bias=0.5, seed=2)
        rng = np.random.default_rng(0)
        start = run_bp(g.net, tol=1e-6, max_iter=4000, seed=2).messages
        initial = {k: m + 1e-3 * rng.standard_normal(m.size) for k, m in start.items()}
        state = self.assert_same_run(g.net, tol=1e-12, max_iter=4000, damping=0.1, initial=initial)
        assert state.converged and state.iterations > 1

    def test_mixed_extents_and_open_edges(self):
        net = mixed_extent_network(np.random.default_rng(4))
        assert {e.dim for e in net.edges.values()} >= {1, 16}
        assert any(e.is_open for e in net.edges.values())
        assert self.assert_same_run(net, tol=1e-12, max_iter=4000, seed=5).converged

    @pytest.mark.parametrize("case", ["closed", "open", "tree", "warm", "mixed", "grid12x12-chi16"])
    def test_within_rounding_of_descending_order(self, case):
        # The absorption order moved from descending axes to front/back;
        # that moves message bits by rounding only, and no sweep count.
        kwargs = {"tol": 1e-12, "max_iter": 4000, "seed": 2}
        if case == "closed":
            net = random_grid((3, 3), 3, bias=0.5, seed=2).net
        elif case == "open":
            net = random_grid((2, 3), 3, bias=0.5, seed=8, open_axes=OPEN2X3_AXES).net
        elif case == "tree":
            net = random_tree(9, np.random.default_rng(3))
            kwargs = {"tol": 1e-13, "max_iter": 500, "damping": 0.0}
        elif case == "warm":
            net = random_grid((3, 3), 3, bias=0.5, seed=2).net
            rng = np.random.default_rng(0)
            start = run_bp(net, tol=1e-6, max_iter=4000, seed=2).messages
            kwargs = {"tol": 1e-12, "max_iter": 4000, "damping": 0.1,
                      "initial": {k: m + 1e-3 * rng.standard_normal(m.size) for k, m in start.items()}}
        elif case == "mixed":
            net = mixed_extent_network(np.random.default_rng(4))
            kwargs["seed"] = 5
        else:
            net = random_grid((12, 12), 16, bias=1.0, seed=1).net
            kwargs = {"tol": 1e-10, "max_iter": 200, "seed": 1}
        state = run_bp(net, **kwargs)
        messages, iterations = per_message_bp(net, descending=True, **kwargs)
        assert state.converged and state.iterations == iterations
        assert list(state.messages) == list(messages)
        assert max(np.abs(state.messages[k] - m).max() for k, m in messages.items()) < 1e-13

    def test_large_nodes_absorbed_in_place(self, monkeypatch):
        # A 4-leg chi=16 node (512 KiB) is above the stack bound; the 3-leg
        # and 2-leg ones are stacked.
        net = random_grid((3, 4), 16, bias=1.0, seed=0).net
        big = [t for t in net.nodes.values() if t.nbytes > STACK_BYTES]
        assert len(big) == 2
        stacks = []
        outgoing = belief._outgoing
        monkeypatch.setattr(belief, "_outgoing", lambda stack, vecs: stacks.append(stack) or outgoing(stack, vecs))
        assert run_bp(net, tol=1e-10, max_iter=1).iterations == 1
        assert len(stacks) == 2 + 2     # the big nodes, one stack of 3-leg and one of 2-leg nodes
        for t in big:
            assert any(np.shares_memory(stack, t) for stack in stacks)
        copied = [stack for stack in stacks if not any(np.shares_memory(stack, t) for t in net.nodes.values())]
        assert sorted(stack.shape[0] for stack in copied) == [4, 6]
        assert all(stack.nbytes <= STACK_BYTES for stack in copied)

    def test_stacks_hold_at_most_the_byte_bound(self, monkeypatch):
        # 100 interior nodes of 32 KiB: 8 to a stack, so 13 stacks.
        net = random_grid((12, 12), 8, bias=1.0, seed=0).net
        stacks = []
        outgoing = belief._outgoing
        monkeypatch.setattr(belief, "_outgoing", lambda stack, vecs: stacks.append(stack) or outgoing(stack, vecs))
        run_bp(net, tol=1e-10, max_iter=1)
        interior = [stack for stack in stacks if stack.shape[1:] == (8,) * 4]
        assert [stack.shape[0] for stack in interior] == [8] * 12 + [4]
        assert all(stack.nbytes <= STACK_BYTES for stack in stacks)

    def test_attachment_index_built_once_per_run(self, monkeypatch):
        calls = {"index": 0, "attachments": 0}
        build = TensorNetwork.attachment_index
        scan = TensorNetwork.attachments

        def counted_index(net):
            calls["index"] += 1
            return build(net)

        def counted_scan(net, nid):
            calls["attachments"] += 1
            return scan(net, nid)

        g = random_grid((12, 12), 2, bias=1.0, seed=0)
        monkeypatch.setattr(TensorNetwork, "attachment_index", counted_index)
        monkeypatch.setattr(TensorNetwork, "attachments", counted_scan)
        state = run_bp(g.net, tol=1e-10, max_iter=200)
        assert state.iterations > 1
        assert calls == {"index": 1, "attachments": 0}


class TestKernels:
    """The stacked sweep is bit-exact only while ``_absorb_all`` and ``_norms``
    reproduce numpy's own ``tensordot`` and ``linalg.norm``; these pin both."""

    def test_absorb_matches_tensordot_bytes(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            shape = tuple(int(d) for d in rng.integers(1, 7, size=int(rng.integers(1, 5))))
            t = rng.standard_normal(shape)
            if trial % 3 == 1:      # a transposed view
                t = t.transpose(rng.permutation(t.ndim))
            elif trial % 3 == 2:    # a strided view
                t = rng.standard_normal(tuple(2 * d for d in shape))[tuple(slice(None, None, 2) for _ in shape)]
            ax = int(rng.integers(t.ndim))
            vec = rng.standard_normal(2 * t.shape[ax])[::2] if trial % 2 else rng.standard_normal(t.shape[ax])
            want = np.tensordot(t, vec, axes=([ax], [0]))
            got = belief._absorb_all(t, [(ax, vec)])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (shape, ax, trial)

    def test_absorb_all_takes_pairs_in_any_order(self):
        # Equal extents on every leg: absorbing in ascending order would
        # contract the wrong axes without a shape error.
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 3, 3, 3))
        pairs = [(ax, rng.standard_normal(3)) for ax in (0, 2, 3)]
        want = np.tensordot(np.tensordot(np.tensordot(t, pairs[2][1], axes=([3], [0])),
                                         pairs[1][1], axes=([2], [0])), pairs[0][1], axes=([0], [0]))
        for order in (pairs, pairs[::-1], [pairs[1], pairs[0], pairs[2]]):
            assert belief._absorb_all(t, order).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 5])
    def test_front_back_absorb_match_tensordot_bytes(self, n):
        rng = np.random.default_rng(n)
        for trial in range(300):
            shape = tuple(int(d) for d in rng.integers(1, 7, size=int(rng.integers(1, 5))))
            if trial % 5 == 0:
                shape = shape[:-1] + (1,)                  # a dim-1 last leg
            elif trial % 5 == 1:
                shape = (1,) + shape[1:]                   # a dim-1 first leg
            if trial % 3 == 1:      # transposed items: a permuted view of a contiguous stack
                perm = rng.permutation(len(shape))
                s = rng.standard_normal((n,) + tuple(shape[p] for p in np.argsort(perm)))
                s = s.transpose(0, *(1 + perm))
            else:
                s = rng.standard_normal((n,) + shape)
            # Strided message rows on odd trials.
            v = rng.standard_normal((n, 2 * shape[0]))[:, ::2] if trial % 2 else rng.standard_normal((n, shape[0]))
            w = rng.standard_normal((n, 2 * shape[-1]))[:, ::2] if trial % 2 else rng.standard_normal((n, shape[-1]))
            front, back = _absorb_front(s, v), _absorb_back(s, w)
            assert front.shape == (n,) + shape[1:] and back.shape == (n,) + shape[:-1]
            for i in range(n):
                want = np.tensordot(s[i], v[i], axes=([0], [0]))
                assert front[i].tobytes() == want.tobytes(), (shape, trial)
                want = np.tensordot(s[i], w[i], axes=([len(shape) - 1], [0]))
                assert back[i].tobytes() == want.tobytes(), (shape, trial)

    def test_norms_match_linalg_norm_bytes(self):
        rng = np.random.default_rng(1)
        for dim in [1, 2, 3, 4, 7, 16, 17, 64, 100, 255, 1000]:
            x = rng.standard_normal((12, dim)) * 10.0 ** rng.integers(-8, 8, size=(12, 1))
            got = _norms(x)
            for row, nrm in zip(x, got):
                assert np.linalg.norm(row).tobytes() == nrm.tobytes(), dim

    def test_sign_fix_matches_row_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 6))
        x[:10, :2] = 1e-13 * rng.standard_normal((10, 2))     # leading sub-1e-12 entries
        x[10:20] = 1e-13 * rng.standard_normal((10, 6))       # every entry sub-1e-12
        x[20:30, 0] = -np.abs(x[20:30, 0]) - 0.1              # negative pivots
        x[30, :] = 0.0
        got = _sign_fix(x)
        for row, g in zip(x, got):
            assert g.tobytes() == sign_fix_row(row).tobytes()


class TestRunBpArguments:
    @pytest.mark.parametrize("damping", [1.0, -0.1, 1.5, float("nan")])
    def test_damping_outside_unit_interval_rejected(self, damping):
        # At damping 1.0 the start messages never move, and run_bp used to
        # report convergence after one sweep.
        g = random_grid((3, 3), 3, bias=1.0, seed=1)
        with pytest.raises(BPError, match="damping"):
            run_bp(g.net, damping=damping)

    def warm_start(self):
        g = random_grid((2, 3), 3, bias=0.5, seed=8, open_axes=OPEN2X3_AXES)
        state = run_bp(g.net, tol=1e-8, max_iter=4000, seed=2)
        assert state.converged
        return g.net, dict(state.messages)

    def test_warm_start_accepted(self):
        net, initial = self.warm_start()
        assert run_bp(net, tol=1e-8, max_iter=4000, initial=initial).converged

    def test_missing_warm_start_message(self):
        net, initial = self.warm_start()
        del initial[(3, 1)]
        with pytest.raises(BPError, match="edge 3 direction 1"):
            run_bp(net, initial=initial)

    @pytest.mark.parametrize("bad", ["short", "zero", "nan", "inf"])
    def test_bad_warm_start_message(self, bad):
        net, initial = self.warm_start()
        m = initial[(3, 0)]
        initial[(3, 0)] = {"short": m[:-1], "zero": 0.0 * m,
                           "nan": np.full(m.size, np.nan), "inf": np.full(m.size, np.inf)}[bad]
        with pytest.raises(BPError, match="edge 3 direction 0"):
            run_bp(net, initial=initial)

    def test_zero_network_raises(self):
        g = random_grid((2, 2), 2, seed=0)
        zero = g.net.copy()
        zero.nodes = {nid: 0.0 * t for nid, t in zero.nodes.items()}
        with pytest.raises(BPError, match=r"zero outgoing message \(0, 0\)"):
            run_bp(zero)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_outgoing_message_raises_on_first_sweep(self, bad, monkeypatch):
        g = random_grid((2, 2), 2, bias=1.0, seed=0)
        net = g.net.copy()
        net.nodes[3] = net.nodes[3].copy()
        net.nodes[3].flat[0] = bad
        # All four corners have shape (2, 2): one stack, one kernel call a sweep.
        assert {t.shape for t in net.nodes.values()} == {(2, 2)}
        sweeps = []
        outgoing = belief._outgoing
        monkeypatch.setattr(belief, "_outgoing", lambda stack, vecs: sweeps.append(1) or outgoing(stack, vecs))
        with pytest.raises(BPError, match=r"non-finite outgoing message \(\d+, [01]\)"):
            run_bp(net)
        assert len(sweeps) == 1

    @pytest.mark.parametrize("bad_b, bad_c", [(np.nan, 0.0), (0.0, np.inf)])
    def test_bad_message_named_in_key_order(self, bad_b, bad_c):
        # "a" and "c" share an extent and are stacked together; "b" comes
        # between them in key order and is the one named.
        dims = {"a": 3, "b": 2, "c": 3}

        def emit(stacks):
            # Rows of the extent-3 stack are a, c; of the extent-2 stack, b.
            assert [x.shape for x in stacks.values()] == [(2, 3), (1, 2)]
            return {3: np.stack([np.ones(3), np.full(3, bad_c)]), 2: np.full((1, 2), bad_b)}

        what = "zero" if bad_b == 0.0 else "non-finite"
        with pytest.raises(BPError, match=f"^{what} outgoing message b$"):
            belief._iterate_messages(dims, emit, 1e-10, 10, 0.0, 0, BPError)

    def test_residual_history(self):
        net, state = converged_instance(0)
        assert len(state.residual_history) == state.iterations
        assert state.residual_history[-1] == state.max_residual < state.tol
        stopped = run_bp(net, tol=0.0, max_iter=7)
        assert not stopped.converged
        assert len(stopped.residual_history) == 7
        assert stopped.residual_history[-1] == stopped.max_residual


class TestFixedPointResidual:
    def test_converged_state_reads_small(self):
        net, state = converged_instance(0)
        assert fixed_point_residual(net, state) < 10 * state.tol

    def test_perturbed_state_reads_large(self):
        net, state = converged_instance(0)
        rng = np.random.default_rng(1)
        state.messages = {k: m + 1e-3 * rng.standard_normal(m.size) for k, m in state.messages.items()}
        assert fixed_point_residual(net, state) > 1e-5

    def test_open_edges(self):
        g = random_grid((2, 3), 3, bias=0.5, seed=8, open_axes=OPEN2X3_AXES)
        state = run_bp(g.net, tol=1e-12, max_iter=4000, seed=2)
        assert state.converged
        assert fixed_point_residual(g.net, state) < 10 * state.tol

    def test_state_of_another_network_raises(self):
        _, state = converged_instance(0)                   # a 2x3 grid, chi 4
        bigger = random_grid((3, 3), 4, bias=0.5, seed=0).net
        with pytest.raises(BPError, match=r"no entry for edge \d+ direction [01]"):
            fixed_point_residual(bigger, state)
        other_extent = random_grid((2, 3), 3, bias=0.5, seed=0).net
        with pytest.raises(BPError, match=r"edge 0 direction 0 has shape \(4,\), not \(3,\)"):
            fixed_point_residual(other_extent, state)


class TestBpScalar:
    def test_tree_equals_exact(self):
        rng = np.random.default_rng(7)
        net = random_tree(7, rng)
        state = run_bp(net, tol=1e-13, max_iter=500, damping=0.0)
        ex = float(contract(net))
        assert abs((bp_scalar(net, state) - ex) / ex) < 1e-10

    def test_equals_insertion_form(self):
        net, state = converged_instance(2)
        assert net.is_closed
        ref = float(dense_cut(net, state))
        np.testing.assert_allclose(bp_scalar(net, state), ref, rtol=1e-10)
        np.testing.assert_allclose(float(bp_approx(net, state)), ref, rtol=1e-10)

    def test_open_equals_insertion_form(self):
        g = random_grid((2, 3), 3, bias=0.5, seed=8, open_axes=OPEN2X3_AXES)
        state = run_bp(g.net, tol=1e-12, max_iter=4000, seed=2)
        assert state.converged
        approx, ref = bp_approx(g.net, state), dense_cut(g.net, state)
        assert approx.shape == ref.shape == (3,) * len(g.net.open_edge_ids())
        np.testing.assert_allclose(approx, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())

    def test_open_axes_in_edge_id_order(self):
        # Open edge ids run against node and axis order.
        rng = np.random.default_rng(3)
        net = TensorNetwork.build(
            {0: rng.uniform(0.5, 1.5, (2, 3)), 1: rng.uniform(0.5, 1.5, (3, 2, 4, 2)),
             2: rng.uniform(0.5, 1.5, (2, 3))},
            {5: [(0, 0)], 2: [(0, 1), (1, 0)], 3: [(1, 1)], 1: [(1, 2)], 4: [(1, 3), (2, 0)], 0: [(2, 1)]},
        )
        state = run_bp(net, tol=1e-13, max_iter=500, damping=0.0)
        assert state.converged
        approx = bp_approx(net, state)
        assert approx.shape == (3, 4, 2, 2)
        np.testing.assert_allclose(approx, dense_cut(net, state), rtol=1e-10)

    def test_linear_in_single_tensor(self):
        net, state = converged_instance(3)
        base = bp_scalar(net, state)
        scaled = net.copy()
        scaled.nodes[2] = 3.0 * scaled.nodes[2]
        np.testing.assert_allclose(bp_scalar(scaled, state), 3.0 * base, rtol=1e-12)

    def test_requires_convergence(self):
        g = random_grid((2, 3), 4, bias=0.0, seed=1)
        state = run_bp(g.net, max_iter=20, seed=1)
        if not state.converged:
            with pytest.raises(BPError):
                bp_scalar(g.net, state)


class TestSymmetrize:
    def test_scalar_preserved_and_messages_e0(self):
        net, state = converged_instance(4)
        ex = float(contract(net))
        net2, gauge = symmetrize(net, state)
        np.testing.assert_allclose(float(contract(net2)), ex, rtol=1e-10)
        resumed = run_bp(net2, tol=1e-12, max_iter=2000, seed=0)
        assert resumed.converged
        for (eid, _), m in resumed.messages.items():
            e0 = np.zeros(m.size)
            e0[0] = 1.0
            assert np.linalg.norm(m - e0) < 1e-9

    def test_gauge_factors_invert(self):
        net, state = converged_instance(5)
        _, gauge = symmetrize(net, state)
        for eid, x in gauge.x.items():
            np.testing.assert_allclose(x @ gauge.x_inv[eid], np.eye(x.shape[0]), atol=1e-10)

    def test_identity_when_already_symmetric(self):
        # A network whose converged messages are already e0 in both directions.
        net, state = converged_instance(6)
        net2, _ = symmetrize(net, state)
        state2 = run_bp(net2, tol=1e-12, max_iter=2000, seed=0)
        net3, gauge3 = symmetrize(net2, state2)
        for eid, x in gauge3.x.items():
            np.testing.assert_allclose(np.abs(x), np.eye(x.shape[0]), atol=1e-7)

    def test_open_network_gauge_compensation(self):
        g = random_grid((2, 3), 3, bias=0.5, seed=8, open_axes=OPEN2X3_AXES)
        state = run_bp(g.net, tol=1e-12, max_iter=4000, seed=2)
        assert state.converged
        exact = contract(g.net)
        net2, gauge = symmetrize(g.net, state)
        rotated = contract(net2)
        restored = gauge.compensate_open(rotated, net2.open_edge_ids())
        np.testing.assert_allclose(restored, exact, rtol=1e-9)


class TestProjectors:
    def test_basis_column(self):
        net, state = converged_instance(9)
        _, gauge = symmetrize(net, state)
        pr = projectors_from_bp(gauge, sorted(net.edges))
        for eid, iso in pr.items():
            assert iso.shape == (net.edges[eid].dim, 1)
            assert iso[0, 0] == 1.0 and np.all(iso[1:] == 0.0)

    def test_idempotent_complementary(self):
        net, state = converged_instance(10)
        _, gauge = symmetrize(net, state)
        pr = projectors_from_bp(gauge, [0])
        u = pr[0]
        p = u @ u.T
        q = np.eye(p.shape[0]) - p
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
        np.testing.assert_allclose(q @ q, q, atol=1e-14)
        np.testing.assert_allclose(p @ q, 0.0 * p, atol=1e-14)

    def test_tree_leading_term_exact(self):
        from pne.expansion import Factorized, Partition, build_combinatorial, evaluate

        rng = np.random.default_rng(11)
        net = random_tree(6, rng)
        state = run_bp(net, tol=1e-13, max_iter=500, damping=0.0)
        net2, gauge = symmetrize(net, state)
        pr = projectors_from_bp(gauge, sorted(net2.edges))
        parts = [
            Partition(id=k, edges=(e,), projector=Factorized((pr[e],)))
            for k, e in enumerate(sorted(net2.edges))
        ]
        exp = build_combinatorial(net2, parts)
        ex = float(contract(net))
        assert abs((float(evaluate(exp).value) - ex) / ex) < 1e-10


class TestGrouped:
    def test_fused_value_preserved(self):
        g = random_grid((2, 2, 2), 2, bias=0.3, seed=3)
        e1 = g.bond[(0, (0, 0, 0))]
        e2 = g.bond[(0, (0, 0, 1))]
        derived, fused = grouped_network(g.net, (e1, e2))
        assert validate(derived) == []
        assert derived.edges[fused].dim == 4
        np.testing.assert_allclose(float(contract(derived)), float(contract(g.net)), rtol=1e-10)

    def test_fusion_is_first_edge_major(self):
        g = random_grid((2, 2, 2), 2, bias=0.3, seed=3)
        e1 = g.bond[(0, (0, 0, 0))]
        e2 = g.bond[(0, (0, 0, 1))]
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        via_pair = contract(apply_insertions(g.net, [EdgeInsertion(e1, DenseOp(a)), EdgeInsertion(e2, DenseOp(b))]))
        for pair, op in (((e1, e2), np.kron(a, b)), ((e2, e1), np.kron(b, a))):
            derived, fused = grouped_network(g.net, pair)
            via_fused = contract(apply_insertions(derived, [EdgeInsertion(fused, DenseOp(op))]))
            np.testing.assert_allclose(float(via_fused), float(via_pair), rtol=1e-10)

    def test_single_node_groups(self):
        # Two nodes joined by two parallel edges: each group is one node.
        rng = np.random.default_rng(5)
        net = TensorNetwork.build(
            {0: rng.normal(size=(3, 2, 4)), 1: rng.normal(size=(4, 2, 5))},
            {0: [(0, 2), (1, 0)], 1: [(0, 1), (1, 1)], 2: [(0, 0)], 3: [(1, 2)]},
        )
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(2, 2))
        via_pair = contract(apply_insertions(net, [EdgeInsertion(0, DenseOp(a)), EdgeInsertion(1, DenseOp(b))]))
        for pair, op in (((0, 1), np.kron(a, b)), ((1, 0), np.kron(b, a))):
            derived, fused = grouped_network(net, pair)
            assert validate(derived) == []
            assert sorted(derived.nodes) == [0, 1] and sorted(derived.edges) == [2, 3, fused]
            assert derived.edges[fused].dim == 8
            np.testing.assert_allclose(contract(derived), contract(net), rtol=1e-12)
            via_fused = contract(apply_insertions(derived, [EdgeInsertion(fused, DenseOp(op))]))
            np.testing.assert_allclose(via_fused, via_pair, rtol=1e-12)

    def test_joint_pair_idempotent(self):
        g = random_grid((2, 2, 2), 2, bias=0.5, seed=4)
        e1 = g.bond[(0, (0, 0, 0))]
        e2 = g.bond[(0, (0, 0, 1))]
        derived, fused = grouped_network(g.net, (e1, e2))
        state = run_bp(derived, tol=1e-12, max_iter=4000, seed=0)
        assert state.converged
        ket, bra, ov = joint_message_pair(state, fused)
        p = np.outer(ket, bra) / ov
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
