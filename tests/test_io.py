import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pne.belief import run_bp
from pne.expansion import Factorized, JointPair, Partition
from pne.io import (
    ContainerError,
    load_any,
    load_bp_state,
    load_grid,
    load_network,
    load_partitions,
    load_weight_state,
    save_bp_state,
    save_grid,
    save_network,
    save_partitions,
    save_weight_state,
)
from pne.models import BETA_C_2D, block, ising_open_patch, random_grid
from pne.network import Edge, TensorNetwork, contract, validate
from pne.presets import OPEN2X3_AXES
from pne.weights import run_weight_passing


def test_network_round_trip(tmp_path):
    g = random_grid((2, 3), 3, bias=0.2, seed=0, open_axes=frozenset({((1, 1), (0, 1))}))
    path = tmp_path / "net.pnec"
    save_network(path, g.net)
    loaded = load_network(path)
    assert sorted(loaded.edges) == sorted(g.net.edges)
    for e in g.net.edges:
        assert loaded.edges[e].endpoints == g.net.edges[e].endpoints
        assert loaded.edges[e].dim == g.net.edges[e].dim
    np.testing.assert_allclose(contract(loaded), contract(g.net), rtol=1e-15)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_grid((3, 4), 2, seed=1),
        lambda: random_grid((2, 2, 2), 2, seed=2),
        lambda: random_grid((2, 3), 2, seed=3, open_axes=OPEN2X3_AXES),
        lambda: block(ising_open_patch(2, BETA_C_2D, (4, 6)), (2, 3)),
    ],
    ids=["2d", "3d", "open-legs", "blocked"],
)
def test_grid_round_trip(tmp_path, make):
    g = make()
    path = tmp_path / "grid.pnec"
    save_grid(path, g)
    loaded = load_grid(path)
    assert loaded.shape == g.shape
    assert (loaded.node_of, loaded.bond, loaded.open_leg) == (g.node_of, g.bond, g.open_leg)
    assert list(loaded.net.edges.items()) == list(g.net.edges.items())
    assert list(loaded.net.nodes) == list(g.net.nodes)
    for n, t in g.net.nodes.items():
        assert loaded.net.nodes[n].tobytes() == t.tobytes()
    # The lattice key is invisible to the plain network reader.
    assert load_network(path).edges == g.net.edges


def test_grid_needs_lattice_layout(tmp_path):
    g = random_grid((2, 3), 2, seed=4)
    path = tmp_path / "net.pnec"
    save_network(path, g.net)
    with pytest.raises(ContainerError, match="no lattice layout"):
        load_grid(path)


def test_bp_state_round_trip(tmp_path):
    g = random_grid((2, 2), 3, bias=0.5, seed=1)
    state = run_bp(g.net, tol=1e-12, max_iter=2000, seed=1)
    path = tmp_path / "bp.pnec"
    save_bp_state(path, state)
    loaded = load_bp_state(path)
    assert loaded.converged == state.converged
    assert loaded.iterations == state.iterations
    assert loaded.tol == state.tol
    assert len(state.residual_history) == state.iterations
    assert loaded.residual_history == state.residual_history
    for k, m in state.messages.items():
        np.testing.assert_array_equal(loaded.messages[k], m)
        assert loaded.residuals[k] == state.residuals[k]


def test_weight_state_round_trip(tmp_path):
    g = random_grid((2, 2), 3, bias=0.3, seed=2)
    state = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=100)
    path = tmp_path / "wp.pnec"
    save_weight_state(path, state)
    loaded = load_weight_state(path)
    assert loaded.alpha == state.alpha
    assert loaded.converged == state.converged
    assert loaded.log_prefactor == state.log_prefactor
    assert (loaded.tol, loaded.max_sweeps) == (state.tol, state.max_sweeps)
    assert len(state.residual_history) == state.sweeps
    assert loaded.residual_history == state.residual_history
    for e, w in state.weights.items():
        np.testing.assert_array_equal(loaded.weights[e], w)
    np.testing.assert_allclose(loaded.contract_value(), state.contract_value(), rtol=1e-12)


def _edit_header(path, edit):
    """Rewrite the JSON header of a container in place with ``edit``."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8 : 8 + hlen])
    edit(header)
    edited = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(edited)) + edited + blob[8 + hlen :])


def test_weight_state_infinite_residual_round_trip(tmp_path):
    # The bond collapses to rank 1 in the first sweep, whose residual is inf.
    net = TensorNetwork.build({0: np.array([3.0, 4.0]), 1: np.array([1.0, 2.0])}, {0: [(0, 0), (1, 0)]})
    state = run_weight_passing(net, alpha=1.0, max_sweeps=3)
    assert state.residual_history[0] == np.inf
    path = tmp_path / "wp.pnec"
    save_weight_state(path, state)
    assert load_weight_state(path).residual_history == state.residual_history


def test_states_without_stored_history_load_empty(tmp_path):
    g = random_grid((2, 2), 3, bias=0.3, seed=2)
    bp_path, wp_path = tmp_path / "bp.pnec", tmp_path / "wp.pnec"
    save_bp_state(bp_path, run_bp(g.net, tol=1e-12, max_iter=2000, seed=1))
    save_weight_state(wp_path, run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=20))
    for path in (bp_path, wp_path):
        _edit_header(path, lambda header: header.pop("residual_history"))
    assert load_bp_state(bp_path).residual_history == []
    assert load_weight_state(wp_path).residual_history == []


def _header(path):
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 4)
    return json.loads(blob[8 : 8 + hlen])


def test_partitions_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    parts = [
        Partition(id=0, edges=(0, 1), projector=Factorized((np.eye(3)[:, :1], np.eye(3)[:, :2]))),
        Partition(id=1, edges=(2, 3), projector=JointPair(q, q)),
        Partition(id=2, edges=(4,), projector=JointPair.ketbra(rng.normal(size=3), rng.normal(size=3))),
    ]
    tail, b = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    parts.append(Partition(id=3, edges=(5, 6), projector=JointPair(tail, b @ np.linalg.inv(b.T @ tail).T)))
    path = tmp_path / "parts.pnec"
    save_partitions(path, parts, form="combinatorial")
    assert [rec["kind"] for rec in _header(path)["partitions"]] == ["factorized", "joint", "joint", "joint"]
    loaded, form = load_partitions(path)
    assert form == "combinatorial"
    assert [p.id for p in loaded] == [0, 1, 2, 3]
    assert loaded[0].edges == (0, 1)
    np.testing.assert_array_equal(loaded[0].projector.factors[1], np.eye(3)[:, :2])
    np.testing.assert_array_equal(loaded[1].projector.tail, q)
    np.testing.assert_array_equal(loaded[1].projector.head, q)
    np.testing.assert_array_equal(loaded[2].projector.tail, parts[2].projector.tail)
    np.testing.assert_array_equal(loaded[2].projector.head, parts[2].projector.head)
    np.testing.assert_array_equal(loaded[3].projector.tail, parts[3].projector.tail)
    np.testing.assert_array_equal(loaded[3].projector.head, parts[3].projector.head)


def test_pre_joint_partition_kinds_load(tmp_path):
    # Files written before the "joint" kind, under the same format version:
    # an isometry w, and a flat ket and bra.
    rng = np.random.default_rng(6)
    w, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    ket, bra = rng.normal(size=3), rng.normal(size=3)
    header = {"format_version": 1, "kind": "partitions", "partitions": [
        {"id": 0, "edges": [0, 1], "kind": "joint_isometry", "shapes": [[4, 2]]},
        {"id": 1, "edges": [2], "kind": "joint_ketbra", "shapes": [[3], [3]]},
    ]}
    blob = json.dumps(header).encode()
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in (w, ket, bra))
    path = tmp_path / "old.pnec"
    path.write_bytes(b"PNEC" + struct.pack("<I", len(blob)) + blob + payload)
    (iso, kb), _ = load_partitions(path)
    np.testing.assert_array_equal(iso.projector.tail, w)
    np.testing.assert_array_equal(iso.projector.head, w)
    want = JointPair.ketbra(ket, bra)
    np.testing.assert_array_equal(kb.projector.tail, want.tail)
    np.testing.assert_array_equal(kb.projector.head, want.head)
    assert (iso.edges, kb.edges) == ((0, 1), (2,))


def test_unknown_partition_kind_rejected(tmp_path):
    rng = np.random.default_rng(4)
    parts = [Partition(id=0, edges=(0,), projector=JointPair.ketbra(rng.normal(size=3), rng.normal(size=3)))]
    path = tmp_path / "parts.pnec"
    save_partitions(path, parts)
    _edit_header(path, lambda header: header["partitions"][0].update(kind="bogus"))
    with pytest.raises(ContainerError, match="bogus"):
        load_partitions(path)


def test_load_any_dispatch(tmp_path):
    g = random_grid((2, 2), 2, seed=4)
    path = tmp_path / "x.pnec"
    save_network(path, g.net)
    loaded = load_any(path)
    assert sorted(loaded.nodes) == sorted(g.net.nodes)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.pnec"
    path.write_bytes(b"nope")
    with pytest.raises(ValueError, match="magic"):
        load_network(path)


def test_load_validates_network(tmp_path):
    # An edge whose dim disagrees with the axis it names is rejected on load.
    net = TensorNetwork(nodes={0: np.ones(2), 1: np.ones(2)}, edges={0: Edge(((0, 0), (1, 0)), dim=3)})
    path = tmp_path / "bad.pnec"
    save_network(path, net)
    with pytest.raises(ContainerError, match="edge 0"):
        load_network(path)


CONTAINER_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
grids = st.builds(
    lambda shape, chi, seed, open_leg: random_grid(
        shape, chi, bias=0.2, seed=seed,
        open_axes=frozenset({((0,) * len(shape), (0, 0))}) if open_leg else frozenset(),
    ),
    st.sampled_from([(1, 2), (2, 2), (2, 3), (1, 1, 2)]),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.booleans(),
)


@CONTAINER_SETTINGS
@given(grids)
def test_network_round_trip_bit_exact(tmp_path, g):
    path = tmp_path / "net.pnec"
    save_network(path, g.net)
    loaded = load_network(path)
    assert loaded.edges == g.net.edges
    assert sorted(loaded.nodes) == sorted(g.net.nodes)
    for n, t in g.net.nodes.items():
        assert loaded.nodes[n].dtype == np.float64
        assert loaded.nodes[n].tobytes() == t.tobytes() and loaded.nodes[n].shape == t.shape


@CONTAINER_SETTINGS
@given(grids, st.data())
def test_truncated_container_raises(tmp_path, g, data):
    path = tmp_path / "net.pnec"
    save_network(path, g.net)
    blob = path.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1))
    path.write_bytes(blob[:cut])
    with pytest.raises(ContainerError):
        load_network(path)


@CONTAINER_SETTINGS
@given(grids, st.booleans(), st.data())
def test_corrupt_header_raises_container_error(tmp_path, g, as_grid, data):
    path = tmp_path / "net.pnec"
    if as_grid:
        save_grid(path, g)
    else:
        save_network(path, g.net)
    blob = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", blob, 4)
    # Any byte of the header length or the header itself.
    pos = data.draw(st.integers(4, 8 + hlen - 1))
    blob[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
    path.write_bytes(bytes(blob))
    try:
        loaded = load_grid(path) if as_grid else load_network(path)
    except ContainerError:
        return
    assert validate(loaded.net if as_grid else loaded) == []
