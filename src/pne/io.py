"""Container file format for networks, message states, weight states and
partition sets.

Layout: 4-byte magic ``PNEC``, a little-endian uint32 header length, a UTF-8
JSON header, then the concatenated float64 little-endian payload arrays in
the order they are declared in the header. The header always carries
``format_version`` and ``kind``. Loading validates what it reads: a
truncated, corrupt or structurally invalid file raises
:class:`ContainerError`.

:func:`save_grid` adds a ``lattice`` key, ``{"shape", "open_axes"}``, to a
network header; :func:`load_grid` rebuilds the lattice lookups from it. The
version-1 reader ignores keys it does not use, so the key needs no new
``FORMAT_VERSION`` and :func:`load_network` reads both kinds of file.
"""

from __future__ import annotations

import json
import math
import struct
from typing import BinaryIO

import numpy as np

from pne.belief import BPState
from pne.expansion import Factorized, JointPair, Partition
from pne.models import GridNetwork, grid_view
from pne.network import Edge, TensorNetwork, validate
from pne.weights import WeightState

__all__ = [
    "ContainerError",
    "save_network",
    "load_network",
    "save_grid",
    "load_grid",
    "save_bp_state",
    "load_bp_state",
    "save_weight_state",
    "load_weight_state",
    "save_partitions",
    "load_partitions",
    "load_any",
]

MAGIC = b"PNEC"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """A container file is truncated, corrupt or of the wrong kind."""


def _write(fh: BinaryIO, header: dict, arrays: list[np.ndarray]) -> None:
    header = dict(header)
    header["format_version"] = FORMAT_VERSION
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(MAGIC)
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)
    for arr in arrays:
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read(path: str) -> tuple[dict, memoryview]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ContainerError(f"not a container file (magic {data[:4]!r})")
    if len(data) < 8:
        raise ContainerError("container ends inside the header length")
    (hlen,) = struct.unpack_from("<I", data, 4)
    if 8 + hlen > len(data):
        raise ContainerError(f"header of {hlen} bytes overruns the {len(data)}-byte file")
    blob = data[8 : 8 + hlen]
    buf = memoryview(data)[8 + hlen :]
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"unsupported container header {str(header)[:80]!r}")
    return header, buf


def _load(path: str, kind: str, decode):
    """Decode the container at ``path`` as ``kind``; any malformed field is
    reported as a :class:`ContainerError`."""
    header, buf = _read(path)
    if header.get("kind") != kind:
        raise ContainerError(f"expected a {kind} container, found {header.get('kind')}")
    try:
        return decode(header, buf)
    except ContainerError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ContainerError(f"malformed {kind} container: {exc!r}") from exc


def _take(buf, offset: int, shape) -> tuple[np.ndarray, int]:
    shape = tuple(int(d) for d in shape)
    if any(d < 0 for d in shape):
        raise ContainerError(f"negative extent in array shape {shape}")
    count = math.prod(shape)
    if offset + count * 8 > len(buf):
        raise ContainerError(f"payload ends inside an array of shape {shape}")
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).astype(np.float64)
    return arr.reshape(shape), offset + count * 8


def _network_header(net: TensorNetwork) -> tuple[dict, list[np.ndarray]]:
    nodes = [{"id": n, "dims": list(net.nodes[n].shape)} for n in sorted(net.nodes)]
    edges = [
        {"id": e, "dim": net.edges[e].dim, "endpoints": [list(p) for p in net.edges[e].endpoints]}
        for e in sorted(net.edges)
    ]
    payload = [net.nodes[n] for n in sorted(net.nodes)]
    return {"node_count": len(nodes), "nodes": nodes, "edges": edges}, payload


def _network_from_header(header: dict, buf, offset: int) -> tuple[TensorNetwork, int]:
    nodes = {}
    for rec in header["nodes"]:
        arr, offset = _take(buf, offset, rec["dims"])
        nodes[int(rec["id"])] = arr
    edges = {}
    for rec in header["edges"]:
        edges[int(rec["id"])] = Edge(
            endpoints=tuple((int(n), int(ax)) for n, ax in rec["endpoints"]),
            dim=int(rec["dim"]),
        )
    net = TensorNetwork(nodes=nodes, edges=edges)
    problems = validate(net)
    if problems:
        raise ContainerError("invalid network: " + "; ".join(problems))
    return net, offset


def save_network(path: str, net: TensorNetwork) -> None:
    header, payload = _network_header(net)
    header["kind"] = "network"
    with open(path, "wb") as fh:
        _write(fh, header, payload)


def load_network(path: str) -> TensorNetwork:
    return _load(path, "network", lambda header, buf: _network_from_header(header, buf, 0)[0])


def save_grid(path: str, grid: GridNetwork) -> None:
    """Write ``grid.net`` as a network container that records its lattice."""
    header, payload = _network_header(grid.net)
    header["kind"] = "network"
    header["lattice"] = {"shape": grid.shape, "open_axes": sorted(grid.open_leg)}
    with open(path, "wb") as fh:
        _write(fh, header, payload)


def _grid_from_header(header: dict, buf) -> GridNetwork:
    if "lattice" not in header:
        raise ContainerError("the network container records no lattice layout")
    net, _ = _network_from_header(header, buf, 0)
    lattice = header["lattice"]
    open_axes = frozenset(
        (tuple(int(c) for c in pos), (int(g), int(s))) for pos, (g, s) in lattice["open_axes"]
    )
    # grid_view raises ModelError for a mismatch; _load reports it as a ContainerError.
    return grid_view(net, tuple(int(n) for n in lattice["shape"]), open_axes)


def load_grid(path: str) -> GridNetwork:
    """Load a container written by :func:`save_grid` with its lattice lookups."""
    return _load(path, "network", _grid_from_header)


def _history(header: dict) -> list[float]:
    # Containers written before the history was stored load with an empty one.
    return [float(r) for r in header.get("residual_history", [])]


def save_bp_state(path: str, state: BPState) -> None:
    keys = sorted(state.messages)
    header = {
        "kind": "bp_state",
        "messages": [
            {"edge": e, "direction": d, "length": int(state.messages[(e, d)].size)}
            for e, d in keys
        ],
        "iterations": state.iterations,
        "converged": state.converged,
        "tol": state.tol,
        "residuals": [[e, d, state.residuals[(e, d)]] for e, d in keys],
        "residual_history": state.residual_history,
    }
    with open(path, "wb") as fh:
        _write(fh, header, [state.messages[k] for k in keys])


def _bp_state_from_header(header: dict, buf) -> BPState:
    messages = {}
    offset = 0
    for rec in header["messages"]:
        vec, offset = _take(buf, offset, (rec["length"],))
        messages[(int(rec["edge"]), int(rec["direction"]))] = vec
    residuals = {(int(e), int(d)): float(r) for e, d, r in header["residuals"]}
    return BPState(
        messages=messages,
        iterations=int(header["iterations"]),
        residuals=residuals,
        converged=bool(header["converged"]),
        tol=float(header["tol"]),
        residual_history=_history(header),
    )


def load_bp_state(path: str) -> BPState:
    return _load(path, "bp_state", _bp_state_from_header)


def save_weight_state(path: str, state: WeightState) -> None:
    net_header, net_payload = _network_header(state.net)
    keys = sorted(state.weights)
    header = {
        "kind": "weight_state",
        "network": net_header,
        "weights": [{"edge": e, "length": int(state.weights[e].size)} for e in keys],
        "alpha": state.alpha,
        "sweeps": state.sweeps,
        "residual": state.residual,
        "converged": state.converged,
        "log_prefactor": state.log_prefactor,
        "tol": state.tol,
        "max_sweeps": state.max_sweeps,
        "residual_history": state.residual_history,
    }
    with open(path, "wb") as fh:
        _write(fh, header, net_payload + [state.weights[e] for e in keys])


def _weight_state_from_header(header: dict, buf) -> WeightState:
    net, offset = _network_from_header(header["network"], buf, 0)
    weights = {}
    for rec in header["weights"]:
        vec, offset = _take(buf, offset, (rec["length"],))
        weights[int(rec["edge"])] = vec
    if sorted(weights) != sorted(net.edges) or any(w.size != net.edges[e].dim for e, w in weights.items()):
        raise ContainerError("weight vectors do not match the edges of the network")
    # Containers written before the run settings were stored load with the
    # run_weight_passing defaults.
    settings = {
        key: cast(header[key]) for key, cast in (("tol", float), ("max_sweeps", int)) if key in header
    }
    return WeightState(
        net=net,
        weights=weights,
        alpha=float(header["alpha"]),
        sweeps=int(header["sweeps"]),
        residual=float(header["residual"]),
        converged=bool(header["converged"]),
        log_prefactor=float(header["log_prefactor"]),
        residual_history=_history(header),
        **settings,
    )


def load_weight_state(path: str) -> WeightState:
    return _load(path, "weight_state", _weight_state_from_header)


def save_partitions(path: str, partitions, form: str | None = None) -> None:
    records = []
    payload: list[np.ndarray] = []
    for part in partitions:
        proj = part.projector
        if isinstance(proj, Factorized):
            kind, arrays = "factorized", proj.factors
        elif isinstance(proj, JointPair):
            kind, arrays = "joint", (proj.tail, proj.head)
        else:
            raise ValueError(f"unknown projector {proj!r}")
        arrays = [np.asarray(f, dtype=np.float64) for f in arrays]
        payload.extend(arrays)
        records.append({"id": part.id, "edges": list(part.edges), "kind": kind,
                        "shapes": [list(f.shape) for f in arrays]})
    header = {"kind": "partitions", "partitions": records}
    if form is not None:
        header["form"] = form
    with open(path, "wb") as fh:
        _write(fh, header, payload)


# Partition kind -> its projector, from the kind's arrays in header order.
# "joint_isometry" (one isometry) and "joint_ketbra" (flat ket and bra) were
# written before "joint", under the same format version.
_PROJECTOR_KINDS = {
    "factorized": lambda arrays: Factorized(factors=tuple(arrays)),
    "joint": lambda arrays: JointPair(*arrays),
    "joint_isometry": lambda arrays: JointPair(arrays[0], arrays[0]),
    "joint_ketbra": lambda arrays: JointPair.ketbra(*arrays),
}


def _partitions_from_header(header: dict, buf) -> tuple[list[Partition], str | None]:
    out = []
    offset = 0
    for rec in header["partitions"]:
        kind = rec["kind"]
        if kind not in _PROJECTOR_KINDS:
            raise ContainerError(f"unknown partition kind {kind!r}")
        arrays = []
        for shape in rec["shapes"]:
            arr, offset = _take(buf, offset, shape)
            arrays.append(arr)
        proj = _PROJECTOR_KINDS[kind](arrays)
        out.append(Partition(id=int(rec["id"]), edges=tuple(int(e) for e in rec["edges"]), projector=proj))
    return out, header.get("form")


def load_partitions(path: str) -> tuple[list[Partition], str | None]:
    return _load(path, "partitions", _partitions_from_header)


def load_any(path: str):
    """Load whatever the container holds, dispatching on its kind field."""
    header, _ = _read(path)
    loaders = {
        "network": load_network,
        "bp_state": load_bp_state,
        "weight_state": load_weight_state,
        "partitions": load_partitions,
    }
    if header.get("kind") not in loaders:
        raise ContainerError(f"unknown container kind {header.get('kind')!r}")
    return loaders[header["kind"]](path)
