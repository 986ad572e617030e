"""Error metrics, benchmark instance builders, the SVD-truncation baseline
and the suite runner that reproduces the accuracy comparisons as CSV tables.

Every suite is deterministic for fixed seeds: instance generators are
seeded, evaluation reduces in fixed term order, and the CSV contains no
timestamps or timings.
"""

from __future__ import annotations

import functools
import io as _io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from pne.belief import bp_approx, bp_scalar, run_bp
from pne.expansion import evaluate
from pne.infinite import cylinder_baseline, free_energy, prepare_strips
from pne.models import (
    BETA_C_2D,
    BETA_C_3D,
    GridNetwork,
    ModelSpec,
    block_unit,
    capped_patch,
    finite_patch,
    ising_free_energy_2d,
    ising_unit_tensor,
    random_tensor,
    uniform_fixed_point,
)
from pne.network import Edge, NetworkError, contract, plan_order, subnetwork
from pne.presets import OPEN2X3_AXES, build_preset
from pne.tensor import svd
from pne.weights import run_weight_passing

__all__ = [
    "BenchError",
    "rel_error",
    "tensor_error",
    "svd_baseline_5x4",
    "BenchRecord",
    "SuiteResult",
    "suite_names",
    "run_suite",
    "records_to_csv",
    "make_instance",
]


class BenchError(NetworkError):
    pass


def rel_error(exact: float, approx: float) -> float:
    """|(exact - approx) / exact| of two scalars."""
    if exact == 0:
        raise BenchError("relative error is undefined for an exact value of zero")
    return abs((exact - approx) / exact)


def tensor_error(exact: np.ndarray, approx: np.ndarray) -> float:
    """Frobenius-norm relative error of two same-shape tensors."""
    exact = np.asarray(exact, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    if exact.shape != approx.shape:
        raise BenchError(f"shape mismatch {exact.shape} vs {approx.shape}")
    denom = float(np.linalg.norm(exact.ravel()))
    if denom == 0:
        raise BenchError("reference tensor has zero norm")
    return float(np.linalg.norm((exact - approx).ravel())) / denom


# ---------------------------------------------------------------------------
# SVD-truncation baseline on the 5x4 lattice
# ---------------------------------------------------------------------------

def svd_baseline_5x4(
    grid: GridNetwork,
    chi_keep: int,
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] = ((0, 1), (2, 3)),
) -> float:
    """Contract the top two rows exactly, truncate the resulting four-index
    tensor across the given column bipartition, re-insert and contract.

    With ``chi_keep`` equal to the full rank this reproduces the exact
    contraction; smaller values trade accuracy for an O(chi^6) evaluation.
    """
    if grid.shape != (5, 4):
        raise BenchError(f"the SVD baseline is defined for the (5, 4) lattice, got {grid.shape}")
    net = grid.net
    stub_edges = [grid.v_edge(1, c) for c in range(4)]
    # The top rows' only open edges are the stubs, in column order.
    top = contract(subnetwork(net, [grid.node_of[(r, c)] for r in (0, 1) for c in range(4)]))
    res = svd(top, row_axes=list(bipartition[0]), col_axes=list(bipartition[1]))
    k = min(int(chi_keep), res.s.size)
    root = np.sqrt(res.s[:k])
    left = res.u_matrix()[:, :k] * root[None, :]
    right = root[:, None] * res.vh_matrix()[:k, :]
    left = left.reshape(*(top.shape[c] for c in bipartition[0]), k)
    right = right.reshape(k, *(top.shape[c] for c in bipartition[1]))

    # Wire the factors onto the bottom rows through the stub edges.
    reduced = subnetwork(net, [grid.node_of[(r, c)] for r in (2, 3, 4) for c in range(4)])
    la = reduced.next_node_id()
    rb = la + 1
    reduced.nodes.update({la: left, rb: right})
    for node, first_axis, cols in ((la, 0, bipartition[0]), (rb, 1, bipartition[1])):
        for slot, c in enumerate(cols):
            stub = reduced.edges[stub_edges[c]]
            reduced.edges[stub_edges[c]] = Edge(((node, first_axis + slot),) + stub.endpoints, stub.dim)
    reduced.edges[reduced.next_edge_id()] = Edge(((la, 2), (rb, 0)), k)
    return float(contract(reduced))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def make_instance(
    kind: str,
    shape: tuple[int, ...],
    beta: float | None = None,
    bias: float = 0.2,
    seed: int = 0,
    open_axes: frozenset = frozenset(),
) -> GridNetwork:
    """One benchmark network: a boundary-capped patch of a uniform unit of
    bond dimension 16.

    ``kind``: ising2d | ising3d | aklt | random (2D) | random3d. The Ising
    and AKLT units are blocked to dimension 16 and capped by
    :func:`pne.models.finite_patch`, which raises :class:`ModelError` for
    any other kind; random units are drawn per seed.
    """
    if kind in ("random", "random3d"):
        legs = 4 if kind == "random" else 6
        unit = random_tensor((16,) * legs, bias=bias, seed=seed)
        ubp = uniform_fixed_point(unit)
        if not ubp.converged:
            raise BenchError(f"uniform message passing failed for random seed {seed}")
        return capped_patch(unit, shape, ubp.caps(), open_axes)
    factors = {"ising2d": (4, 4), "aklt": (2, 2), "ising3d": (2, 2, 2)}.get(kind)
    return finite_patch(ModelSpec(kind, beta, block_factors=factors, patch=tuple(shape), open_axes=open_axes))


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

@dataclass
class BenchRecord:
    suite: str
    geometry: str
    model: str
    param: str          # temperature/bias descriptor
    seed: str           # trial seed or "median"
    method: str
    preset: str
    rank: int
    metric: str         # "rel" | "2norm" | "abs"
    value: float
    exact: float
    error: float
    flops: int
    converged: bool = True


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]


def records_to_csv(records) -> str:
    buf = _io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        row = []
        for c in CSV_COLUMNS:
            v = getattr(r, c)
            if isinstance(v, float):
                row.append(repr(v))
            else:
                row.append(str(v))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


@dataclass
class SuiteResult:
    name: str
    records: list[BenchRecord]
    identities_ok: bool
    csv: str = ""


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    workers: int = 1,
    out: str | None = None,
) -> SuiteResult:
    """Run a named benchmark suite and emit its CSV table.

    Reruns with identical seeds and flags produce byte-identical CSV for any
    worker count, given the same BLAS thread count: threaded BLAS sums in a
    different order, which moves the last digits of the grid5x4 rows. The
    result carries an ``identities_ok`` flag from a
    randomized exactness self-check on the suite's geometry; the CLI exit
    code reflects it.
    """
    if name not in _SUITES:
        raise BenchError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    runner, default_trials = _SUITES[name]
    records = runner(trials if trials is not None else default_trials, seed, workers)
    medians = _aggregate(records)
    records = records + medians
    ok = _identity_selftest(name, seed)
    result = SuiteResult(name=name, records=records, identities_ok=ok)
    result.csv = records_to_csv(records)
    if out:
        with open(out, "w") as fh:
            fh.write(result.csv)
    return result


def _aggregate(records: list[BenchRecord]) -> list[BenchRecord]:
    groups: dict[tuple, list[BenchRecord]] = {}
    for r in records:
        if r.seed == "-" or r.method == "exact":
            continue
        groups.setdefault((r.suite, r.geometry, r.model, r.param, r.method, r.preset, r.rank, r.metric), []).append(r)
    out = []
    for key, rs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        if len(rs) < 2:
            continue
        out.append(
            replace(
                rs[0], seed="median",
                value=float(np.median([r.value for r in rs])),
                exact=float(np.median([r.exact for r in rs])),
                error=float(np.median([r.error for r in rs])),
                flops=int(np.median([r.flops for r in rs])),
                converged=all(r.converged for r in rs),
            )
        )
    return out


def _identity_selftest(suite: str, seed: int) -> bool:
    """Randomized exactness identity on a small instance of the suite's
    geometry: expansion plus complement residue must equal the exact value."""
    from pne.expansion import evaluate_residue
    from pne.models import random_grid
    from pne.presets import PRESETS

    preset = {
        "doubleloop": "doubleloop-3v",
        "grid3x3": "grid3x3-chi4",
        "cube222": "cube222-chi3",
        "open2x3": "open2x3-chi4",
        "grid5x4": "grid5x4-chi6",
        "grid4x3-recursive": "grid4x3-recursive",
        "degenerate-ising": "grid3x3-chi5",
        "rank-sweep": "grid3x3-chi5",
        "infinite": "doubleloop-3v",
    }[suite]
    shape = PRESETS[preset][0]
    open_axes = OPEN2X3_AXES if preset.startswith("open2x3") else frozenset()
    g = random_grid(shape, 3, bias=0.2, seed=seed + 99991, open_axes=open_axes)
    pre = build_preset(preset, g, projectors="random", rank=1, seed=seed)
    val = evaluate(pre.expansion).value
    res = evaluate_residue(pre.expansion, cross_check=False)
    exact = contract(g.net)
    err = float(np.linalg.norm(np.asarray(val + res - exact).ravel()))
    scale = max(float(np.linalg.norm(np.asarray(exact).ravel())), 1e-300)
    return err / scale < 1e-10


def _expansion_flops(exp) -> int:
    return int(sum(t.plan.total_flops for t in exp.terms))


def _preset_record(suite, geometry, model, param, seed_tag, method, pre, rank, exact, workers):
    """The row of one preset expansion: its scaled value against ``exact``
    and the planned flops of its terms."""
    val = float(evaluate(pre.expansion, workers=workers).value) * pre.scale
    return BenchRecord(suite, geometry, model, param, seed_tag, method, pre.name, rank, "rel",
                       val, exact, rel_error(exact, val), _expansion_flops(pre.expansion))


def _scalar_records(suite, geometry, model, param, seed_tag, g, methods, workers):
    """Evaluate scalar methods against the exact contraction of ``g``."""
    exact = float(contract(g.net))
    plan = plan_order(g.net)
    out = [BenchRecord(suite, geometry, model, param, seed_tag, "exact", "-", 0, "abs",
                       exact, exact, 0.0, plan.total_flops)]
    bp_state = None
    for method, preset, projectors, rank, kwargs in methods:
        try:
            if method == "bp":
                bp_state = run_bp(g.net, **kwargs)
                if not bp_state.converged:
                    out.append(BenchRecord(suite, geometry, model, param, seed_tag, "bp", "-", 1,
                                           "rel", math.nan, exact, math.nan, 0, converged=False))
                    continue
                val = bp_scalar(g.net, bp_state)
                out.append(BenchRecord(suite, geometry, model, param, seed_tag, "bp", "-", 1,
                                       "rel", val, exact, rel_error(exact, val), 0))
            elif method == "svd":
                val = svd_baseline_5x4(g, chi_keep=rank)
                out.append(BenchRecord(suite, geometry, model, param, seed_tag, "svd-baseline", "-",
                                       rank, "rel", val, exact, rel_error(exact, val), 0))
            else:
                pre = build_preset(preset, g, projectors=projectors, rank=rank,
                                   bp_state=bp_state if projectors == "bp" else None, **kwargs)
                out.append(_preset_record(suite, geometry, model, param, seed_tag, method, pre, rank,
                                          exact, workers))
        except (NetworkError, BenchError):
            out.append(BenchRecord(suite, geometry, model, param, seed_tag, method, preset, rank,
                                   "rel", math.nan, exact, math.nan, 0, converged=False))
    return out


BP_KW = dict(tol=1e-12, max_iter=4000)


def _classes_2d(trials, seed):
    yield ("ising2d", f"beta={BETA_C_2D:.6f}", [("-", BETA_C_2D, None)])
    yield ("aklt", "-", [("-", None, None)])
    yield ("random", "bias=0.2", [(str(seed + t), None, seed + t) for t in range(trials)])


def _classes_3d(trials, seed):
    for t_over_tc in (0.9, 1.0, 1.1):
        yield ("ising3d", f"T/Tc={t_over_tc:.2f}", [("-", BETA_C_3D / t_over_tc, None)])
    yield ("random3d", "bias=0.2", [(str(seed + t), None, seed + t) for t in range(trials)])


# suite -> (geometry, shape, model classes, methods) of the suites that run
# scalar methods on every instance of their model classes.
_SCALAR = {
    "doubleloop": ("2x3", (2, 3), _classes_2d, [
        ("bp", "-", "bp", 1, BP_KW),
        ("single-cut", "doubleloop-cut1", "bp", 1, {}),
        ("pne", "doubleloop-3v", "bp", 1, {}),
    ]),
    "grid3x3": ("3x3", (3, 3), _classes_2d, [
        ("bp", "-", "bp", 1, BP_KW),
        ("pne-chi4", "grid3x3-chi4", "bp", 1, {}),
        ("pne-chi5", "grid3x3-chi5", "bp", 1, {}),
    ]),
    "grid5x4": ("5x4", (5, 4), _classes_2d, [
        ("bp", "-", "bp", 1, BP_KW),
        ("svd", "-", "-", 16, {}),
        ("pne", "grid5x4-chi6", "bp", 1, {}),
    ]),
    "cube222": ("2x2x2", (2, 2, 2), _classes_3d, [
        ("bp", "-", "bp", 1, BP_KW),
        ("pne-chi3", "cube222-chi3", "bp", 1, {}),
        ("pne-chi4", "cube222-chi4", "bp", 1, {}),
        ("pne-chi5", "cube222-chi5", "bp", 1, {}),
    ]),
    "grid4x3-recursive": ("4x3", (4, 3), _classes_2d, [
        ("bp", "-", "bp", 1, BP_KW),
        ("pne-recursive", "grid4x3-recursive", "bp", 1, {}),
    ]),
}


def _run_scalar(suite, trials, seed, workers):
    geometry, shape, classes, methods = _SCALAR[suite]
    records = []
    for model, param, instances in classes(trials, seed):
        for tag, beta, s in instances:
            g = make_instance(model, shape, beta=beta, seed=s if s is not None else 0)
            records += _scalar_records(suite, geometry, model, param, tag, g, methods, workers)
    return records


def _run_open2x3(trials, seed, workers):
    records = []
    for model, param, instances in _classes_2d(trials, seed):
        for tag, beta, s in instances:
            g = make_instance(model, (2, 3), beta=beta, seed=s if s is not None else 0,
                              open_axes=OPEN2X3_AXES)
            exact_plan = plan_order(g.net)
            bp_state = run_bp(g.net, **BP_KW)
            if not bp_state.converged:
                records.append(BenchRecord("open2x3", "2x3-open", model, param, tag, "bp", "-", 1,
                                           "2norm", math.nan, math.nan, math.nan, 0, converged=False))
                continue
            pre5 = build_preset("open2x3-chi5", g, projectors="bp", bp_state=bp_state)
            pre4 = build_preset("open2x3-chi4", g, projectors="bp", bp_state=bp_state)
            # Both presets share the same symmetrized gauge; errors are
            # reported in the original frame by undoing the open-leg gauges.
            order = pre5.net.open_edge_ids()
            back = lambda t: pre5.gauge.compensate_open(t, order)
            exact_t = back(contract(pre5.net))
            norm = float(np.linalg.norm(exact_t.ravel()))
            bp_t = back(bp_approx(pre5.net, run_bp(pre5.net, **BP_KW)))
            records.append(BenchRecord("open2x3", "2x3-open", model, param, tag, "exact", "-", 0,
                                       "abs", norm, norm, 0.0, exact_plan.total_flops))
            records.append(BenchRecord("open2x3", "2x3-open", model, param, tag, "bp", "-", 1,
                                       "2norm", float(np.linalg.norm(bp_t.ravel())), norm,
                                       tensor_error(exact_t, bp_t), 0))
            for mname, pre in (("pne-chi5", pre5), ("pne-chi4", pre4)):
                val = back(evaluate(pre.expansion, workers=workers).value)
                records.append(BenchRecord("open2x3", "2x3-open", model, param, tag, mname,
                                           pre.name, 1, "2norm", float(np.linalg.norm(val.ravel())),
                                           norm, tensor_error(exact_t, val),
                                           _expansion_flops(pre.expansion)))
    return records


def _run_degenerate(trials, seed, workers):
    records = []
    wp_kw = dict(alpha=0.8, tol=1e-10, max_sweeps=400)
    for t_over_tc in (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2):
        beta = BETA_C_2D / t_over_tc
        g = finite_patch(ModelSpec("ising2d", beta, block_factors=(4, 4), patch=(3, 3), boundary="open"))
        exact = float(contract(g.net))
        param = f"T/Tc={t_over_tc:.2f}"
        records.append(BenchRecord("degenerate-ising", "12x12->3x3", "ising2d-open", param, "-",
                                   "exact", "-", 0, "abs", exact, exact, 0.0,
                                   plan_order(g.net).total_flops))
        bp_state = run_bp(g.net, tol=1e-11, max_iter=6000)
        if bp_state.converged:
            val = bp_scalar(g.net, bp_state)
            records.append(BenchRecord("degenerate-ising", "12x12->3x3", "ising2d-open", param, "-",
                                       "bp", "-", 1, "rel", val, exact, rel_error(exact, val), 0))
            for preset in ("grid3x3-chi5", "grid3x3-chi4"):
                pre = build_preset(preset, g, projectors="bp", bp_state=bp_state)
                records.append(_preset_record("degenerate-ising", "12x12->3x3", "ising2d-open", param,
                                              "-", f"pne-r1({preset[-4:]})", pre, 1, exact, workers))
        weight_state = run_weight_passing(g.net, **wp_kw)
        for preset in ("grid3x3-chi5", "grid3x3-chi4"):
            pre = build_preset(preset, g, projectors="weights", rank=2,
                               weight_state=weight_state)
            records.append(_preset_record("degenerate-ising", "12x12->3x3", "ising2d-open", param,
                                          "-", f"pne-r2({preset[-4:]})", pre, 2, exact, workers))
    return records


def _run_rank_sweep(trials, seed, workers):
    records = []
    setups = [
        ("2x3", (2, 3), "doubleloop-single", (2, 4, 6, 8), "doubleloop-2col", (1, 2, 3, 4)),
        ("3x3", (3, 3), "grid3x3-single", (4, 8, 12, 16), "grid3x3-chi5", (1, 2, 3, 4)),
    ]
    wp_kw = dict(alpha=0.8, tol=1e-10, max_sweeps=300)
    for t in range(trials):
        for geom, shape, single, sranks, multi, mranks in setups:
            g = make_instance("random", shape, seed=seed + t)
            exact = float(contract(g.net))
            try:
                weight_state = run_weight_passing(g.net, **wp_kw)
            except NetworkError:
                continue
            if not weight_state.converged:
                continue
            for preset, variant, ranks in ((single, "single", sranks), (multi, "multi", mranks)):
                for r in ranks:
                    pre = build_preset(preset, g, projectors="weights", rank=r,
                                       weight_state=weight_state)
                    records.append(_preset_record("rank-sweep", geom, "random", "bias=0.2",
                                                  str(seed + t), variant, pre, r, exact, workers))
    return records


def _run_infinite(trials, seed, workers):
    records = []
    for frac in (0.7, 0.9, 1.0, 1.05, 1.2):
        beta = frac * BETA_C_2D
        f_exact = ising_free_energy_2d(beta)
        unit2 = ising_unit_tensor(2, beta)
        blocked = block_unit(unit2, (2, 2)).materialize()
        ctx = prepare_strips(blocked)
        rows = [("bp", (-math.log(1.0) - ctx.log_site_scale) / 4.0)]   # normalized Z11 is 1
        for width in (2, 3, 4, 5, 6):
            rows.append((f"strip-L{width}", free_energy(blocked, width, ctx=ctx).value / 4.0))
        for width in (2, 4, 6):
            rows += [(f"cylinder-blocked-L{width}", cylinder_baseline(blocked, width) / 4.0),
                     (f"cylinder-spin-L{width}", cylinder_baseline(unit2, width))]
        records += [BenchRecord("infinite", "inf-2d", "ising2d", f"beta/betac={frac:.2f}", "-",
                                method, "-", 1, "rel", f, f_exact, abs((f - f_exact) / f_exact), 0)
                    for method, f in rows]
    return records


_SUITES = {
    "doubleloop": (functools.partial(_run_scalar, "doubleloop"), 100),
    "grid3x3": (functools.partial(_run_scalar, "grid3x3"), 100),
    "cube222": (functools.partial(_run_scalar, "cube222"), 30),
    "open2x3": (_run_open2x3, 100),
    "grid5x4": (functools.partial(_run_scalar, "grid5x4"), 30),
    "grid4x3-recursive": (functools.partial(_run_scalar, "grid4x3-recursive"), 20),
    "degenerate-ising": (_run_degenerate, 1),
    "rank-sweep": (_run_rank_sweep, 30),
    "infinite": (_run_infinite, 1),
}
