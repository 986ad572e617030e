"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS line with its headline numbers once its assertions
hold, so `pytest -v -s tests/test_acceptance.py` doubles as the acceptance
report. Tolerances are fixed here, not configurable.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pne.belief import bp_approx, bp_scalar, run_bp, symmetrize
from pne.bench import make_instance, rel_error, run_suite, tensor_error
from pne.expansion import (
    Factorized,
    JointPair,
    Partition,
    build_combinatorial,
    build_linear,
    evaluate,
    evaluate_residue,
    residue_degrees,
)
from pne.infinite import cylinder_baseline, free_energy, prepare_strips
from pne.models import (
    BETA_C_2D,
    BETA_C_3D,
    aklt_norm_tensor,
    aklt_peps_tensor,
    block,
    block_unit,
    brute_force_ising,
    capped_patch,
    ising_free_energy_2d,
    ising_open_patch,
    ising_unit_tensor,
    random_grid,
)
from pne.network import contract
from pne.presets import OPEN2X3_AXES, build_preset
from pne.weights import run_weight_passing, wp_update_edge

RNG_BASE = 20240801


def rand_iso(d, r, rng):
    q, _ = np.linalg.qr(rng.normal(size=(d, r)))
    return q[:, :r]


def e0col(d, r=1):
    m = np.zeros((d, r))
    m[:r, :r] = np.eye(r)
    return m


def _random_partitions(net, grid, rng, allow_joint):
    """A randomized partition set: single edges, multi-edge lines, and
    occasionally joint projectors (orthogonal or oblique)."""
    closed = sorted(e for e, edge in net.edges.items() if not edge.is_open)
    count = int(rng.integers(1, 4))
    chosen = list(rng.choice(closed, size=min(len(closed), 2 * count), replace=False))
    parts = []
    pid = 0
    while chosen and pid < count:
        kind = rng.integers(0, 3 if (allow_joint and len(chosen) >= 2) else 2)
        if kind == 2:
            edges = (chosen.pop(), chosen.pop())
            dim = net.edges[edges[0]].dim * net.edges[edges[1]].dim
            if rng.integers(0, 2):
                w = rand_iso(dim, int(rng.integers(1, dim)), rng)
                proj = JointPair(w, w)
            else:
                proj = JointPair.ketbra(rng.normal(size=dim), rng.normal(size=dim))
            parts.append(Partition(id=pid, edges=edges, projector=proj))
        elif kind == 1 and len(chosen) >= 2:
            edges = (chosen.pop(), chosen.pop())
            fs = tuple(rand_iso(net.edges[e].dim, int(rng.integers(1, net.edges[e].dim + 1)), rng) for e in edges)
            parts.append(Partition(id=pid, edges=edges, projector=Factorized(fs)))
        else:
            e = chosen.pop()
            f = rand_iso(net.edges[e].dim, int(rng.integers(1, net.edges[e].dim + 1)), rng)
            parts.append(Partition(id=pid, edges=(e,), projector=Factorized((f,))))
        pid += 1
    return parts


def test_criterion_1_exactness_identities():
    """Expansion + residue(s) equals the exact contraction, any projectors."""
    t0 = time.time()
    rng = np.random.default_rng(RNG_BASE + 1)
    cases = 0
    worst = 0.0
    geometries = (
        [((2, 3), frozenset(), 30), ((3, 3), frozenset(), 25), ((2, 2, 2), frozenset(), 20),
         ((2, 3), OPEN2X3_AXES, 15)]
    )
    for shape, open_axes, n in geometries:
        for k in range(n):
            chi = int(rng.integers(2, 6)) if k % 7 else 8
            g = random_grid(shape, chi, bias=0.2, seed=int(rng.integers(0, 2**31)),
                            open_axes=open_axes)
            parts = _random_partitions(g.net, g, rng, allow_joint=open_axes == frozenset())
            if not parts:
                continue
            exp = build_combinatorial(g.net, parts)
            val = evaluate(exp).value
            res = evaluate_residue(exp, cross_check=False)
            exact = contract(g.net)
            scale = max(float(np.linalg.norm(np.asarray(exact).ravel())), 1e-300)
            err = float(np.linalg.norm(np.asarray(val + res - exact).ravel())) / scale
            worst = max(worst, err)
            assert err < 1e-10, (shape, k, err)
            cases += 1
            if all(p.is_single_edge and isinstance(p.projector, Factorized) for p in parts):
                lin = evaluate(build_linear(g.net, parts)).value
                derr = float(np.linalg.norm(np.asarray(lin - val).ravel())) / scale
                assert derr < 1e-10
    # recursive geometry
    for k in range(10):
        g = random_grid((4, 3), 3, bias=0.2, seed=int(rng.integers(0, 2**31)))
        pre = build_preset("grid4x3-recursive", g, projectors="random", seed=k)
        val = evaluate(pre.expansion).value
        res = evaluate_residue(pre.expansion, cross_check=False)
        exact = contract(g.net)
        err = abs(float(val) + float(res) - float(exact)) / abs(float(exact))
        worst = max(worst, err)
        assert err < 1e-10
        cases += 1
    elapsed = time.time() - t0
    assert cases >= 100
    assert elapsed < 120
    print(f"\nACCEPTANCE 1: PASS - {cases} randomized triples exact to {worst:.2e} "
          f"(< 1e-10) in {elapsed:.0f}s")


def test_criterion_2_gauge_preservation():
    """Symmetrization and weight updates are pure gauge moves."""
    t0 = time.time()
    rng = np.random.default_rng(RNG_BASE + 2)
    sym_done = 0
    attempts = 0
    worst_scalar = 0.0
    worst_msg = 0.0
    while sym_done < 50 and attempts < 200:
        attempts += 1
        shape = [(2, 2), (2, 3)][attempts % 2]
        chi = int(rng.integers(2, 5))
        g = random_grid(shape, chi, bias=0.5, seed=int(rng.integers(0, 2**31)))
        state = run_bp(g.net, tol=1e-13, max_iter=3000, seed=attempts)
        if not state.converged:
            continue
        exact = float(contract(g.net))
        net2, gauge = symmetrize(g.net, state)
        worst_scalar = max(worst_scalar, abs((float(contract(net2)) - exact) / exact))
        # e0 everywhere must be a fixed point of the gauged network: warm-start
        # there and verify the sweep does not move.
        e0_init = {}
        for eid, edge in net2.edges.items():
            v = np.zeros(edge.dim)
            v[0] = 1.0
            e0_init[(eid, 0)] = v
            if not edge.is_open:
                e0_init[(eid, 1)] = v
        resumed = run_bp(net2, tol=1e-11, max_iter=50, damping=0.0, initial=e0_init)
        assert resumed.converged
        for (eid, _), m in resumed.messages.items():
            e0 = np.zeros(m.size)
            e0[0] = 1.0
            worst_msg = max(worst_msg, float(np.linalg.norm(m - e0)))
        sym_done += 1
    assert sym_done == 50
    assert worst_scalar < 1e-10
    assert worst_msg < 1e-10

    wp_worst = 0.0
    for k in range(50):
        g = random_grid((2, 2), int(rng.integers(2, 5)), bias=0.2, seed=int(rng.integers(0, 2**31)))
        exact = float(contract(g.net))
        state = run_weight_passing(g.net, alpha=float(rng.uniform(0.3, 1.0)), max_sweeps=0)
        for _ in range(int(rng.integers(1, 4))):
            wp_update_edge(state, int(rng.choice(sorted(state.net.edges))))
        wp_worst = max(wp_worst, abs((state.contract_value() - exact) / exact))
    assert wp_worst < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 2: PASS - 50 symmetrizations (scalar drift {worst_scalar:.2e}, "
          f"messages to e0 within {worst_msg:.2e}) and 50 weight updates "
          f"(drift {wp_worst:.2e}) in {elapsed:.0f}s")


def _random_tree(n_nodes, rng, max_dim=5):
    from pne.network import TensorNetwork

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


def test_criterion_3_bp_exact_on_trees():
    t0 = time.time()
    rng = np.random.default_rng(RNG_BASE + 3)
    worst = 0.0
    for k in range(25):
        net = _random_tree(int(rng.integers(3, 11)), rng)
        state = run_bp(net, tol=1e-13, max_iter=500, damping=0.0, seed=k)
        assert state.converged
        ex = float(contract(net))
        worst = max(worst, abs((bp_scalar(net, state) - ex) / ex))
    assert worst < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10
    print(f"\nACCEPTANCE 3: PASS - 25 trees, worst relative deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_model_generator_oracles():
    t0 = time.time()
    worst = 0.0
    for beta in (0.5 * BETA_C_2D, BETA_C_2D, 2.0 * BETA_C_2D):
        g = ising_open_patch(2, beta, (4, 4))
        z = float(contract(g.net))
        worst = max(worst, abs(z - brute_force_ising(2, beta, (4, 4))) / z)
    for beta in (0.5 * BETA_C_3D, BETA_C_3D, 2.0 * BETA_C_3D):
        g = ising_open_patch(3, beta, (2, 2, 4))
        z = float(contract(g.net))
        worst = max(worst, abs(z - brute_force_ising(3, beta, (2, 2, 4))) / z)
    assert worst < 1e-12

    a = aklt_peps_tensor()
    psi = np.einsum("aumlh,bvnhr,cmwxk,dnykz->abcduvwylxrz", a, a, a, a)
    norm = float(np.sum(psi**2))
    ident = np.eye(2).reshape(-1)
    caps = {(g_, s): ident for g_ in range(2) for s in (0, 1)}
    grid = capped_patch(aklt_norm_tensor(), (2, 2), caps)
    aklt_err = abs(float(contract(grid.net)) - norm) / norm
    assert aklt_err < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 4: PASS - Ising spin sums to {worst:.2e} (< 1e-12), "
          f"AKLT 2x2 norm to {aklt_err:.2e} (< 1e-10) in {elapsed:.0f}s")


def _median_errors(records, model, methods):
    out = {}
    for m in methods:
        errs = [r.error for r in records
                if r.model == model and r.method == m and r.seed != "median"
                and not math.isnan(r.error)]
        out[m] = float(np.median(errs))
    return out


def test_criterion_5_accuracy_hierarchy():
    t0 = time.time()
    trials = dict(doubleloop=10, grid3x3=10, open2x3=8, cube222=6)
    headline = dict(doubleloop="pne", grid3x3="pne-chi5", open2x3="pne-chi5", cube222="pne-chi5")
    classes = dict(
        doubleloop=("ising2d", "aklt", "random"),
        grid3x3=("ising2d", "aklt", "random"),
        open2x3=("ising2d", "aklt", "random"),
        cube222=("ising3d", "random3d"),
    )
    summary = []
    for suite in ("doubleloop", "grid3x3", "open2x3", "cube222"):
        result = run_suite(suite, trials=trials[suite], seed=RNG_BASE)
        assert result.identities_ok
        for model in classes[suite]:
            med = _median_errors(result.records, model, ["bp", headline[suite]])
            assert med[headline[suite]] <= 0.1 * med["bp"], (suite, model, med)
            summary.append(f"{suite}/{model}: pne {med[headline[suite]]:.1e} vs bp {med['bp']:.1e}")
        if suite == "grid3x3":
            for model in classes[suite]:
                med = _median_errors(result.records, model, ["pne-chi5", "pne-chi4"])
                assert med["pne-chi5"] <= med["pne-chi4"], (model, med)
    elapsed = time.time() - t0
    assert elapsed < 600
    print("\nACCEPTANCE 5: PASS - " + "; ".join(summary) + f" ({elapsed:.0f}s)")


def test_criterion_6_residue_degree_diagnostics():
    t0 = time.time()
    g = random_grid((2, 3), 2, seed=0)
    single = [Partition(id=0, edges=(g.v_edge(0, 0),), projector=Factorized((e0col(2),)))]
    exp = build_linear(g.net, single)
    got_single = residue_degrees(exp, max_degree=7)
    assert got_single == [4, 6, 7]

    three = [Partition(id=k, edges=(g.v_edge(0, c),), projector=Factorized((e0col(2),)))
             for k, c in enumerate(range(3))]
    got_three = residue_degrees(build_linear(g.net, three), max_degree=7)
    assert got_three == [7]

    g9 = random_grid((3, 3), 2, seed=0)
    four = [Partition(id=k, edges=(e,), projector=Factorized((e0col(2),)))
            for k, e in enumerate([g9.v_edge(0, 0), g9.v_edge(0, 2), g9.v_edge(1, 0), g9.v_edge(1, 2)])]
    got_four = residue_degrees(build_linear(g9.net, four), max_degree=10)
    assert got_four == [8] + [10] * 6
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"\nACCEPTANCE 6: PASS - degrees {got_single}, {got_three}, "
          f"{{8, 10x6}} reproduced in {elapsed:.1f}s")


def test_criterion_7_combinatorial_counting():
    g = random_grid((3, 3), 2, seed=1)
    pre = build_preset("grid3x3-chi4", g, projectors="random", seed=0)
    principal = [t for t in pre.expansion.terms if sum(x == "P" for x in t.pattern) == 1]
    subleading = [t for t in pre.expansion.terms if sum(x == "P" for x in t.pattern) > 1]
    assert len(principal) == 6
    assert len(subleading) == 57
    print(f"\nACCEPTANCE 7: PASS - 6 principal + {len(subleading)} sub-leading terms")


@pytest.mark.filterwarnings("default:.*floored during weight update:UserWarning")
def test_criterion_8_degenerate_fixed_point_rescue():
    t0 = time.time()
    r1_at_07 = None
    r2_errors = {}
    for t_over_tc in (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2):
        beta = BETA_C_2D / t_over_tc
        patch = ising_open_patch(2, beta, (12, 12))
        g = block(patch, (4, 4))
        exact = float(contract(g.net))
        if abs(t_over_tc - 0.7) < 1e-9:
            pre1 = build_preset("grid3x3-chi5", g, projectors="bp",
                                bp_kwargs=dict(max_iter=6000, tol=1e-11))
            r1_at_07 = rel_error(exact, float(evaluate(pre1.expansion).value))
        ws = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=400)
        assert ws.converged
        pre2 = build_preset("grid3x3-chi5", g, projectors="weights", rank=2, weight_state=ws)
        val = float(evaluate(pre2.expansion).value) * pre2.scale
        r2_errors[t_over_tc] = rel_error(exact, val)
    assert r1_at_07 is not None and r1_at_07 > 0.2
    assert all(err < 1e-5 for err in r2_errors.values()), r2_errors
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\nACCEPTANCE 8: PASS - rank-1 error {r1_at_07:.2f} at 0.7 T_C; rank-2 "
          f"errors max {max(r2_errors.values()):.1e} (< 1e-5) over T/T_C in [0.6, 1.2] "
          f"({elapsed:.0f}s)")


def test_criterion_9_infinite_lattice_convergence():
    t0 = time.time()
    beta = 0.9 * BETA_C_2D
    f_exact = ising_free_energy_2d(beta)
    spin_unit = ising_unit_tensor(2, beta)
    blocked = block_unit(spin_unit, (2, 2)).materialize()
    ctx = prepare_strips(blocked)
    errs = {}
    for width in (2, 3, 4, 5, 6):
        res = free_energy(blocked, width, axes="vh", mode="all", ctx=ctx)
        errs[width] = abs((res.value / 4.0 - f_exact) / f_exact)
    widths = sorted(errs)
    assert all(errs[b] < errs[a] for a, b in zip(widths, widths[1:])), errs
    # Cylinder reference: exact contraction of the spin model on a
    # circumference-L cylinder (see CHANGES.md for the blocked-unit
    # numbers, which cross PNE in this temperature window from L = 5).
    cyl = {}
    for width in (2, 4, 6):
        cyl[width] = abs((cylinder_baseline(spin_unit, width) - f_exact) / f_exact)
        assert errs[width] < cyl[width], (width, errs[width], cyl[width])
    elapsed = time.time() - t0
    assert elapsed < 600
    strip_txt = ", ".join(f"L{w}:{errs[w]:.1e}" for w in widths)
    print(f"\nACCEPTANCE 9: PASS - strip errors monotone ({strip_txt}); beats the "
          f"circumference-L spin cylinder at L=2,4,6 ({elapsed:.0f}s)")


def test_criterion_10_higher_rank_convergence():
    t0 = time.time()
    trials = 30
    res = {}
    for t in range(trials):
        for shape, tag, single, sranks, multi in [
            ((2, 3), "2x3", "doubleloop-single", (2, 4, 6, 8), "doubleloop-2col"),
            ((3, 3), "3x3", "grid3x3-single", (4, 8, 12, 16), "grid3x3-chi5"),
        ]:
            g = make_instance("random", shape, seed=RNG_BASE + t)
            exact = float(contract(g.net))
            ws = run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=300)
            if not ws.converged:
                continue
            for r in sranks:
                p = build_preset(single, g, projectors="weights", rank=r, weight_state=ws)
                res.setdefault((tag, "single", r), []).append(
                    rel_error(exact, float(evaluate(p.expansion).value) * p.scale))
            for r in (1, 2, 3, 4):
                p = build_preset(multi, g, projectors="weights", rank=r, weight_state=ws)
                res.setdefault((tag, "multi", r), []).append(
                    rel_error(exact, float(evaluate(p.expansion).value) * p.scale))
    med = {k: float(np.median(v)) for k, v in res.items()}
    for tag, sranks in (("2x3", (2, 4, 6, 8)), ("3x3", (4, 8, 12, 16))):
        s = [med[(tag, "single", r)] for r in sranks]
        m = [med[(tag, "multi", r)] for r in (1, 2, 3, 4)]
        assert all(b <= a for a, b in zip(s, s[1:])), (tag, "single", s)
        assert all(b <= a for a, b in zip(m, m[1:])), (tag, "multi", m)
    # Per instance as well: a median step sits near seed-to-seed noise, so
    # more than half of the instances must improve at every rank step.
    improved = {}
    for tag, sranks in (("2x3", (2, 4, 6, 8)), ("3x3", (4, 8, 12, 16))):
        for kind, ranks in (("single", sranks), ("multi", (1, 2, 3, 4))):
            for a, b in zip(ranks, ranks[1:]):
                pairs = list(zip(res[(tag, kind, a)], res[(tag, kind, b)]))
                n = sum(eb < ea for ea, eb in pairs)
                improved[(tag, kind, a, b)] = (n, len(pairs))
                assert 2 * n > len(pairs), (tag, kind, a, b, n, len(pairs))
    # Matched flop budget on the 3x3: multi with rank k costs what single with
    # rank 4k does. The 4k = 16 pair is excluded: at desk scale chi=16 the
    # rank-16 single projector is the identity, i.e. exact contraction rather
    # than an approximation (see CHANGES.md).
    budget = {}
    for k, sr in zip((1, 2, 3), (4, 8, 12)):
        mm, ss = med[("3x3", "multi", k)], med[("3x3", "single", sr)]
        budget[k] = (mm, ss)
        assert mm <= ss, (k, mm, ss)
    elapsed = time.time() - t0
    assert elapsed < 600
    txt = "; ".join(f"k={k}: {mm:.1e} <= {ss:.1e}" for k, (mm, ss) in budget.items())
    fewest = min(improved.values())
    print(f"\nACCEPTANCE 10: PASS - medians non-increasing in rank; at least {fewest[0]}/"
          f"{fewest[1]} instances improve at every rank step; matched-budget {txt} ({elapsed:.0f}s)")


def test_criterion_11_determinism():
    t0 = time.time()
    a = run_suite("doubleloop", trials=2, seed=11)
    b = run_suite("doubleloop", trials=2, seed=11)
    c = run_suite("doubleloop", trials=2, seed=11, workers=3)
    assert a.csv == b.csv
    assert a.csv == c.csv
    d = run_suite("rank-sweep", trials=1, seed=11)
    e = run_suite("rank-sweep", trials=1, seed=11, workers=2)
    assert d.csv == e.csv
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 11: PASS - byte-identical CSV across reruns and worker counts "
          f"({elapsed:.0f}s)")
