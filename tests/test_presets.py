import numpy as np
import pytest

from pne.belief import run_bp
from pne.expansion import evaluate, evaluate_residue
from pne.models import BETA_C_2D, ModelSpec, finite_patch, random_grid
from pne.network import contract
from pne.presets import OPEN2X3_AXES, PRESETS, PresetError, build_preset, preset_names
from pne.weights import rank_stage

CHI = 3

GEOMETRIES = {
    "doubleloop-3v": ((2, 3), frozenset()),
    "doubleloop-cut1": ((2, 3), frozenset()),
    "doubleloop-single": ((2, 3), frozenset()),
    "doubleloop-2col": ((2, 3), frozenset()),
    "grid3x3-chi5": ((3, 3), frozenset()),
    "grid3x3-chi4": ((3, 3), frozenset()),
    "grid3x3-single": ((3, 3), frozenset()),
    "cube222-chi5": ((2, 2, 2), frozenset()),
    "cube222-chi3": ((2, 2, 2), frozenset()),
    "open2x3-chi5": ((2, 3), OPEN2X3_AXES),
    "open2x3-chi4": ((2, 3), OPEN2X3_AXES),
    "grid5x4-chi6": ((5, 4), frozenset()),
    "grid4x3-recursive": ((4, 3), frozenset()),
}

EXPECTED_PEAK_EXPONENT = {
    "doubleloop-3v": 3.0,
    "doubleloop-cut1": 3.0,
    "grid3x3-chi5": 5.0,
    "grid3x3-chi4": 4.0,
    "cube222-chi5": 5.0,
    "cube222-chi3": 3.0,
    "open2x3-chi5": 5.0,
    "open2x3-chi4": 4.0,
    "grid5x4-chi6": 6.0,
    "grid4x3-recursive": 4.0,
}

TERM_COUNTS = {
    "doubleloop-3v": 3,
    "doubleloop-cut1": 1,
    "grid3x3-chi5": 4,
    "grid3x3-chi4": 63,
    "cube222-chi5": 5,
    "cube222-chi3": 7,
    "open2x3-chi5": 5,
    "open2x3-chi4": 3,
    "grid5x4-chi6": 7,
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_random_projector_exactness(name):
    shape, open_axes = GEOMETRIES[name]
    g = random_grid(shape, CHI, bias=0.2, seed=17, open_axes=open_axes)
    pre = build_preset(name, g, projectors="random", seed=3)
    val = evaluate(pre.expansion).value
    res = evaluate_residue(pre.expansion, cross_check=False)
    exact = contract(g.net)
    err = np.linalg.norm(np.asarray(val + res - exact).ravel())
    assert err / max(np.linalg.norm(np.asarray(exact).ravel()), 1e-300) < 1e-10


@pytest.mark.parametrize("name", preset_names())
def test_recorded_geometry_passes_the_random_identity(name):
    # Each PRESETS entry records its lattice shape and open legs; a random
    # grid built from them carries the preset, joint pairs included.
    shape, open_axes, _ = PRESETS[name]
    assert GEOMETRIES.get(name, (shape, open_axes)) == (shape, open_axes)
    g = random_grid(shape, CHI, bias=0.2, seed=29, open_axes=open_axes)
    pre = build_preset(name, g, projectors="random", seed=4)
    val = evaluate(pre.expansion).value
    res = evaluate_residue(pre.expansion, cross_check=False)
    exact = contract(g.net)
    err = np.linalg.norm(np.asarray(val + res - exact).ravel())
    assert err / max(np.linalg.norm(np.asarray(exact).ravel()), 1e-300) < 1e-10


@pytest.mark.parametrize("name", sorted(TERM_COUNTS))
def test_term_counts(name):
    shape, open_axes = GEOMETRIES[name]
    g = random_grid(shape, CHI, bias=0.2, seed=5, open_axes=open_axes)
    pre = build_preset(name, g, projectors="random", seed=1)
    assert len(pre.expansion.terms) == TERM_COUNTS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_PEAK_EXPONENT))
def test_cost_exponents(name):
    shape, open_axes = GEOMETRIES[name]
    g = random_grid(shape, CHI, bias=0.2, seed=5, open_axes=open_axes)
    pre = build_preset(name, g, projectors="random", seed=1)
    if name == "grid3x3-chi4":
        # principal terms carry the quoted cost; deeper activation patterns
        # only get cheaper
        principal = [t for t in pre.expansion.terms if sum(x == "P" for x in t.pattern) == 1]
        peak = max(t.plan.cost_exponent(CHI) for t in principal)
    else:
        peak = pre.expansion.peak_cost_exponent(CHI)
    assert peak <= EXPECTED_PEAK_EXPONENT[name] + 1e-9


def test_cube_chi4_joint_pairs():
    g = random_grid((2, 2, 2), CHI, bias=0.5, seed=21)
    pre = build_preset("cube222-chi4", g, projectors="bp", bp_kwargs=dict(max_iter=4000))
    assert len(pre.expansion.partitions) == 3
    assert len(pre.expansion.terms) == 7
    val = evaluate(pre.expansion).value
    res = evaluate_residue(pre.expansion, cross_check=False)
    exact = contract(g.net)
    assert abs(float(val) + float(res) - float(exact)) / abs(float(exact)) < 1e-10
    principal = [t for t in pre.expansion.terms if sum(x == "P" for x in t.pattern) == 1]
    assert max(t.plan.cost_exponent(CHI) for t in principal) <= 4.0 + 1e-9


def test_recursive_bp_exactness():
    g = random_grid((4, 3), CHI, bias=0.5, seed=0)
    pre = build_preset("grid4x3-recursive", g, projectors="bp")
    val = evaluate(pre.expansion).value
    res = evaluate_residue(pre.expansion, cross_check=False)
    exact = float(contract(g.net))
    assert abs(float(val) + float(res) - exact) / abs(exact) < 1e-10
    assert len(pre.expansion.residues) == 3
    assert pre.expansion.peak_cost_exponent(CHI) <= 4.0 + 1e-9


def test_recursive_source_error_propagates(monkeypatch):
    # BP converges on the lattice but not on the over-budget terms; the
    # source's own error surfaces instead of a generic depth-cap report.
    import pne.presets

    g = random_grid((4, 3), CHI, bias=0.5, seed=0)
    state = run_bp(g.net)
    # A warm start converges in one sweep, so the fake keeps it and asks
    # for a residual no sweep can reach.
    monkeypatch.setattr(pne.presets, "run_bp",
                        lambda net, **kw: run_bp(net, max_iter=1, tol=0.0, initial=kw["initial"]))
    with pytest.raises(PresetError, match="did not converge"):
        build_preset("grid4x3-recursive", g, projectors="bp", bp_state=state)


def _recursive_grid(kind, param):
    if kind == "random":
        return random_grid((4, 3), CHI, bias=0.5, seed=param)
    spec = ModelSpec(kind=kind, beta=param * BETA_C_2D, block_factors=(2, 2), patch=(4, 3))
    return finite_patch(spec)


@pytest.mark.parametrize("kind, param", [("random", s) for s in range(5)]
                         + [("ising2d", 0.7), ("ising2d", 1.2)])
def test_recursive_sub_term_bp_starts_at_its_fixed_point(monkeypatch, kind, param):
    # In the parent's symmetrized gauge every message is e0, and e0 is still
    # a fixed point of each term: each sub-term run stops within 2 sweeps
    # and lands where a cold start does.
    import pne.presets

    g = _recursive_grid(kind, param)
    state = run_bp(g.net)

    def build(start):
        runs = []
        monkeypatch.setattr(pne.presets, "run_bp",
                            lambda net, **kw: runs.append(run_bp(net, **start(kw))) or runs[-1])
        pre = build_preset("grid4x3-recursive", g, projectors="bp", bp_state=state)
        return float(evaluate(pre.expansion).value), runs

    warm, warm_runs = build(lambda kw: kw)
    cold, cold_runs = build(lambda kw: {k: v for k, v in kw.items() if k != "initial"})
    assert len(warm_runs) == len(cold_runs) == 2
    assert all(r.converged and r.iterations <= 2 for r in warm_runs)
    assert all(r.converged and r.iterations > 2 for r in cold_runs)
    assert abs(warm - cold) <= 1e-12 * abs(cold)


def test_unknown_preset():
    g = random_grid((2, 3), CHI, seed=0)
    with pytest.raises(PresetError, match="unknown preset"):
        build_preset("nope", g)


def test_wrong_geometry():
    g = random_grid((2, 2), CHI, seed=0)
    with pytest.raises(PresetError, match="expects"):
        build_preset("grid3x3-chi5", g)


def test_open_legs_must_match_the_preset():
    closed = random_grid((2, 3), CHI, bias=0.2, seed=1)
    with pytest.raises(PresetError, match=r"open2x3-chi4 expects open legs \[\(\(1, 0\), .*\], got \[\]$"):
        build_preset("open2x3-chi4", closed, projectors="random")
    opened = random_grid((2, 3), CHI, bias=0.2, seed=1, open_axes=OPEN2X3_AXES)
    with pytest.raises(PresetError, match=r"doubleloop-3v expects open legs \[\], got \[\(\(1, 0\), .*\]$"):
        build_preset("doubleloop-3v", opened, projectors="random")


def test_bp_rank_restriction():
    g = random_grid((2, 3), CHI, bias=0.5, seed=1)
    with pytest.raises(PresetError, match="rank 1"):
        build_preset("doubleloop-3v", g, projectors="bp", rank=2)


@pytest.mark.parametrize("projectors", ["bp", "weights", "random"])
@pytest.mark.parametrize("rank", [0, -1])
def test_rank_below_one_rejected_before_any_source_runs(monkeypatch, projectors, rank):
    import pne.presets

    def no_source(*args, **kwargs):
        raise AssertionError("a projector source ran")

    monkeypatch.setattr(pne.presets, "source_projectors", no_source)
    g = random_grid((3, 3), CHI, seed=0)
    with pytest.raises(PresetError, match=f"rank {rank} must be at least 1"):
        build_preset("grid3x3-chi4", g, projectors=projectors, rank=rank)


def test_weights_rank2():
    g = random_grid((2, 3), 4, bias=0.2, seed=2)
    pre = build_preset("doubleloop-3v", g, projectors="weights", rank=2)
    assert pre.scale == float(np.exp(rank_stage(pre.weight_state).log_prefactor))
    val = float(evaluate(pre.expansion).value) * pre.scale
    res = float(evaluate_residue(pre.expansion, cross_check=False)) * pre.scale
    exact = float(contract(g.net))
    assert abs(val + res - exact) / abs(exact) < 1e-9


def test_preset_names_listed():
    names = preset_names()
    assert "grid3x3-chi5" in names and "cube222-chi4" in names
