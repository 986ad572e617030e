"""End-to-end runs of the ``pne`` command line in a temporary directory."""

import re

import pytest

from pne.bench import make_instance
from pne.cli import main
from pne.expansion import evaluate
from pne.io import save_grid, save_network
from pne.models import ModelSpec, finite_patch
from pne.network import TensorNetwork
from pne.presets import build_preset


def _model(path, patch, chi=3, seed=0):
    assert main(["model", "--model", "random", "--patch", patch, "--chi", str(chi),
                 "--seed", str(seed), "--out", str(path)]) == 0


def _number(label, text):
    return float(re.search(rf"^{label} = (\S+)", text, re.M).group(1))


def test_model_contract_bp_expand_bench(tmp_path, capsys):
    path = tmp_path / "g.pnec"
    _model(path, "3x3", seed=5)
    assert main(["contract", str(path)]) == 0
    assert main(["bp", str(path)]) == 0
    assert "converged =" in capsys.readouterr().out

    assert main(["expand", str(path), "--preset", "grid3x3-chi5", "--projector", "random",
                 "--exact", "--residue"]) == 0
    out = capsys.readouterr().out
    value, exact = _number("expansion value", out), _number("exact", out)
    residue = _number(r"residue \(direct complement evaluation\)", out)
    assert abs(value + residue - exact) <= 1e-10 * abs(exact)
    # The file's layout places the preset where it sits on the generator grid.
    grid = finite_patch(ModelSpec(kind="random", patch=(3, 3), chi=3, seed=5))
    pre = build_preset("grid3x3-chi5", grid, projectors="random")
    assert value == float(evaluate(pre.expansion).value)

    assert main(["bench", "list"]) == 0
    assert "grid5x4" in capsys.readouterr().out.split()


def test_expand_term_values_carry_the_weight_prefactor(tmp_path, capsys):
    # Weight projectors scale the network by a prefactor; the printed terms
    # and residue carry it like the printed total and exact value.
    path = tmp_path / "g.pnec"
    save_grid(path, make_instance("random", (3, 3), seed=2))
    assert main(["expand", str(path), "--preset", "grid3x3-chi5", "--projector", "weights",
                 "--exact", "--residue"]) == 0
    out = capsys.readouterr().out
    terms = re.findall(r"^  [IPQ]+  coeff (\S+)  value (\S+)$", out, re.M)
    assert len(terms) == 4
    value, exact = _number("expansion value", out), _number("exact", out)
    assert abs(sum(int(c) * float(v) for c, v in terms) - value) <= 1e-12 * abs(value)
    residue = _number(r"residue \(direct complement evaluation\)", out)
    assert abs(value + residue - exact) <= 1e-10 * abs(exact)


def _fails(capsys, argv, message):
    """``main(argv)`` reports one ``pne: error:`` line naming ``message`` on
    stderr, exits 2 and prints nothing on stdout."""
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"pne: error: .*{message}.*\n", captured.err)


def test_expand_rejects_a_lattice_the_preset_does_not_fit(tmp_path, capsys):
    path = tmp_path / "g.pnec"
    _model(path, "2x3")
    _fails(capsys, ["expand", str(path), "--preset", "grid3x3-chi5", "--projector", "random", "--exact"],
           r"expects a \(3, 3\) lattice")


def test_expand_needs_a_recorded_layout(tmp_path, capsys):
    path = tmp_path / "net.pnec"
    save_network(path, finite_patch(ModelSpec(kind="random", patch=(3, 3), chi=2)).net)
    _fails(capsys, ["expand", str(path), "--preset", "grid3x3-chi5", "--projector", "random"],
           "layout")


@pytest.mark.parametrize("projector", ["weights", "random"])
def test_expand_rejects_rank_below_one(tmp_path, capsys, projector):
    path = tmp_path / "g.pnec"
    _model(path, "3x3")
    _fails(capsys, ["expand", str(path), "--preset", "grid3x3-chi4", "--projector", projector,
                    "--rank", "0"], "rank 0 must be at least 1")


@pytest.mark.parametrize("damping", ["1.0", "-0.2"])
def test_bp_rejects_damping_outside_unit_interval(tmp_path, capsys, damping):
    path = tmp_path / "g.pnec"
    _model(path, "3x3", seed=1)
    _fails(capsys, ["bp", str(path), "--damping", damping], "damping")


def test_contract_rejects_an_empty_network(tmp_path, capsys):
    path = tmp_path / "empty.pnec"
    save_network(path, TensorNetwork(nodes={}, edges={}))
    _fails(capsys, ["contract", str(path)], "network has no nodes")


def test_model_rejects_a_non_positive_patch(tmp_path, capsys):
    out = tmp_path / "m.pnec"
    _fails(capsys, ["model", "--model", "ising2d", "--beta", "0.4", "--patch", "0x3", "--out", str(out)],
           r"patch extents \(0, 3\) must be positive")
    assert not out.exists()


def test_model_names_the_blocking_factor_it_rejects(tmp_path, capsys):
    out = tmp_path / "m.pnec"
    _fails(capsys, ["model", "--model", "ising2d", "--beta", "0.4", "--boundary", "open",
                    "--patch", "2x3", "--block", "0x2", "--out", str(out)],
           r"blocking factors \(0, 2\) must be positive")
    assert not out.exists()



@pytest.mark.parametrize("argv, flag", [
    (["model", "--model", "ising2d", "--beta", "0.4", "--patch", "3xa"], "--patch"),
    (["model", "--model", "ising2d", "--beta", "0.4", "--patch", "2x2", "--block", "twoxtwo"], "--block"),
    (["infinite", "--block", "2x2.5"], "--block"),
])
def test_malformed_shape_is_a_usage_error_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "m.pnec"
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(out)] if argv[0] == "model" else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()
