"""End-to-end runs of the ``pne`` command line in a temporary directory."""

import re

import pytest

from pne.belief import BPError
from pne.cli import main
from pne.expansion import evaluate
from pne.io import ContainerError, save_network
from pne.models import ModelSpec, finite_patch
from pne.presets import PresetError, build_preset


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


def test_expand_rejects_a_lattice_the_preset_does_not_fit(tmp_path, capsys):
    path = tmp_path / "g.pnec"
    _model(path, "2x3")
    with pytest.raises(PresetError, match=r"expects a \(3, 3\) lattice"):
        main(["expand", str(path), "--preset", "grid3x3-chi5", "--projector", "random", "--exact"])
    assert "value" not in capsys.readouterr().out


def test_expand_needs_a_recorded_layout(tmp_path):
    path = tmp_path / "net.pnec"
    save_network(path, finite_patch(ModelSpec(kind="random", patch=(3, 3), chi=2)).net)
    with pytest.raises(ContainerError):
        main(["expand", str(path), "--preset", "grid3x3-chi5", "--projector", "random"])


@pytest.mark.parametrize("damping", ["1.0", "-0.2"])
def test_bp_rejects_damping_outside_unit_interval(tmp_path, capsys, damping):
    path = tmp_path / "g.pnec"
    _model(path, "3x3", seed=1)
    with pytest.raises(BPError, match="damping"):
        main(["bp", str(path), "--damping", damping])
    assert "converged" not in capsys.readouterr().out
