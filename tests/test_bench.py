import numpy as np
import pytest

from pne.bench import (
    BenchError,
    make_instance,
    records_to_csv,
    rel_error,
    run_suite,
    suite_names,
    svd_baseline_5x4,
    tensor_error,
)
from pne.models import random_grid
from pne.network import contract


class TestRelError:
    def test_equal(self):
        assert rel_error(2.0, 2.0) == 0.0

    def test_half(self):
        assert rel_error(2.0, 1.0) == 0.5

    def test_signs(self):
        assert rel_error(-3.0, -3.3) == pytest.approx(0.1)

    def test_zero_reference(self):
        with pytest.raises(BenchError):
            rel_error(0.0, 1.0)


class TestTensorError:
    def test_identical(self):
        t = np.arange(6.0).reshape(2, 3)
        assert tensor_error(t, t) == 0.0

    def test_zero_approx(self):
        t = np.arange(1.0, 7.0).reshape(2, 3)
        assert tensor_error(t, np.zeros_like(t)) == pytest.approx(1.0)

    def test_matches_flat_formula(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        want = np.linalg.norm((a - b).ravel()) / np.linalg.norm(a.ravel())
        assert tensor_error(a, b) == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(BenchError):
            tensor_error(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSvdBaseline:
    def test_full_rank_exact(self):
        g = random_grid((5, 4), 3, bias=0.2, seed=0)
        exact = float(contract(g.net))
        assert rel_error(exact, svd_baseline_5x4(g, chi_keep=9)) < 1e-10

    def test_monotone_in_kept_rank(self):
        better = 0
        for seed in range(10):
            g = random_grid((5, 4), 3, bias=0.2, seed=100 + seed)
            exact = float(contract(g.net))
            e1 = rel_error(exact, svd_baseline_5x4(g, 1))
            e3 = rel_error(exact, svd_baseline_5x4(g, 3))
            better += e3 <= e1
        assert better >= 8

    def test_wrong_geometry(self):
        g = random_grid((3, 3), 3, seed=0)
        with pytest.raises(BenchError):
            svd_baseline_5x4(g, 3)


class TestSuites:
    def test_names(self):
        names = suite_names()
        for expected in ("doubleloop", "grid3x3", "cube222", "open2x3",
                         "degenerate-ising", "rank-sweep", "infinite"):
            assert expected in names

    def test_unknown(self):
        with pytest.raises(BenchError, match="unknown suite"):
            run_suite("nope")

    def test_doubleloop_deterministic_and_worker_invariant(self):
        a = run_suite("doubleloop", trials=2, seed=3)
        b = run_suite("doubleloop", trials=2, seed=3)
        c = run_suite("doubleloop", trials=2, seed=3, workers=4)
        assert a.identities_ok
        assert a.csv == b.csv == c.csv
        assert "median" in a.csv

    def test_doubleloop_hierarchy_smoke(self):
        result = run_suite("doubleloop", trials=2, seed=0)
        by = {}
        for r in result.records:
            if r.model == "ising2d" and r.seed != "median":
                by[r.method] = r.error
        assert by["pne"] < by["bp"]

    def test_csv_round_structure(self):
        result = run_suite("doubleloop", trials=1, seed=1)
        lines = result.csv.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "suite" and "error" in header
        assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_failed_svd_row_keeps_the_method_name(monkeypatch):
    # A failed svd-baseline row is named like a good one, so the medians
    # group the two.
    from pne import bench

    calls = []

    def baseline(g, chi_keep):
        calls.append(1)
        if len(calls) == 4:
            raise BenchError("baseline failed")
        return svd_baseline_5x4(g, chi_keep)

    monkeypatch.setattr(bench, "make_instance", lambda kind, shape, *a, seed=0, **kw:
                        random_grid(shape, 2, bias=0.2, seed=seed))
    monkeypatch.setattr(bench, "svd_baseline_5x4", baseline)
    records = run_suite("grid5x4", trials=2).records
    svd_rows = [(r.model, r.seed, r.converged) for r in records if r.method == "svd-baseline"]
    assert svd_rows == [("ising2d", "-", True), ("aklt", "-", True), ("random", "0", True),
                        ("random", "1", False), ("random", "median", False)]
    assert not [r for r in records if r.method == "svd"]


class TestMakeInstance:
    def test_random_is_seed_deterministic(self):
        a = make_instance("random", (2, 3), seed=5)
        b = make_instance("random", (2, 3), seed=5)
        for n in a.net.nodes:
            np.testing.assert_array_equal(a.net.nodes[n], b.net.nodes[n])

    def test_chi16(self):
        g = make_instance("random", (2, 3), seed=1)
        assert all(e.dim == 16 for e in g.net.edges.values())
