"""The benchmark's four workloads and their correctness checks.

Each workload turns its seed into a stream of instances. Instance ``k`` is
generated, solved with `pne`'s public functions and verified against an
exact reference; :attr:`Workload.cycle` instances make one round of the
workload's instance kinds, and a timed loop always stops at the end of a
round so every run measures the same mix. The program only ever sees the
generated networks.
"""

from __future__ import annotations

import math

import numpy as np

from pne import belief, expansion, infinite, models, network, presets, weights
from pne import bench as pne_bench

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def instance_seed(seed: int, k: int) -> int:
    """Independent generator seed of instance ``k`` of a workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def rel_diff(exact: float, value: float) -> float:
    return abs(value - exact) / abs(exact) if exact else math.inf


class Checks:
    """Named correctness checks: how often each ran and each failed."""

    def __init__(self):
        self.runs: dict[str, int] = {}
        self.failures: dict[str, int] = {}

    def check(self, name: str, ok: bool) -> bool:
        ok = bool(ok)
        self.runs[name] = self.runs.get(name, 0) + 1
        if not ok:
            self.failures[name] = self.failures.get(name, 0) + 1
        return ok

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def boundary_contract(g: models.GridNetwork) -> float:
    """Exact value of a closed 2D grid network, absorbing the nodes row by
    row into a boundary tensor with plain ``np.tensordot``. It shares no code
    with `pne`'s planner or contraction, so it serves as their reference."""
    rows, cols = g.shape
    state = np.ones(())
    labels: list[int] = []
    for r in range(rows):
        for c in range(cols):
            nid = g.node_of[(r, c)]
            t_labels = g.net.node_axes(nid)
            shared = [e for e in labels if e in t_labels]
            state = np.tensordot(state, g.net.nodes[nid],
                                 axes=([labels.index(e) for e in shared],
                                       [t_labels.index(e) for e in shared]))
            labels = [e for e in labels if e not in shared] + [e for e in t_labels if e not in shared]
    return float(state)


class Workload:
    name = ""
    cycle = 1
    check_names: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def generate(self, k: int):
        raise NotImplementedError

    def solve(self, inst):
        raise NotImplementedError

    def verify(self, inst, answer, checks: Checks) -> tuple[bool, float | None]:
        """Run the instance's checks; returns (all passed, approximation error)."""
        raise NotImplementedError

    def warm_up(self, checks: Checks) -> None:
        """Untimed first pass over the workload's code paths."""
        inst = self.generate(-1)
        self.verify(inst, self.solve(inst), checks)

    def final_checks(self, checks: Checks) -> None:
        """Checks run once per run, after the timed loop."""


class ExpandFinite(Workload):
    """The paper's pipeline on random chi=16 capped patches: BP projectors,
    a partition preset, evaluation, and the exact contraction as reference."""

    name = "expand-finite"
    PRESETS = (("doubleloop-3v", (2, 3)), ("grid3x3-chi4", (3, 3)), ("grid4x3-recursive", (4, 3)))
    cycle = len(PRESETS)
    check_names = ("expand.vs_exact", "expand.identity")

    def generate(self, k):
        # The warm-up instance (k < 0) is the cheap 2x3 preset on its own seed.
        preset, shape = self.PRESETS[max(k, 0) % self.cycle]
        seed = instance_seed(self.seed, k if k >= 0 else 2**31)
        return preset, pne_bench.make_instance("random", shape, bias=0.2, seed=seed)

    def solve(self, inst):
        preset, g = inst
        state = belief.run_bp(g.net, tol=1e-12, max_iter=4000)
        pre = presets.build_preset(preset, g, projectors="bp", bp_state=state)
        return float(expansion.evaluate(pre.expansion, workers=1).value) * pre.scale

    def verify(self, inst, answer, checks):
        _, g = inst
        err = rel_diff(float(network.contract(g.net)), answer)
        return checks.check("expand.vs_exact", err < 1e-6), err

    def final_checks(self, checks):
        """Per preset geometry: expansion + residue equals the exact value to
        1e-10 on a chi=3 random grid with random projectors (chi=3 keeps the
        dense residue affordable)."""
        for i, (preset, shape) in enumerate(self.PRESETS):
            g = models.random_grid(shape, 3, bias=0.2, seed=instance_seed(self.seed, 2**31 + 1 + i))
            pre = presets.build_preset(preset, g, projectors="random", rank=1, seed=self.seed)
            total = (expansion.evaluate(pre.expansion).value
                     + expansion.evaluate_residue(pre.expansion, cross_check=False))
            checks.check("expand.identity", rel_diff(float(network.contract(g.net)), float(total)) < 1e-10)


class StripInfinite(Workload):
    """Strip-expansion free energy of the infinite 2D Ising model, blocked
    2x2 (chi=4), against Onsager's exact solution."""

    name = "strip-infinite"
    WIDTHS = (2, 3, 4, 5, 6)
    check_names = ("strip.vs_onsager",)

    # beta/beta_c is drawn from [0.7, 1.2] less a window around 0.855: there
    # the uniform fixed point of the blocked unit slows down critically (it
    # needs 29k sweeps at 0.854 against a default cap of 4000), and
    # prepare_strips stops with a named InfiniteError.
    RANGES = ((0.7, 0.845), (0.865, 1.2))

    def generate(self, k):
        # A golden-ratio sequence with a seeded offset spreads the instances
        # evenly over the ranges, so every run length sees all of them.
        offset = np.random.default_rng(self.seed).random()
        x = ((offset + max(k, 0) * GOLDEN) % 1.0) * sum(hi - lo for lo, hi in self.RANGES)
        for lo, hi in self.RANGES:
            if x < hi - lo:
                break
            x -= hi - lo
        beta = min(lo + x, hi) * models.BETA_C_2D
        return beta, models.block_unit(models.ising_unit_tensor(2, beta), (2, 2)).materialize()

    def solve(self, inst):
        _, unit = inst
        ctx = infinite.prepare_strips(unit)
        return [infinite.free_energy(unit, w, axes="vh", mode="all", ctx=ctx).value / 4.0
                for w in self.WIDTHS]

    def verify(self, inst, answer, checks):
        beta, _ = inst
        exact = models.ising_free_energy_2d(beta)
        errs = [rel_diff(exact, f) for f in answer]
        # Widest strip within 1% and no worse than the narrowest.
        return checks.check("strip.vs_onsager", errs[-1] < 1e-2 and errs[-1] <= errs[0]), errs[-1]

    def warm_up(self, checks):
        _, unit = self.generate(0)
        infinite.free_energy(unit, 2, axes="vh", mode="all")


class GaugeSweep(Workload):
    """Gauge fixing with no expansion: BP on 12x12 grids in two regimes and
    weight passing on 4x4 grids."""

    name = "gauge-sweep"
    cycle = 3
    check_names = ("gauge.bp_converged", "gauge.wp_converged", "gauge.wp_vs_exact")

    def generate(self, k):
        kind = max(k, 0) % self.cycle
        seed = instance_seed(self.seed, k if k >= 0 else 2**31)
        if k < 0:
            return "bp", models.random_grid((4, 4), 4, bias=1.0, seed=seed).net
        if kind == 0:
            return "bp", pne_bench.make_instance("random", (12, 12), bias=0.2, seed=seed).net
        if kind == 1:
            # bias 1.0: chi=4 grids with bias 0.2 do not converge in 500 sweeps.
            return "bp", models.random_grid((12, 12), 4, bias=1.0, seed=seed).net
        return "wp", models.random_grid((4, 4), 4, bias=0.2, seed=seed).net

    def solve(self, inst):
        kind, net = inst
        if kind == "bp":
            state = belief.run_bp(net, tol=1e-10, max_iter=500)
            return belief.bp_scalar(net, state), state.converged
        state = weights.run_weight_passing(net, alpha=0.8, tol=1e-10, max_sweeps=400)
        return state.contract_value(), state.converged

    def verify(self, inst, answer, checks):
        kind, net = inst
        value, converged = answer
        if kind == "bp":
            return checks.check("gauge.bp_converged", converged and math.isfinite(value) and value != 0), None
        ok = checks.check("gauge.wp_converged", converged)
        err = rel_diff(float(network.contract(net)), value)
        return checks.check("gauge.wp_vs_exact", err < 1e-10) and ok, None

    def warm_up(self, checks):
        super().warm_up(checks)
        g = models.random_grid((3, 3), 3, bias=0.2, seed=instance_seed(self.seed, 2**31))
        weights.run_weight_passing(g.net, alpha=0.8, tol=1e-10, max_sweeps=400)


class ExactLarge(Workload):
    """Exact contraction of chi=16 6x5 capped patches, checked against an
    independent boundary contraction."""

    name = "exact-large"
    check_names = ("exact.vs_boundary",)

    def generate(self, k):
        shape = (6, 5) if k >= 0 else (3, 3)
        seed = instance_seed(self.seed, k if k >= 0 else 2**31)
        return pne_bench.make_instance("random", shape, bias=0.2, seed=seed)

    def solve(self, g):
        return float(network.contract(g.net))

    def verify(self, g, answer, checks):
        return checks.check("exact.vs_boundary", rel_diff(boundary_contract(g), answer) < 1e-10), None


WORKLOADS = {w.name: w for w in (ExpandFinite, StripInfinite, GaugeSweep, ExactLarge)}
