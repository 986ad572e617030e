import itertools
import math

import numpy as np
import pytest

import pne.infinite as infinite
from pne.infinite import (
    InfiniteError,
    StripContext,
    cylinder_baseline,
    free_energy,
    patch_scalar,
    prepare_strips,
    transfer_eigs,
)
from pne.models import (
    BETA_C_2D,
    aklt_norm_tensor,
    block_unit,
    capped_patch,
    ising_free_energy_2d,
    ising_unit_tensor,
    random_tensor,
    uniform_fixed_point,
)
from pne.network import contract
from pne.tensor import EigenConvergenceError, dominant_eig
from test_tensor import oracle_dominant_eig


def product_unit(p, q):
    """Rank-1 unit tensor: every correction in the strip expansion cancels."""
    return np.einsum("u,d,l,r->udlr", p, p, q, q)


class TestTransferEigs:
    def test_width_one_matches_dense(self):
        ctx = prepare_strips(ising_unit_tensor(2, 0.3))
        lam = transfer_eigs(ctx, [1])[1]
        e0 = ctx.e0()
        mat = np.einsum("udlr,l,r->ud", ctx.unit, e0, e0)
        dense = np.max(np.real(np.linalg.eigvals(mat)))
        np.testing.assert_allclose(lam, dense, rtol=1e-9)

    def test_product_unit_factorizes(self):
        unit = product_unit(np.array([1.0, 0.4]), np.array([0.9, 0.2]))
        ctx = prepare_strips(unit)
        lams = transfer_eigs(ctx, [1, 2, 3])
        np.testing.assert_allclose(lams[2], lams[1] ** 2, rtol=1e-9)
        np.testing.assert_allclose(lams[3], lams[1] ** 3, rtol=1e-9)

    def test_symmetric_tensor_lambda_equals_gamma(self):
        ctx = prepare_strips(ising_unit_tensor(2, 0.35))
        lams = transfer_eigs(ctx, [1, 2], axis=0)
        gams = transfer_eigs(ctx, [1, 2], axis=1)
        for k in (1, 2):
            np.testing.assert_allclose(lams[k], gams[k], rtol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_vacuum_start_escapes_a_subdominant_vacuum(self, axis):
        # T_1 = diag(0.5, 1.0) on both axes, and T_2 = T_1 (x) T_1: the BP
        # vacuum e0^{(x)k} is an exact eigenvector with 0.5**k, the dominant
        # value is 1. Krylov from the bare vacuum would stop at 0.5**k.
        unit = np.zeros((2, 2, 2, 2))
        unit[0, 0, 0, 0] = 0.5
        unit[1, 1, 0, 0] = 1.0
        unit[0, 0, 1, 1] = 1.0
        ctx = StripContext(unit=unit, log_site_scale=0.0)
        for lam in transfer_eigs(ctx, [1, 2], axis=axis).values():
            np.testing.assert_allclose(lam, 1.0, rtol=1e-12)

    def test_cache_keys_tol_and_max_iter(self):
        # A looser call must not answer a later tighter one from the cache.
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        ubp = uniform_fixed_point(blocked)
        ctx = prepare_strips(blocked, ubp)
        loose = transfer_eigs(ctx, [3], tol=1e-3)[3]
        tight = transfer_eigs(ctx, [3], tol=1e-14)[3]
        assert tight == transfer_eigs(prepare_strips(blocked, ubp), [3], tol=1e-14)[3]
        assert tight == pytest.approx(1.0431360084262555, rel=1e-14)
        assert abs(loose - tight) > 1e-9
        # a cap too small for this tol fails as it would in a fresh context
        with pytest.raises(EigenConvergenceError):
            transfer_eigs(ctx, [3], tol=1e-14, max_iter=2)
        # default calls keep their bits, whatever came before
        assert transfer_eigs(ctx, [3])[3] == transfer_eigs(prepare_strips(blocked, ubp), [3])[3]

    def test_dense_oracle_on_asymmetric_unit(self):
        unit = random_tensor((3,) * 4, bias=0.5, seed=1)
        ctx = prepare_strips(unit)
        e0 = ctx.e0()
        for axis in (0, 1):
            u = ctx.unit if axis == 0 else ctx.unit.transpose(2, 3, 0, 1)
            # width 2: (u0 u1) -> (d0 d1), the two units joined by one bond
            mat = np.einsum("adxm,bemy,x,y->abde", u, u, e0, e0).reshape(9, 9)
            dense = np.max(np.abs(np.linalg.eigvals(mat)))
            np.testing.assert_allclose(transfer_eigs(ctx, [2], axis=axis)[2], dense, rtol=1e-10)


class TestKrylovAgainstPowerIteration:
    """transfer_eigs' Arnoldi values against the power-iteration loop that it
    replaced, from the same vacuum start: the blocked Ising strips across
    the strip-infinite range of beta/beta_c, on both sides of the band
    around 0.855 where BP slows down, and two units without the Ising
    symmetries."""

    @pytest.mark.parametrize("name", ["ising 0.7", "ising 0.84", "ising 0.87", "ising 0.95",
                                      "ising 1.2", "aklt", "random"])
    def test_widths_one_to_six_on_both_axes(self, name, monkeypatch):
        if name == "aklt":
            unit = aklt_norm_tensor()
        elif name == "random":
            unit = random_tensor((3,) * 4, bias=0.5, seed=1)
        else:
            frac = float(name.split()[1])
            unit = block_unit(ising_unit_tensor(2, frac * BETA_C_2D), (2, 2)).materialize()
        ubp = uniform_fixed_point(unit)
        krylov = [transfer_eigs(prepare_strips(unit, ubp), range(1, 7), axis=axis) for axis in (0, 1)]
        monkeypatch.setattr(infinite, "dominant_eig", oracle_dominant_eig)
        power = [transfer_eigs(prepare_strips(unit, ubp), range(1, 7), axis=axis) for axis in (0, 1)]
        for got, want in zip(krylov, power):
            for k in range(1, 7):
                assert abs(got[k] - want[k]) <= 1e-13 * abs(want[k]), k


class TestPatchScalar:
    def test_single_site_normalized(self):
        ctx = prepare_strips(ising_unit_tensor(2, 0.4))
        np.testing.assert_allclose(patch_scalar(ctx, 1, 1), 1.0, atol=1e-12)

    def test_transposition_symmetry(self):
        ctx = prepare_strips(ising_unit_tensor(2, 0.4))
        np.testing.assert_allclose(patch_scalar(ctx, 2, 1), patch_scalar(ctx, 1, 2), rtol=1e-10)

    def test_cross_check_against_direct_contraction(self):
        ctx = prepare_strips(ising_unit_tensor(2, 0.37))
        caps = {(g, s): ctx.e0() for g in range(2) for s in (0, 1)}
        direct = float(contract(capped_patch(ctx.unit, (2, 2), caps).net))
        np.testing.assert_allclose(patch_scalar(ctx, 2, 2), direct, rtol=1e-12)
        # Every k-column by p-row patch up to 4x4, the non-square ones included,
        # asked for in an order that both fills and reads the moment cache, on
        # the blocked Ising unit around beta_c, the AKLT double layer and a
        # random unit that is not symmetric under transposition.
        blocked = [block_unit(ising_unit_tensor(2, f * BETA_C_2D), (2, 2)).materialize()
                   for f in (0.7, 1.0, 1.2)]
        asymmetric = random_tensor((3,) * 4, bias=0.5, seed=1)
        for unit in [ising_unit_tensor(2, 0.37), *blocked, aklt_norm_tensor(), asymmetric]:
            ctx = prepare_strips(unit)
            caps = {(g, s): ctx.e0() for g in range(2) for s in (0, 1)}
            for k, p in itertools.product(range(1, 5), [2, 4, 1, 3]):
                direct = float(contract(capped_patch(ctx.unit, (p, k), caps).net))
                np.testing.assert_allclose(patch_scalar(ctx, k, p), direct, rtol=1e-12)


def naive_terms(ctx, width, axes, mode):
    """Per-pattern oracle of free_energy's term loop: every product formed
    again for every pattern, in the documented order."""
    height = width if axes == "vh" else 1
    subsets = [s for n in range(width + 1) for s in itertools.combinations(range(width), n)]
    vsets = [(0,)] if mode == "single" else subsets
    hsets = subsets if axes == "vh" else [()]

    def gaps(s):
        s = sorted(s)
        return [(s[(i + 1) % len(s)] - s[i]) % width or width for i in range(len(s))]

    terms, total = [], 0.0
    for sv in vsets:
        for sh in hsets:
            if not (sv or sh):
                continue
            val = 1.0
            if not sh:
                for w in gaps(sv):
                    val *= transfer_eigs(ctx, [w], axis=0)[w] ** height
                desc = f"v{sv}"
            elif not sv:
                for w in gaps(sh):
                    val *= transfer_eigs(ctx, [w], axis=1)[w] ** width
                desc = f"h{sh}"
            else:
                for w in gaps(sv):
                    for hgt in gaps(sh):
                        val *= patch_scalar(ctx, w, hgt)
                desc = f"v{sv} x h{sh}"
            sign = 1 if (len(sv) + len(sh)) % 2 == 1 else -1
            terms.append((desc, sign, val))
            total += sign * val
    return tuple(terms), total


class TestFreeEnergy:
    def test_terms_match_a_per_pattern_loop(self):
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        for unit in (blocked, random_tensor((3,) * 4, bias=0.5, seed=1)):
            ctx = prepare_strips(unit)
            for width, axes, mode in [(1, "vh", "all"), (2, "v", "single"), (3, "v", "all"),
                                      (2, "vh", "all"), (3, "vh", "all"), (4, "vh", "all")]:
                res = free_energy(unit, width, axes=axes, mode=mode, ctx=ctx)
                terms, total = naive_terms(ctx, width, axes, mode)
                assert res.terms == terms          # float entries compared exactly
                assert res.argument == total

    def test_all_formulas_agree_on_product_unit(self):
        unit = product_unit(np.array([1.0, 0.3]), np.array([0.8, 0.25]))
        ctx = prepare_strips(unit)
        values = [
            free_energy(unit, 2, axes="v", mode="single", ctx=ctx).value,
            free_energy(unit, 2, axes="v", mode="all", ctx=ctx).value,
            free_energy(unit, 3, axes="v", mode="all", ctx=ctx).value,
            free_energy(unit, 2, axes="vh", mode="all", ctx=ctx).value,
            free_energy(unit, 3, axes="vh", mode="all", ctx=ctx).value,
        ]
        for v in values[1:]:
            np.testing.assert_allclose(v, values[0], rtol=1e-9)

    def test_two_axis_width2_term_structure(self):
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        ctx = prepare_strips(blocked)
        res = free_energy(blocked, 2, axes="vh", mode="all", ctx=ctx)
        lam = transfer_eigs(ctx, [1, 2], axis=0)
        gam = transfer_eigs(ctx, [1, 2], axis=1)
        r1 = 2 * lam[2] ** 2 + 2 * gam[2] ** 2
        r2 = 4 * patch_scalar(ctx, 2, 2) + lam[1] ** 4 + gam[1] ** 4
        r3 = 2 * patch_scalar(ctx, 2, 1) ** 2 + 2 * patch_scalar(ctx, 1, 2) ** 2
        r4 = patch_scalar(ctx, 1, 1) ** 4
        np.testing.assert_allclose(res.argument, r1 - r2 + r3 - r4, rtol=1e-12)
        assert len(res.terms) == 15

    def test_vertical_only_sum(self):
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        ctx = prepare_strips(blocked)
        lam = transfer_eigs(ctx, [1, 2, 3], axis=0)
        expected = {
            2: 2 * lam[2] - lam[1] ** 2,
            3: 3 * lam[3] - 3 * lam[1] * lam[2] + lam[1] ** 3,
        }
        for width, argument in expected.items():
            res = free_energy(blocked, width, axes="v", mode="all", ctx=ctx)
            np.testing.assert_allclose(res.argument, argument, rtol=1e-12)
            assert len(res.terms) == 2**width - 1
            both = free_energy(blocked, width, axes="vh", mode="all", ctx=ctx)
            assert len(both.terms) == 4**width - 1

    def test_monotone_in_width(self):
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        ctx = prepare_strips(blocked)
        f_exact = ising_free_energy_2d(0.9 * BETA_C_2D)
        errs = []
        for width in (2, 3, 4):
            res = free_energy(blocked, width, axes="vh", mode="all", ctx=ctx)
            errs.append(abs((res.value / 4.0 - f_exact) / f_exact))
        assert errs[2] < errs[1] < errs[0]

    def test_rescaling_shift(self):
        unit = ising_unit_tensor(2, 0.35)
        base = free_energy(unit, 2, axes="vh", mode="all").value
        scaled = free_energy(3.0 * unit, 2, axes="vh", mode="all").value
        np.testing.assert_allclose(scaled, base - math.log(3.0), rtol=1e-9)

    def test_beats_site_estimate(self):
        for frac in (0.7, 1.0, 1.2):
            beta = frac * BETA_C_2D
            blocked = block_unit(ising_unit_tensor(2, beta), (2, 2)).materialize()
            ctx = prepare_strips(blocked)
            f_exact = ising_free_energy_2d(beta)
            f_site = -ctx.log_site_scale / 4.0
            for width in (2, 3):
                res = free_energy(blocked, width, axes="vh", mode="all", ctx=ctx)
                assert abs(res.value / 4.0 - f_exact) < abs(f_site - f_exact)


class TestCylinder:
    def test_length_one_closed_form(self):
        unit = ising_unit_tensor(2, 0.3)
        mat = np.trace(unit, axis1=2, axis2=3)
        dense = np.max(np.real(np.linalg.eigvals(mat.T)))
        np.testing.assert_allclose(cylinder_baseline(unit, 1), -math.log(dense), rtol=1e-10)

    def test_length_four_dense_oracle(self):
        unit = ising_unit_tensor(2, 0.3)
        length = 4
        dim = 2**length
        mat = np.zeros((dim, dim))
        from pne.infinite import _ring_operator

        for j in range(dim):
            v = np.zeros(dim)
            v[j] = 1.0
            mat[:, j] = _ring_operator(unit, length)(v)
        dense = np.max(np.real(np.linalg.eigvals(mat)))
        np.testing.assert_allclose(cylinder_baseline(unit, 4), -math.log(dense) / 4, rtol=1e-10)

    def test_critical_spin_ring_of_eight_against_dense(self, monkeypatch):
        # the L = 8 spin cylinder at beta_c, whose gap is small: within 60
        # mat-vecs and equal to the dense eigenvalue of the materialized
        # 256 x 256 ring operator
        unit = ising_unit_tensor(2, BETA_C_2D)
        apply = infinite._ring_operator(unit, 8)
        mat = np.stack([apply(col) for col in np.eye(256)], axis=1)
        vals = np.linalg.eigvals(mat)
        dense = vals[np.abs(vals).argmax()]
        assert dense.imag == 0
        results = []

        def recorded(*args, **kwargs):
            results.append(dominant_eig(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(infinite, "dominant_eig", recorded)
        f = cylinder_baseline(unit, 8)
        (res,) = results
        assert res.iterations <= 60 and not res.degenerate
        assert abs(res.value - dense.real) <= 1e-12 * dense.real
        assert f == -math.log(res.value) / 8

    def test_converges_to_onsager(self):
        beta = 0.75 * BETA_C_2D
        f = cylinder_baseline(ising_unit_tensor(2, beta), 10)
        np.testing.assert_allclose(f, ising_free_energy_2d(beta), rtol=1e-4)


class TestErrors:
    def test_nonconvergent_unit_raises(self):
        from pne.models import random_tensor

        unit = random_tensor((3,) * 4, bias=0.0, seed=6)
        with pytest.raises(InfiniteError, match=r"converge on this unit in 200 sweeps \(last residual \d"):
            prepare_strips(unit, max_iter=200)

    def test_width_zero_rejected(self):
        unit = ising_unit_tensor(2, 0.3)
        with pytest.raises(InfiniteError):
            free_energy(unit, 0)

    @pytest.mark.parametrize("widths", [[0], [-1], [2, 0]])
    def test_transfer_width_below_one_rejected(self, widths):
        ctx = prepare_strips(ising_unit_tensor(2, 0.3))
        with pytest.raises(InfiniteError, match="at least 1"):
            transfer_eigs(ctx, widths)

    @pytest.mark.parametrize("axis", [2, -1, "h"])
    def test_transfer_axis_rejected(self, axis):
        ctx = prepare_strips(ising_unit_tensor(2, 0.3))
        with pytest.raises(InfiniteError, match="axis"):
            transfer_eigs(ctx, [1], axis=axis)

    @pytest.mark.parametrize("k, p", [(0, 1), (1, 0), (-1, 2), (2, -3)])
    def test_patch_extent_below_one_rejected(self, k, p):
        ctx = prepare_strips(ising_unit_tensor(2, 0.3))
        with pytest.raises(InfiniteError, match="k, p >= 1"):
            patch_scalar(ctx, k, p)

    def test_single_mode_on_both_axes_rejected(self):
        from pne.models import random_tensor

        # Arguments are checked before the fixed point: this unit's would
        # not converge.
        unit = random_tensor((3,) * 4, bias=0.0, seed=6)
        with pytest.raises(InfiniteError, match="single"):
            free_energy(unit, 3, axes="vh", mode="single", max_iter=200)

    def test_context_of_another_unit_rejected(self):
        cold, hot = ising_unit_tensor(2, 0.3), ising_unit_tensor(2, 0.5)
        ctx = prepare_strips(cold)
        assert ctx.source is cold
        with pytest.raises(InfiniteError, match="different unit"):
            free_energy(cold, 2, ctx=prepare_strips(hot))
        with pytest.raises(InfiniteError, match="different unit"):
            free_energy(cold, 2, ctx=StripContext(unit=ctx.unit, log_site_scale=ctx.log_site_scale))
        # The same unit, or an equal copy of it, gets the context-free value.
        want = free_energy(cold, 2).value
        assert free_energy(cold, 2, ctx=ctx).value == want
        assert free_energy(cold.copy(), 2, ctx=ctx).value == want


def oracle_row(first, unit, k, v):
    """The tensordot row loop that the compiled row program replaced, verbatim."""
    chi = unit.shape[0]
    carry = np.tensordot(v.reshape((chi,) * k), first, axes=([0], [0]))   # (s_1.., d, [l], r)
    carry = np.moveaxis(carry, k - 1, 0)
    for j in range(1, k):
        # carry axes: (d_0..d_{j-1}, s_j.., [l], h); contract (s_j, h) with (u, l)
        carry = np.tensordot(carry, unit, axes=([j, carry.ndim - 1], [0, 2]))
        carry = np.moveaxis(carry, -2, j)
    return carry


def oracle_strip_operator(unit, k):
    e0 = np.zeros(unit.shape[2])
    e0[0] = 1.0
    first = np.tensordot(unit, e0, axes=([2], [0]))

    def apply(v):
        carry = oracle_row(first, unit, k, v)
        return np.tensordot(carry, e0, axes=([carry.ndim - 1], [0])).reshape(-1)
    return apply


def oracle_ring_apply(unit, length, v):
    carry = oracle_row(unit, unit, length, v)
    return np.trace(carry, axis1=length, axis2=length + 1).reshape(-1)


def _same_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _row_units():
    """The blocked Ising unit, gauged, and random units that are not
    symmetric under transposition, at chi = 2 and chi = 3."""
    blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
    return {"blocked ising": prepare_strips(blocked).unit,
            "random chi=2": random_tensor((2,) * 4, bias=0.5, seed=4),
            "random chi=3": random_tensor((3,) * 4, bias=0.5, seed=1)}


class TestCompiledRow:
    @pytest.mark.parametrize("name", list(_row_units()))
    def test_strip_operators_bit_equal_to_tensordot_loop(self, name):
        unit = _row_units()[name]
        if name != "blocked ising":
            assert not np.allclose(unit, unit.transpose(2, 3, 0, 1))
        ctx = StripContext(unit=unit, log_site_scale=0.0)
        rng = np.random.default_rng(2)
        for axis in (0, 1):
            oriented = unit if axis == 0 else unit.transpose(2, 3, 0, 1)
            for k in range(1, 7):
                apply, oracle = infinite._operator(ctx, axis, k), oracle_strip_operator(oriented, k)
                # the vacuum, a random state, and each applied once more (as
                # patch_scalar and Arnoldi feed outputs back in)
                for v in (ctx.e0(k), rng.normal(size=oriented.shape[0] ** k)):
                    got, want = apply(v), oracle(v)
                    _same_bytes(got, want)
                    _same_bytes(apply(got), oracle(want))

    @pytest.mark.parametrize("name", list(_row_units()))
    def test_ring_bit_equal_to_tensordot_loop(self, name):
        unit = _row_units()[name]
        rng = np.random.default_rng(3)
        for length in range(1, 5):
            apply = infinite._ring_operator(unit, length)
            v = rng.normal(size=unit.shape[0] ** length)
            _same_bytes(apply(v), oracle_ring_apply(unit, length, v))

    def test_operators_compiled_once_per_context(self):
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        ctx = prepare_strips(blocked)
        free_energy(blocked, 3, axes="vh", mode="all", ctx=ctx)
        assert sorted(ctx.operators) == [(axis, k) for axis in (0, 1) for k in (1, 2, 3)]
        ops = dict(ctx.operators)
        patch_scalar(ctx, 3, 5)
        transfer_eigs(ctx, [1, 2, 3], axis=1)
        assert ctx.operators == ops and infinite._operator(ctx, 0, 2) is ops[0, 2]

    def test_free_energy_bit_equal_to_tensordot_loop(self, monkeypatch):
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        ubp = uniform_fixed_point(blocked)
        got = {w: free_energy(blocked, w, ctx=prepare_strips(blocked, ubp)) for w in range(1, 6)}
        monkeypatch.setattr(infinite, "_strip_operator", oracle_strip_operator)
        for w in range(1, 6):
            want = free_energy(blocked, w, ctx=prepare_strips(blocked, ubp))
            assert got[w] == want      # value, terms and argument, floats compared exactly

    def test_cylinder_bit_equal_to_tensordot_loop(self, monkeypatch):
        unit = ising_unit_tensor(2, 0.3)
        got = [cylinder_baseline(unit, length) for length in range(1, 5)]
        monkeypatch.setattr(infinite, "_ring_operator",
                            lambda unit, length: lambda v: oracle_ring_apply(unit, length, v))
        assert got == [cylinder_baseline(unit, length) for length in range(1, 5)]

    def test_free_energy_calls_the_traced_names(self, monkeypatch):
        # perfbench times eigenvalues and patches by wrapping these two
        # module-level names; a path around them would read as zero time.
        calls = {"dominant_eig": 0, "patch_scalar": 0}

        def counted(name):
            fn = getattr(infinite, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(infinite, name, counted(name))
        blocked = block_unit(ising_unit_tensor(2, 0.9 * BETA_C_2D), (2, 2)).materialize()
        free_energy(blocked, 3, axes="vh", mode="all")
        # widths 1, 2 and 3 on both axes; one patch per pair of widths
        assert calls == {"dominant_eig": 6, "patch_scalar": 9}
