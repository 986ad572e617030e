import math

import numpy as np
import pytest

from pne.infinite import (
    InfiniteError,
    cylinder_baseline,
    free_energy,
    patch_scalar,
    prepare_strips,
    transfer_eigs,
)
from pne.models import (
    BETA_C_2D,
    block_unit,
    ising_free_energy_2d,
    ising_unit_tensor,
    uniform_fixed_point,
)


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


class TestPatchScalar:
    def test_single_site_normalized(self):
        ctx = prepare_strips(ising_unit_tensor(2, 0.4))
        np.testing.assert_allclose(patch_scalar(ctx, 1, 1), 1.0, atol=1e-12)

    def test_transposition_symmetry(self):
        ctx = prepare_strips(ising_unit_tensor(2, 0.4))
        np.testing.assert_allclose(patch_scalar(ctx, 2, 1), patch_scalar(ctx, 1, 2), rtol=1e-10)

    def test_cross_check_against_direct_contraction(self):
        from pne.models import capped_patch
        from pne.network import contract

        ctx = prepare_strips(ising_unit_tensor(2, 0.37))
        caps = {(g, s): ctx.e0() for g in range(2) for s in (0, 1)}
        direct = float(contract(capped_patch(ctx.unit, (2, 2), caps).net))
        np.testing.assert_allclose(patch_scalar(ctx, 2, 2), direct, rtol=1e-12)


class TestFreeEnergy:
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
        from pne.infinite import _ring_apply

        for j in range(dim):
            v = np.zeros(dim)
            v[j] = 1.0
            mat[:, j] = _ring_apply(unit, length, v)
        dense = np.max(np.real(np.linalg.eigvals(mat)))
        np.testing.assert_allclose(cylinder_baseline(unit, 4), -math.log(dense) / 4, rtol=1e-10)

    def test_converges_to_onsager(self):
        beta = 0.75 * BETA_C_2D
        f = cylinder_baseline(ising_unit_tensor(2, beta), 10)
        np.testing.assert_allclose(f, ising_free_energy_2d(beta), rtol=1e-4)


class TestErrors:
    def test_nonconvergent_unit_raises(self):
        from pne.models import random_tensor

        unit = random_tensor((3,) * 4, bias=0.0, seed=6)
        with pytest.raises(InfiniteError, match="converge"):
            prepare_strips(unit, max_iter=200)

    def test_width_zero_rejected(self):
        unit = ising_unit_tensor(2, 0.3)
        with pytest.raises(InfiniteError):
            free_energy(unit, 0)

    def test_single_mode_on_both_axes_rejected(self):
        from pne.models import random_tensor

        # Arguments are checked before the fixed point: this unit's would
        # not converge.
        unit = random_tensor((3,) * 4, bias=0.0, seed=6)
        with pytest.raises(InfiniteError, match="single"):
            free_energy(unit, 3, axes="vh", mode="single", max_iter=200)
