import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pne import tensor
from pne.tensor import (
    DominantEig,
    EigenConvergenceError,
    TensorError,
    dominant_eig,
    near_uniform,
    orthogonal_complement,
    svd,
    svd_stack,
)


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.s, [3.0, 1.0])

    def test_rank_one(self):
        u = np.array([1.0, 2.0])
        v = np.array([2.0, 0.0, 1.0])
        res = svd(np.outer(u, v))
        np.testing.assert_allclose(res.s[0], np.linalg.norm(u) * np.linalg.norm(v))
        np.testing.assert_allclose(res.s[1:], 0.0, atol=1e-12)

    def test_reconstruction_and_isometry(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 4))
        res = svd(m)
        u, vh = res.u_matrix(), res.vh_matrix()
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(vh @ vh.T, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(u @ np.diag(res.s) @ vh, m, atol=1e-10)
        assert np.all(np.diff(res.s) <= 1e-12)

    def test_bipartition(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(2, 3, 4))
        res = svd(t, row_axes=[0, 2], col_axes=[1])
        assert res.u.shape == (2, 4, 3)
        rebuilt = (res.u_matrix() @ np.diag(res.s) @ res.vh_matrix()).reshape(2, 4, 3)
        np.testing.assert_allclose(rebuilt, t.transpose(0, 2, 1), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_frobenius_identity(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        res = svd(m)
        np.testing.assert_allclose(
            np.sum(res.s**2), np.sum(m**2), rtol=1e-10, atol=1e-12
        )

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        res = svd(m)
        for k in range(5):
            col = res.u_matrix()[:, k]
            assert col[np.argmax(np.abs(col))] > 0


def loop_sign_fix(u, vh):
    """Column-by-column sign fix: the first largest-magnitude entry of each
    left singular vector made positive."""
    u, vh = u.copy(), vh.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if pivot < 0:
            u[:, k] = -col
            vh[k, :] = -vh[k, :]
    return u, vh


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSvdSignFix:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (7, 3), (3, 7), (1, 6), (6, 1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_matrices_match_loop(self, shape, seed):
        m = np.random.default_rng(seed).normal(size=shape)
        u, _, vh = np.linalg.svd(m, full_matrices=False)
        u_ref, vh_ref = loop_sign_fix(u, vh)
        res = svd(m)
        assert_bitwise(res.u_matrix(), u_ref)
        assert_bitwise(res.vh_matrix(), vh_ref)

    def test_ties_and_negative_pivots_match_loop(self, monkeypatch):
        # Exact magnitude ties (the first one decides), negative and positive
        # pivots, a signed zero and an all-zero column, fed through svd in
        # place of LAPACK's factors.
        u = np.array([
            [-0.5, 0.5, 0.25, -0.0, 0.0],
            [0.5, -0.5, -0.75, 0.0, 0.0],
            [-0.5, 0.5, 0.5, 1.0, 0.0],
            [0.5, -0.5, 0.5, -1.0, 0.0],
        ])
        s = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
        vh = np.random.default_rng(9).normal(size=(5, 6))
        monkeypatch.setattr(np.linalg, "svd", lambda mat, full_matrices: (u.copy(), s, vh.copy()))
        res = svd(np.zeros((4, 6)))
        u_ref, vh_ref = loop_sign_fix(u, vh)
        assert_bitwise(res.u_matrix(), u_ref)
        assert_bitwise(res.vh_matrix(), vh_ref)
        # tie led by -0.5 flipped, tie led by +0.5 kept, pivot -0.75 flipped
        assert list(res.u_matrix()[:2, :3].ravel()) == [0.5, 0.5, -0.25, -0.5, -0.5, 0.75]
        assert list(res.u_matrix()[2:, 3]) == [1.0, -1.0]

    @pytest.mark.parametrize("shape", [(4, 4), (16, 4), (64, 4), (4, 64), (16, 16), (1, 3), (3, 1)])
    def test_stack_matches_single_svds(self, shape):
        # Each item of a stacked call has the bits of np.linalg.svd on that
        # matrix alone plus the sign rule; tensor.svd is the one-item stack.
        mats = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=(5,) + shape)
        u, s, vh = svd_stack(mats)
        for i, m in enumerate(mats):
            u_ref, s_ref, vh_ref = np.linalg.svd(m, full_matrices=False)
            u_ref, vh_ref = loop_sign_fix(u_ref, vh_ref)
            for got, want in [(u[i], u_ref), (s[i], s_ref), (vh[i], vh_ref)]:
                assert_bitwise(np.ascontiguousarray(got), want)
            res = svd(m)
            assert_bitwise(res.u_matrix(), u_ref)
            assert_bitwise(res.s, s_ref)
            assert_bitwise(res.vh_matrix(), vh_ref)

    def test_stack_ties_match_loop(self, monkeypatch):
        # Two items with magnitude ties led by either sign, fed through
        # svd_stack in place of LAPACK's factors.
        u = np.array([
            [[-0.5, 0.5, 0.0], [0.5, -0.5, 1.0], [0.25, 0.5, -1.0]],
            [[0.5, -0.75, 0.5], [-0.5, 0.75, 0.5], [0.5, 0.0, -0.5]],
        ])
        s = np.array([[3.0, 2.0, 1.0], [3.0, 2.0, 1.0]])
        vh = np.random.default_rng(4).normal(size=(2, 3, 4))
        monkeypatch.setattr(np.linalg, "svd", lambda mats, full_matrices: (u.copy(), s, vh.copy()))
        got_u, _, got_vh = svd_stack(np.zeros((2, 3, 4)))
        for i in range(2):
            u_ref, vh_ref = loop_sign_fix(u[i], vh[i])
            assert_bitwise(got_u[i], u_ref)
            assert_bitwise(got_vh[i], vh_ref)
        # tie led by -0.5 flipped, tie led by +0.5 kept, -0.75 flipped
        assert list(got_u[0][:, 0]) == [0.5, -0.5, -0.25]
        assert list(got_u[1][:, 0]) == [0.5, -0.5, 0.5]
        assert list(got_u[0][:, 2]) == [0.0, 1.0, -1.0]
        assert list(got_u[1][:, 1]) == [0.75, -0.75, -0.0]

    def test_no_columns(self):
        res = svd(np.zeros((3, 0)))
        assert res.u.shape == (3, 0) and res.s.shape == (0,) and res.vh.shape == (0, 0)


class TestOrthogonalComplement:
    def test_basis_vector(self):
        r = orthogonal_complement(np.array([1.0, 0.0]))
        np.testing.assert_allclose(np.abs(r), [[0.0, 1.0]], atol=1e-12)

    def test_two_dimensional(self):
        row = np.array([1.0, 1.0]) / np.sqrt(2)
        r = orthogonal_complement(row)
        assert r.shape == (1, 2)
        np.testing.assert_allclose(r @ row, 0.0, atol=1e-12)
        np.testing.assert_allclose(r @ r.T, [[1.0]], atol=1e-12)

    def test_random_row(self):
        rng = np.random.default_rng(4)
        row = rng.normal(size=7)
        r = orthogonal_complement(row)
        assert np.max(np.abs(r @ row)) < 1e-12
        np.testing.assert_allclose(r @ r.T, np.eye(6), atol=1e-12)

    def test_stacked_is_orthogonal(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=5)
        row /= np.linalg.norm(row)
        full = np.vstack([row[None, :], orthogonal_complement(row)])
        np.testing.assert_allclose(full @ full.T, np.eye(5), atol=1e-12)

    def test_zero_vector(self):
        with pytest.raises(TensorError):
            orthogonal_complement(np.zeros(3))


class TestDominantEig:
    def test_diagonal(self):
        m = np.diag([2.0, -1.0, 0.5])
        res = dominant_eig(lambda v: m @ v, 3)
        assert not res.degenerate
        np.testing.assert_allclose(res.value, 2.0, atol=1e-10)

    def test_degenerate_pair_flag(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = dominant_eig(lambda v: m @ v, 2)
        assert res.degenerate
        np.testing.assert_allclose(res.value, 1.0, atol=1e-8)

    def test_negative_leading_eigenvalue(self):
        # The iterate flips sign every step; that is convergence, not a pair.
        m = np.diag([-2.0, 1.0, 0.5])
        res = dominant_eig(lambda v: m @ v, 3)
        assert not res.degenerate
        np.testing.assert_allclose(res.value, -2.0, atol=1e-10)
        assert res.residual < 1e-12

    def test_plus_minus_pair_with_a_smaller_eigenvalue(self):
        m = np.diag([1.0, -1.0, 0.5])
        res = dominant_eig(lambda v: m @ v, 3)
        assert res.degenerate
        np.testing.assert_allclose(res.value, 1.0, atol=1e-8)

    def test_dense_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(12, 12))
        m = m @ m.T + 0.1 * np.eye(12)
        res = dominant_eig(lambda v: m @ v, 12, tol=1e-13)
        np.testing.assert_allclose(res.value, np.max(np.linalg.eigvalsh(m)), rtol=1e-9)

    def test_start_vector(self):
        m = np.diag([0.5, 1.0, 0.25])
        res = dominant_eig(lambda v: m @ v, 3, start=np.array([1.0, 1e-6, 0.0]))
        np.testing.assert_allclose(res.value, 1.0, atol=1e-10)
        # A start orthogonal to the dominant vector finds another eigenvalue.
        res = dominant_eig(lambda v: m @ v, 3, start=np.array([3.0, 0.0, 0.0]))
        assert res.value == 0.5

    @pytest.mark.parametrize(
        "start",
        [np.ones(2), np.ones((3, 1)), np.zeros(3), np.array([1.0, np.nan, 0.0]),
         np.array([1.0, np.inf, 0.0]), np.array([-np.inf, 0.0, 0.0])],
        ids=["short", "column", "zero", "nan", "inf", "-inf"],
    )
    def test_bad_start_rejected(self, start):
        m = np.diag([0.5, 1.0, 0.25])
        with pytest.raises(TensorError, match="start"):
            dominant_eig(lambda v: m @ v, 3, start=start)

    def test_residual_contract(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6))
        m = m + m.T + 4 * np.eye(6)
        res = dominant_eig(lambda v: m @ v, 6, tol=1e-12)
        assert np.linalg.norm(m @ res.vector - res.value * res.vector) / abs(res.value) < 1e-10


def oracle_dominant_eig(apply, n, tol=1e-12, max_iter=10000, start=None):
    """Power iteration with six norms per step, verbatim: bit for bit the
    loop that restarted Arnoldi replaced, kept as a second oracle."""
    if n < 1:
        raise TensorError("operator dimension must be at least 1")
    v = near_uniform(n) if start is None else np.array(start, dtype=np.float64)
    if v.shape != (n,) or not np.isfinite(v).all() or not v.any():
        raise TensorError(f"start must be a finite nonzero vector of shape ({n},)")
    v /= np.linalg.norm(v)
    prev = None
    prev2 = None
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = apply(v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return DominantEig(value=0.0, vector=v, iterations=it, residual=0.0)
        w = w / nrm
        if prev2 is not None:
            far = min(np.linalg.norm(w - prev), np.linalg.norm(w + prev)) > np.sqrt(tol)
            if np.linalg.norm(w - prev2) < tol and far:
                return DominantEig(
                    value=nrm, vector=w, iterations=it, residual=np.linalg.norm(w - prev),
                    degenerate=True,
                )
        if prev is not None:
            residual = min(np.linalg.norm(w - prev), np.linalg.norm(w + prev))
            if residual < tol:
                lam = float(w @ apply(w))
                return DominantEig(value=lam, vector=w, iterations=it, residual=residual)
        prev2 = prev
        prev = w
        v = w
    raise EigenConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=float(residual),
        iterations=max_iter,
    )


def _spd(seed, n, shift):
    m = np.random.default_rng(seed).normal(size=(n, n))
    return m @ m.T + shift * np.eye(n)


def _sym(seed, n, shift):
    m = np.random.default_rng(seed).normal(size=(n, n))
    return m + m.T + shift * np.eye(n)


# The operators of TestDominantEig, with their arguments.
EIG_CASES = {
    "diagonal": (np.diag([2.0, -1.0, 0.5]), {}),
    "degenerate pair": (np.array([[0.0, 1.0], [1.0, 0.0]]), {}),
    "negative leading": (np.diag([-2.0, 1.0, 0.5]), {}),
    "pair and a smaller": (np.diag([1.0, -1.0, 0.5]), {}),
    "dense": (_spd(6, 12, 0.1), {"tol": 1e-13}),
    "start": (np.diag([0.5, 1.0, 0.25]), {"start": np.array([1.0, 1e-6, 0.0])}),
    "orthogonal start": (np.diag([0.5, 1.0, 0.25]), {"start": np.array([3.0, 0.0, 0.0])}),
    "residual": (_sym(7, 6, 4.0), {"tol": 1e-12}),
}


def _nonsymmetric(seed, n):
    """``S D S^-1`` for a random ``S``: a simple real dominant eigenvalue 3,
    then 2x2 blocks of complex pairs and one real value, all inside |z| < 2."""
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    d[0, 0] = 3.0
    for i in range(1, n - 1, 2):
        a, b = rng.uniform(-1.4, 1.4, size=2)
        d[i:i + 2, i:i + 2] = [[a, -b], [b, a]]
    if n % 2 == 0:
        d[-1, -1] = rng.uniform(-1.9, 1.9)
    s = rng.normal(size=(n, n))
    return s @ d @ np.linalg.inv(s)


def dense_dominant(m, start=None):
    """Largest-magnitude eigenvalue of ``m`` among those whose eigenvectors
    the start vector has a component on (all of them for the default start),
    and whether the two leading ones are a +/- pair."""
    vals, vecs = np.linalg.eig(m)
    coef = np.abs(np.linalg.solve(vecs, near_uniform(len(m)) if start is None else start))
    vals = vals[coef > 1e-12 * coef.max()]
    vals = vals[np.argsort(-np.abs(vals), kind="stable")]
    pair = len(vals) > 1 and abs(vals[0] + vals[1]) < 1e-9 * abs(vals[0])
    return (abs(vals[0]) if pair else vals[0]), pair


class TestDominantEigOracle:
    @pytest.mark.parametrize("case", list(EIG_CASES) + ["nonsymmetric 30x30"])
    def test_matches_dense_eigenvalues(self, case):
        m, kwargs = EIG_CASES.get(case) or (_nonsymmetric(11, 30), {})
        want, pair = dense_dominant(m, kwargs.get("start"))
        assert np.imag(want) == 0
        want = np.real(want)
        res = dominant_eig(lambda v: m @ v, m.shape[0], **kwargs)
        assert abs(res.value - want) <= 1e-12 * abs(want)
        assert res.degenerate == pair
        assert res.vector.shape == (m.shape[0],) and np.isclose(np.linalg.norm(res.vector), 1.0)
        if not pair:
            resid = np.linalg.norm(m @ res.vector - res.value * res.vector) / abs(res.value)
            assert resid < 1e-10

    def test_nonsymmetric_operator_is_not_trivial(self):
        m = _nonsymmetric(11, 30)
        vals = np.linalg.eigvals(m)
        assert not np.allclose(m, m.T) and np.any(np.imag(vals) != 0)
        np.testing.assert_allclose(dense_dominant(m)[0], 3.0, rtol=1e-12)

    def test_complex_leading_pair_named(self):
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])     # eigenvalues 0.6 +/- 0.8i
        with pytest.raises(EigenConvergenceError, match=r"complex pair 0\.6 \+/- 0\.8i") as info:
            dominant_eig(lambda v: rot @ v, 2, max_iter=50)
        assert info.value.iterations <= 2

    def test_near_degenerate_positive_pair(self):
        m = np.diag(np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.5, 0.01, 28)]))
        res = dominant_eig(lambda v: m @ v, 30)
        assert not res.degenerate and res.iterations <= 60
        assert abs(res.value - 1.0) <= 1e-12

    @pytest.mark.parametrize("m", [np.array([[-3.0]]), np.array([[0.5, 2.0], [0.25, -1.0]])],
                             ids=["n=1", "n=2"])
    def test_smallest_operators(self, m):
        want, pair = dense_dominant(m)
        res = dominant_eig(lambda v: m @ v, len(m))
        assert np.imag(want) == 0 and not pair and not res.degenerate and res.iterations <= len(m)
        assert abs(res.value - want) <= 1e-12 * abs(want)

    def test_zero_operator(self):
        res = dominant_eig(lambda v: np.zeros_like(v), 5)
        assert (res.value, res.iterations, res.residual, res.degenerate) == (0.0, 1, 0.0, False)

    def test_counts_mat_vecs_and_restarts(self):
        # A spectrum that needs more than one Krylov cycle: every mat-vec is
        # counted, and max_iter caps them.
        m = np.diag(1.0 - np.arange(200) / 2000.0)
        calls = []

        def apply(v):
            calls.append(1)
            return m @ v

        res = dominant_eig(apply, 200, tol=1e-12)
        assert res.iterations == len(calls) > tensor.KRYLOV_DIM
        assert abs(res.value - 1.0) <= 1e-12 and res.residual < 1e-12
        calls.clear()
        with pytest.raises(EigenConvergenceError, match="did not converge in 25 mat-vecs") as info:
            dominant_eig(apply, 200, tol=1e-12, max_iter=25)
        assert info.value.iterations == len(calls) == 25


class TestDominantEigArguments:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_fails_at_once(self, bad):
        m = np.diag([0.5, 1.0, 0.25])
        calls = []

        def apply(v):
            calls.append(len(calls) + 1)
            w = m @ v
            if len(calls) == 3:
                w[1] = bad
            return w

        with pytest.raises(EigenConvergenceError, match="at iteration 3") as info:
            dominant_eig(apply, 3, max_iter=20000)
        assert calls == [1, 2, 3] and info.value.iterations == 3

    def test_non_finite_first_output(self):
        with pytest.raises(EigenConvergenceError, match="at iteration 1"):
            dominant_eig(lambda v: np.full_like(v, np.nan), 3)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, np.nan, -np.inf], ids=["zero", "negative", "nan", "-inf"])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(TensorError, match="tol must be positive"):
            dominant_eig(lambda v: v, 3, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_bad_max_iter_rejected(self, max_iter):
        with pytest.raises(TensorError, match="max_iter must be at least 1"):
            dominant_eig(lambda v: v, 3, max_iter=max_iter)
