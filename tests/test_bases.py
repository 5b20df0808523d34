import math

import numpy as np
import pytest
import scipy.integrate

from cpls import bases
from cpls.bases import HERMITE, LAGUERRE, TRIG, TRIG_NO_CONST

from oracles import hermite_log10_max, hermite_rows_unflushed

ALL_FAMILIES = [TRIG, TRIG_NO_CONST, LAGUERRE, HERMITE]
SQRT2 = math.sqrt(2.0)


class TestEvalVector:
    def test_trig_constant_member(self):
        np.testing.assert_allclose(bases.eval_matrix(TRIG, 1, 0.3), [1.0])

    def test_trig_ordering(self):
        x = 0.17
        vals = bases.eval_matrix(TRIG, 5, x)
        expected = [
            1.0,
            SQRT2 * math.cos(2 * math.pi * x),
            SQRT2 * math.sin(2 * math.pi * x),
            SQRT2 * math.cos(4 * math.pi * x),
            SQRT2 * math.sin(4 * math.pi * x),
        ]
        np.testing.assert_allclose(vals, expected, rtol=1e-14)

    def test_trig_noconst_ordering(self):
        x = 0.41
        vals = bases.eval_matrix(TRIG_NO_CONST, 4, x)
        expected = [
            SQRT2 * math.cos(2 * math.pi * x),
            SQRT2 * math.sin(2 * math.pi * x),
            SQRT2 * math.cos(4 * math.pi * x),
            SQRT2 * math.sin(4 * math.pi * x),
        ]
        np.testing.assert_allclose(vals, expected, rtol=1e-14)

    def test_laguerre_at_zero(self):
        np.testing.assert_allclose(bases.eval_matrix(LAGUERRE, 1, 0.0), [SQRT2])

    def test_laguerre_matches_direct_polynomial(self):
        # l_k(x) = sqrt(2) L_k(2x) e^{-x} against numpy's Laguerre series
        x = 1.7
        vals = bases.eval_matrix(LAGUERRE, 6, x)
        for k in range(6):
            lk = np.polynomial.laguerre.lagval(2 * x, np.eye(6)[k])
            assert vals[k] == pytest.approx(SQRT2 * lk * math.exp(-x), rel=1e-12)

    def test_hermite_at_zero(self):
        vals = bases.eval_matrix(HERMITE, 3, 0.0)
        pi4 = math.pi ** -0.25
        np.testing.assert_allclose(vals, [pi4, 0.0, -pi4 / SQRT2], atol=1e-15)

    def test_outside_support_is_zero(self):
        assert np.all(bases.eval_matrix(LAGUERRE, 5, -0.3) == 0.0)
        assert np.all(bases.eval_matrix(TRIG, 5, 1.7) == 0.0)
        assert np.all(bases.eval_matrix(TRIG_NO_CONST, 5, -0.1) == 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bases.eval_matrix(TRIG, -1, 0.5)
        with pytest.raises(ValueError):
            bases.eval_matrix(HERMITE, 3, math.nan)
        with pytest.raises(ValueError):
            bases.eval_matrix(HERMITE, 3, math.inf)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_zero_members_rejected(self, family):
        # Every projection space has at least one member.
        with pytest.raises(ValueError):
            bases.eval_matrix(family, 0, np.array([0.5]))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_finite_up_to_k200(self, family):
        xs = {
            "trig": [0.0, 0.5, 1.0],
            "trig-noconst": [0.0, 0.5, 1.0],
            "laguerre": [0.0, 1.0, 50.0, 700.0, 1e6],
            "hermite": [-40.0, -3.0, 0.0, 3.0, 40.0],
        }[family.name]
        vals = bases.eval_matrix(family, 200, np.asarray(xs))
        assert np.all(np.isfinite(vals))



class TestEvalRows:
    POINTS = {
        "0d": np.float64(0.3),
        "0d-outside": np.float64(-0.4),
        "1d": np.array([-1.5, 0.0, 0.25, 0.5, 1.0, 1.2, 3.0]),
        "2d": np.array([[-2.0, 0.1, 0.9], [1.0, 2.5, 0.0]]),
    }

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [0, 1, 2, 39])
    @pytest.mark.parametrize("points", POINTS, ids=str)
    def test_rows_are_eval_matrix_transposed(self, family, m, points):
        x = self.POINTS[points]
        if m == 0:
            # Every projection space has at least one member.
            for out in (None, np.empty((0,) + x.shape)):
                with pytest.raises(ValueError):
                    bases.eval_rows(family, m, x, out=out)
            return
        expected = np.moveaxis(bases.eval_matrix(family, m, x), -1, 0).tobytes()
        rows = bases.eval_rows(family, m, x)
        assert rows.shape == (m,) + x.shape and rows.flags.c_contiguous
        assert rows.tobytes() == expected
        # into a row block of a larger buffer full of stale values
        buf = np.full((m + 3,) + x.shape, np.nan)
        block = buf[1 : m + 1]
        assert bases.eval_rows(family, m, x, out=block) is block
        assert block.tobytes() == expected
        assert np.isnan(buf[0]).all() and np.isnan(buf[m + 1 :]).all()

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_wrong_out_shape_rejected(self, family):
        x = self.POINTS["1d"]
        for shape in [(3, x.size + 1), (4, x.size), (x.size, 3), (3,)]:
            with pytest.raises(ValueError):
                bases.eval_rows(family, 3, x, out=np.empty(shape))

class TestDeltaVector:
    def test_trig_noconst_all_zero(self):
        np.testing.assert_array_equal(bases.delta_vector(TRIG_NO_CONST, 4), np.zeros(4))

    def test_trig_constant_only(self):
        np.testing.assert_array_equal(bases.delta_vector(TRIG, 3), [1.0, 0.0, 0.0])

    def test_laguerre_alternating(self):
        np.testing.assert_allclose(
            bases.delta_vector(LAGUERRE, 3), [SQRT2, -SQRT2, SQRT2], rtol=1e-15
        )

    def test_hermite_closed_form(self):
        vals = bases.delta_vector(HERMITE, 2)
        np.testing.assert_allclose(vals, [SQRT2 * math.pi ** 0.25, 0.0], rtol=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_matches_adaptive_quadrature(self, family):
        m = 12
        delta = bases.delta_vector(family, m)
        lo, hi = family.support
        for k in range(m):
            fn = lambda x, k=k: bases.eval_matrix(family, k + 1, np.asarray([x]))[0, k]
            if family.name == "laguerre":
                val, _ = scipy.integrate.quad(fn, 0.0, np.inf, limit=400)
            elif family.name == "hermite":
                val, _ = scipy.integrate.quad(fn, -40.0, 40.0, limit=400)
            else:
                val, _ = scipy.integrate.quad(fn, 0.0, 1.0, limit=200)
            assert delta[k] == pytest.approx(val, abs=1e-8)


class TestSupNormBound:
    def test_laguerre_exact(self):
        assert bases.sup_norm_bound(LAGUERRE, 5) == 10.0

    def test_trig_m1(self):
        val = bases.sup_norm_bound(TRIG, 1)
        assert 1.0 <= val <= 2.0

    def test_hermite_scales_like_sqrt_m(self):
        val = bases.sup_norm_bound(HERMITE, 8)
        assert np.isfinite(val)
        assert val <= 0.6 * math.sqrt(8)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_bounds_hold_at_random_points(self, family):
        rng = np.random.default_rng(31)
        lo, hi = family.support
        if family.name in ("trig", "trig-noconst"):
            xs = rng.random(10_000)
        elif family.name == "laguerre":
            xs = rng.exponential(3.0, 10_000)
        else:
            xs = rng.normal(0.0, 3.0, 10_000)
        for m in (1, 4, 9):
            vals = bases.eval_matrix(family, m, xs)
            total = np.einsum("ij,ij->i", vals, vals)
            assert total.max() <= bases.sup_norm_bound(family, m) + 1e-12


class TestOrthonormality:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    def test_gram_is_identity_to_1e6(self, family):
        assert bases.orthonormality_residual(family, 30) < 1e-6


def test_hermite_derivative_recurrence():
    # sqrt(2) h_j' = sqrt(j) h_{j-1} - sqrt(j+1) h_{j+1}, via central differences
    rng = np.random.default_rng(5)
    xs = rng.uniform(-5.0, 5.0, 100)
    step = 1e-5
    up = bases.eval_matrix(HERMITE, 12, xs + step)
    down = bases.eval_matrix(HERMITE, 12, xs - step)
    mid = bases.eval_matrix(HERMITE, 12, xs)
    deriv = (up - down) / (2 * step)
    for j in range(1, 11):
        lhs = SQRT2 * deriv[:, j]
        rhs = math.sqrt(j) * mid[:, j - 1] - math.sqrt(j + 1) * mid[:, j + 1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


@pytest.mark.parametrize("m", [1, 2, 39, 46, 100, 300, 1000])
def test_hermite_zero_tail(m):
    # Beyond max(x0, sqrt(2m + 1) + 17) every member is exactly zero, and a
    # recurrence that cannot underflow puts every member below 1e-100 there;
    # inside, the values are the plain recurrence's, bit for bit. Up to
    # m = 45 the cut is x0, where h_0 = 2^-511.
    cut = max(bases._HERMITE_TAIL, math.sqrt(2.0 * m + 1.0) + 17.0)
    assert (cut == bases._HERMITE_TAIL) == (m <= 45)
    assert math.pi ** -0.25 * math.exp(-0.5 * bases._HERMITE_TAIL ** 2) == pytest.approx(2.0 ** -511, rel=1e-12)
    beyond = np.nextafter(cut, math.inf)
    x = np.concatenate([np.linspace(-70.0, 70.0, 2801), [cut, -cut, beyond, -beyond]])
    got = bases.eval_rows(HERMITE, m, x)
    far = np.abs(x) > cut
    assert np.all(got[:, far] == 0.0)
    assert hermite_log10_max(m, x[far]).max() < -100.0
    np.testing.assert_array_equal(got[:, ~far], hermite_rows_unflushed(m, x[~far]))


def test_family_by_name_roundtrip():
    for name in ("trig", "trig-noconst", "laguerre", "hermite"):
        assert bases.family_by_name(name).name == name
    with pytest.raises(ValueError):
        bases.family_by_name("wavelet")
