import cmath
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import arch
from intertwine.arch import (
    _angular_trapezoid,
    ArchParams,
    Place,
    mu_arch,
    mu_arch_derivative,
    mu_arch_derivative_bound,
    mu_arch_logderiv,
    mu_arch_oracle,
    mu_arch_product,
    tate_section_complex,
    tate_section_real,
)
from intertwine.errors import InconsistentRatio, ParityError, RangeError
from intertwine.harmonics import LieGen, harmonic_su2, hopf_point, lie_act_su2
from intertwine.numerics import GammaKind, _consistent_ratio, gamma_factor, radial_gaussian_moment
from intertwine.schwartz import PolyGaussian4, fourier_hat_c, fourier_hat_h, section_so2, section_su2

# an overflow or invalid operation inside the array closed forms or the
# stacked quadratures fails the test instead of passing with a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_param_validation():
    with pytest.raises(ParityError):
        ArchParams(Place.REAL, 0.0, 0.0, 2)
    with pytest.raises(ParityError):
        mu_arch(Place.COMPLEX, 0.0, 0.0, 0, 3)
    with pytest.raises(RangeError):
        mu_arch(Place.COMPLEX, 0.0, 0.0, 4, 2)
    with pytest.raises(RangeError):
        mu_arch(Place.REAL, 0.0, 0.0, 1, 0)


@pytest.mark.parametrize("s,mu", [(complex("nan"), 0.0), (complex(0, math.inf), 0.0), (0.5j, math.nan), (0.5j, -math.inf)])
def test_param_rejects_non_finite_s_and_mu(s, mu):
    for place in Place:
        with pytest.raises(ValueError, match="finite"):
            ArchParams(place, s, mu, 0)


def test_base_weight_values():
    # the empty product: the eigenvalue is the pure phase of the weight
    assert abs(mu_arch(Place.COMPLEX, 0.37 + 0.21j, 0.8, 2, 2) - (-1.0)) < 1e-12
    assert abs(mu_arch(Place.COMPLEX, 0.0, 0.0, 0, 2) - 1.0) < 1e-12
    # real place, trivial weight at the base point
    assert abs(mu_arch(Place.REAL, 0.0, 0.0, 0, 0) - 1.0) < 1e-12


def test_real_place_example_modulus():
    val = mu_arch(Place.REAL, 0.6j, 0.0, 0, 2)
    a, b = 1 + 1.2j, 1 - 1.2j
    expected = (
        gamma_factor(GammaKind.REAL, a) / gamma_factor(GammaKind.REAL, b)
        * gamma_factor(GammaKind.REAL, b + 2) / gamma_factor(GammaKind.REAL, a + 2)
    )
    assert abs(val - expected) < 1e-13
    assert abs(abs(val) - 1) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=4),
)
def test_axis_unitarity_complex(y, mu, n0, extra):
    n = abs(n0) + 2 * extra
    val = mu_arch(Place.COMPLEX, 1j * y, mu, n0, n)
    assert abs(abs(val) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
def test_axis_unitarity_real(y, mu, n0, extra, flip):
    n = n0 + 2 * extra
    if flip and n:
        n = -n
    val = mu_arch(Place.REAL, 1j * y, mu, n0, n)
    assert abs(abs(val) - 1.0) < 1e-12


def test_product_form_agrees():
    rng = random.Random(4)
    for _ in range(40):
        y, mu = rng.uniform(-3, 3), rng.uniform(-2, 2)
        n0 = rng.randint(-3, 3)
        n = abs(n0) + 2 * rng.randint(0, 4)
        pa = ArchParams(Place.COMPLEX, 1j * y, mu, n0)
        assert abs(mu_arch(Place.COMPLEX, 1j * y, mu, n0, n) - mu_arch_product(pa, n)) < 1e-12
        n0r = rng.randint(0, 1)
        nr = (n0r + 2 * rng.randint(0, 4)) or n0r
        pr = ArchParams(Place.REAL, 1j * y, mu, n0r)
        assert abs(mu_arch(Place.REAL, 1j * y, mu, n0r, nr) - mu_arch_product(pr, nr)) < 1e-12


def test_tate_section_closed_equals_quadrature():
    rng = random.Random(11)
    for n0, n in ((0, 0), (0, 2), (1, 3), (-2, 4)):
        phi = section_su2(n0, n)
        for s in (0.3, 0.25 + 0.1j):
            pa = ArchParams(Place.COMPLEX, s, 0.5, n0)
            for _ in range(3):
                kp = hopf_point(rng.uniform(0.4, 1.1), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
                closed = tate_section_complex(phi, pa, kp, "closed")
                quad = tate_section_complex(phi, pa, kp, "quadrature")
                assert abs(closed - quad) < 1e-8 * max(1.0, abs(closed))


@pytest.mark.parametrize("n_alpha", [16, 24, 32, 40, 48])
def test_angular_trapezoid(n_alpha):
    # n_alpha = 4 * (degree + |n0| + 2) + 8 takes these values in the oracle's sections
    for m in range(-40, 41):
        acc = 0j
        for j in range(n_alpha):
            alpha = 2.0 * math.pi * j / n_alpha
            acc += cmath.exp(1j * m * alpha)
        val = _angular_trapezoid(m, n_alpha)
        assert val == acc * (2.0 * math.pi / n_alpha)
        # aliased to 2 pi when n_alpha divides m; m * alpha is rounded at up to 80 pi
        exact = 2.0 * math.pi if m % n_alpha == 0 else 0.0
        assert abs(val - exact) < 1e-13


def test_tate_section_gamma_value():
    # the base section evaluates to the gamma factor times the harmonic
    pa = ArchParams(Place.COMPLEX, 0.0, 0.0, 0)
    kp = hopf_point(0.7, 0.9, 1.3)
    phi = section_su2(0, 0)
    assert abs(tate_section_complex(phi, pa, kp) - 1 / math.pi) < 1e-13
    # weight-two section: gamma factor times the (0, 2, 0) harmonic value
    phi2 = section_su2(0, 2)
    h = harmonic_su2(0, 2, 0)
    val = tate_section_complex(phi2, pa, kp)
    assert abs(val - gamma_factor(GammaKind.COMPLEX, 2.0) * h(kp)) < 1e-13
    # at the identity the harmonic vanishes, so the section does too
    from intertwine.harmonics import SU2Point

    assert abs(tate_section_complex(phi2, pa, SU2Point(1 + 0j, 0j))) < 1e-15
    # at the balanced point the harmonic is 1/2
    bal = SU2Point(complex(math.sqrt(0.5)), complex(math.sqrt(0.5)))
    assert abs(tate_section_complex(phi2, pa, bal) - gamma_factor(GammaKind.COMPLEX, 2.0) * 0.5) < 1e-13


def test_quadrature_section_skips_unmatched_weights():
    # conj(z2)^3 has angular weight -3, not -n0 = 0: the closed form drops it,
    # and the quadrature must skip it too rather than add trapezoid noise
    phi = PolyGaussian4.monomial((0, 0, 0, 3))
    pa = ArchParams(Place.COMPLEX, 0.3, 0.0, 0)
    kp = hopf_point(0.6, 0.4, 1.2)
    assert tate_section_complex(phi, pa, kp, "closed") == 0j
    assert tate_section_complex(phi, pa, kp, "quadrature") == 0j


def test_real_section_closed_equals_quadrature():
    for n0, n in ((0, 0), (0, 2), (1, 1), (1, -3)):
        phi = section_so2(n)
        pa = ArchParams(Place.REAL, 0.25, -0.3, n0)
        for theta in (0.4, 2.1):
            kp = cmath.exp(1j * theta)
            closed = tate_section_real(phi, pa, kp, "closed")
            quad = tate_section_real(phi, pa, kp, "quadrature")
            assert abs(closed - quad) < 1e-9 * max(1.0, abs(closed))


def test_sections_reject_an_unknown_method_before_their_terms():
    # every term of these integrands is skipped: zero parity at the real
    # place, an angular weight other than -n0 at the complex place
    phi_r, pa_r = section_so2(1), ArchParams(Place.REAL, 0.2, 0.0, 0)
    phi_c, pa_c, kp = PolyGaussian4.monomial((0, 0, 0, 3)), ArchParams(Place.COMPLEX, 0.3, 0.0, 0), hopf_point(0.6, 0.4, 1.2)
    assert tate_section_real(phi_r, pa_r, 1 + 0j) == 0j
    assert tate_section_complex(phi_c, pa_c, kp) == 0j
    with pytest.raises(ValueError, match="unknown method"):
        tate_section_real(phi_r, pa_r, 1 + 0j, method="bogus")
    with pytest.raises(ValueError, match="unknown method"):
        tate_section_complex(phi_c, pa_c, kp, method="bogus")


def test_quadrature_sections_raise_where_the_radial_moment_diverges():
    # the degree-0 radial moment converges only for Re s > -1/2
    kp = hopf_point(0.7, 0.9, 1.3)
    diverges = r"^radial_gaussian_moment requires Re z > 0, got "
    for s in (-0.5, -0.6 + 0.2j):
        with pytest.raises(RangeError, match=diverges):
            tate_section_complex(section_su2(0, 0), ArchParams(Place.COMPLEX, s, 0.0, 0), kp, "quadrature")
        with pytest.raises(RangeError, match=diverges):
            tate_section_real(section_so2(0), ArchParams(Place.REAL, s, 0.0, 0), cmath.exp(0.4j), "quadrature")
    for place in (Place.COMPLEX, Place.REAL):
        with pytest.raises(RangeError, match=diverges):
            mu_arch_oracle(place, -0.6, 0.0, 0, 0)


def test_oracle_matches_closed_form_complex():
    for n0 in range(-2, 3):
        for n in range(abs(n0), 7):
            if (n - n0) % 2:
                continue
            for s in (0.3, 0.25 + 0.1j):
                assert abs(mu_arch(Place.COMPLEX, s, 0.4, n0, n) - mu_arch_oracle(Place.COMPLEX, s, 0.4, n0, n)) < 1e-8


def test_oracle_matches_closed_form_real():
    for n0 in (0, 1):
        for n in (n0, n0 + 2, -(n0 + 2)):
            for s in (0.25, 0.2 - 0.1j):
                assert abs(mu_arch(Place.REAL, s, -0.2, n0, n) - mu_arch_oracle(Place.REAL, s, -0.2, n0, n)) < 1e-8


def test_oracle_raised_sections():
    # a raised section carries the same eigenvalue: the intertwiner commutes
    # with the compact group
    base = mu_arch(Place.COMPLEX, 0.3, 0.0, 1, 3)
    for k in (1, 2):
        assert abs(base - mu_arch_oracle(Place.COMPLEX, 0.3, 0.0, 1, 3, k=k)) < 1e-8


def test_derivative_exact_vs_fd():
    rng = random.Random(6)
    for _ in range(10):
        y = rng.uniform(-2, 2)
        n0 = rng.randint(-2, 2)
        n = abs(n0) + 2 * rng.randint(0, 3)
        exact, fd = mu_arch_derivative(Place.COMPLEX, 1j * y, 0.0, n0, n)
        assert abs(exact - fd) < 1e-5


def test_derivative_zero_at_base_weight():
    pa = ArchParams(Place.COMPLEX, 0.9j, 0.3, 2)
    exact, _ = mu_arch_derivative(pa.place, pa.s, pa.mu, pa.n0, 2)
    assert exact == 0
    assert mu_arch_derivative_bound(pa, 2) == 0.0


def test_derivative_worked_example():
    # weight 4 at the center: the exact sum gives -4 (1/1 + 2/4) = -6 times
    # a unit phase, within the bound 4 (1 + log 2)
    pa = ArchParams(Place.COMPLEX, 0j, 0.0, 0)
    exact, _ = mu_arch_derivative(pa.place, pa.s, pa.mu, pa.n0, 4)
    assert abs(abs(exact) - 6.0) < 1e-12
    bound = mu_arch_derivative_bound(pa, 4)
    assert abs(bound - 4 * (1 + math.log(2))) < 1e-12
    assert abs(exact) <= bound


def test_logderiv_sign():
    # the exact sum is nonpositive on the axis, largest at the base weight
    vals = mu_arch_logderiv(Place.COMPLEX, 0.5j, 0.0, 0, [0, 2, 4, 6])
    assert not vals.imag.any()
    vals = vals.real.tolist()
    assert vals[0] == 0.0
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_inconsistent_ratio_guard():
    # an impossible tolerance turns quadrature noise into a detected
    # sample-point dependence
    with pytest.raises(InconsistentRatio):
        mu_arch_oracle(Place.COMPLEX, 0.3, 0.4, 0, 4, tol=1e-17)


# the (n0, n) shapes of verify's oracle grid at each place
_ORACLE_SHAPES = {
    Place.COMPLEX: [(n0, n) for n0 in range(-2, 3) for n in range(abs(n0), 7) if (n - n0) % 2 == 0],
    Place.REAL: [(n0, n) for n0 in (0, 1) for n in (n0, n0 + 2, -(n0 + 2), n0 + 4)],
}


def _raised(n0, n, k):
    phi = section_su2(n0, n)
    for _ in range(k):
        phi = PolyGaussian4(lie_act_su2(LieGen.XPLUS, phi.poly))
    return phi


def _reference_oracle(params, n, k):
    # the oracle's ratio rebuilt from the public sections at every sample
    # point; the transform lives on the target representation, where s,
    # the twist and the complex weight flip sign
    sw = ArchParams(params.place, -params.s, -params.mu, -params.n0 if params.place is Place.COMPLEX else params.n0)
    # the local L-factors of the character and of its inverse, one point each
    kind, d = (GammaKind.COMPLEX, 2) if params.place is Place.COMPLEX else (GammaKind.REAL, 1)
    l_ratio = gamma_factor(kind, 1 + 2 * params.s + 1j * params.mu + abs(params.n0) / d) / gamma_factor(
        kind, 1 - 2 * params.s + 1j * sw.mu + abs(sw.n0) / d
    )
    ratios = []
    if params.place is Place.COMPLEX:
        phi = _raised(params.n0, n, k)
        phi_hat = fourier_hat_h(phi)
        for kp in arch._KAPPAS:
            denom_h, num_h = harmonic_su2(params.n0, n, k)(kp), harmonic_su2(-params.n0, n, k)(kp)
            if abs(denom_h) < 1e-6 or abs(num_h) < 1e-6:
                continue
            d_val = tate_section_complex(phi, params, kp, "quadrature")
            n_val = tate_section_complex(phi_hat, sw, kp, "quadrature")
            ratios.append(l_ratio * (n_val / num_h) / (d_val / denom_h))
    else:
        phi = section_so2(n)
        for kp in arch._REAL_KAPPAS:
            d_val = tate_section_real(phi, params, kp, "quadrature")
            n_val = tate_section_real(fourier_hat_c(phi), sw, kp, "quadrature")
            ratios.append(l_ratio * n_val / d_val)
    return _consistent_ratio(ratios, 1e-8, "point")


def test_planned_oracle_is_the_ratio_of_the_public_sections():
    for place, shapes in _ORACLE_SHAPES.items():
        mu = 0.4 if place is Place.COMPLEX else -0.2
        for n0, n in shapes:
            for k in range(min(abs(n), 2) + 1) if place is Place.COMPLEX else (0,):
                for s in (0.3, 0.15 - 0.1j):
                    pa = ArchParams(place, s, mu, n0)
                    got, ref = mu_arch_oracle(place, s, mu, n0, n, k), _reference_oracle(pa, n, k)
                    if k == 0:
                        assert _hex(got) == _hex(ref), (pa, n)
                    else:
                        assert abs(got - ref) <= 1e-14 * abs(ref), (pa, n, k)


def _termwise_complex(phi, params, kappa, method):
    # one monomial at a time, each times its own radial integral
    v1, v2 = -kappa.z2.conjugate(), kappa.z1.conjugate()
    v1c, v2c = v1.conjugate(), v2.conjugate()
    s, mu, n0 = params.s, params.mu, params.n0
    n_alpha = 4 * (phi.poly.max_degree() + abs(n0) + 2) + 8
    total = 0j
    for (a, b, c, d), coeff in phi.poly.complex_terms():
        deg = a + b + c + d
        mono = coeff * v1**a * v2**b * v1c**c * v2c**d
        if method == "closed":
            if a + b - c - d == -n0:
                total += mono * gamma_factor(GammaKind.COMPLEX, 1 + 2 * s + 1j * mu + deg / 2)
            continue
        angular = _angular_trapezoid(n0 + a + b - c - d, n_alpha)
        if abs(angular) >= 1e-9:
            rad = radial_gaussian_moment(GammaKind.COMPLEX, 2 + 4 * s + 2j * mu + deg) / 4
            total += mono * (2.0 / math.pi) * angular * rad
    return total


def _termwise_real(phi, params, kappa, method):
    v = 1j * kappa
    s, mu, n0 = params.s, params.mu, params.n0
    total = 0j
    for (a, b), coeff in phi.poly.complex_terms():
        parity = 1.0 + (-1.0) ** (n0 + a + b)
        if parity == 0.0:
            continue
        if method == "closed":
            rad = 0.5 * gamma_factor(GammaKind.REAL, 1 + 2 * s + 1j * mu + a + b)
        else:
            rad = radial_gaussian_moment(GammaKind.REAL, 1 + 2 * s + 1j * mu + a + b) / 2
        total += coeff * v**a * v.conjugate()**b * parity * rad
    return total


def test_sections_sum_by_degree_as_the_termwise_loop_does():
    # at k = 0 every degree holds one matching monomial, so grouping by
    # degree moves no bit; raised sections group several per degree
    for method in ("closed", "quadrature"):
        for n0, n in _ORACLE_SHAPES[Place.COMPLEX]:
            for k in range(min(n, 2) + 1):
                phi = _raised(n0, n, k)
                for f, w0 in ((phi, n0), (fourier_hat_h(phi), -n0)):
                    pa = ArchParams(Place.COMPLEX, 0.2 + 0.1j, 0.4, w0)
                    for kp in arch._KAPPAS:
                        got = tate_section_complex(f, pa, kp, method)
                        ref = _termwise_complex(f, pa, kp, method)
                        if k == 0:
                            assert _hex(got) == _hex(ref), (n0, n, method)
                        else:
                            assert abs(got - ref) <= 1e-14 * abs(ref), (n0, n, k, method)
        for n0, n in _ORACLE_SHAPES[Place.REAL]:
            phi = section_so2(n)
            pa = ArchParams(Place.REAL, 0.2 + 0.1j, -0.2, n0)
            for f in (phi, fourier_hat_c(phi)):
                for kp in arch._REAL_KAPPAS:
                    assert _hex(tate_section_real(f, pa, kp, method)) == _hex(_termwise_real(f, pa, kp, method))


def test_oracle_plan_holds_shape_data_only(monkeypatch):
    point = (Place.COMPLEX, 0.2 + 0.1j, 0.4, 1, 3)
    warm = mu_arch_oracle(*point, k=1)
    arch._plan.cache_clear()
    assert _hex(mu_arch_oracle(*point, k=1)) == _hex(warm)
    # other s and mu reuse the one entry of the shape
    for s, mu in ((0.3, 0.4), (0.15 - 0.1j, -1.0)):
        mu_arch_oracle(Place.COMPLEX, s, mu, 1, 3, k=1)
    assert arch._plan.cache_info().currsize == 1

    def assert_tuples(x):
        if isinstance(x, tuple):
            for item in x:
                assert_tuples(item)
        else:
            assert type(x) in (int, float, complex), type(x)

    for key in ((Place.COMPLEX, 1, 3, 1), (Place.COMPLEX, -2, 4, 0), (Place.REAL, 1, -3, 0)):
        assert_tuples(arch._plan(*key))
    # the planned path never reads the closed form it checks
    for name in ("mu_arch", "_mu_values"):
        monkeypatch.setattr(arch, name, None)
    assert _hex(mu_arch_oracle(*point, k=1)) == _hex(warm)


def _oracle_grid(place, ss):
    # the first four shapes of verify's grid at each s, as flat columns
    return [list(col) for col in zip(*((s, n0, n) for s in ss for n0, n in _ORACLE_SHAPES[place][:4]))]


def test_oracle_batch_is_its_points_bit_for_bit(monkeypatch):
    # a grid of each place at s and mu not used elsewhere, so its moments
    # are new: one array moment call per place, and each point's value is
    # its one-point call's
    calls = []
    moments = arch.radial_gaussian_moment

    def counted(kind, z):
        calls.append((kind, np.shape(z)))
        return moments(kind, z)

    monkeypatch.setattr(arch, "radial_gaussian_moment", counted)
    for place, mu in ((Place.COMPLEX, 0.35), (Place.REAL, -0.45)):
        calls.clear()
        ss, n0s, ns = _oracle_grid(place, (0.27, 0.18 - 0.07j))
        values = mu_arch_oracle(place, ss, mu, n0s, ns)
        assert [kind for kind, _ in calls] == [arch._GAMMA[place][0]]
        one_by_one = [mu_arch_oracle(place, s, mu, n0, n) for s, n0, n in zip(ss, n0s, ns)]
        assert [_hex(v) for v in values.tolist()] == [_hex(v) for v in one_by_one]
        # every point is checked before any moment is computed
        calls.clear()
        with pytest.raises(ParityError):
            mu_arch_oracle(place, ss[:2], mu, n0s[:2], [ns[0], ns[1] + 1])
        assert calls == []


def test_oracle_takes_its_l_factors_in_one_gamma_call_per_place(monkeypatch):
    # a call holds one place: every point's L-factor ratio from one array
    # gamma_factor call, each ratio bit for bit its one-point value
    calls = []
    real = arch.gamma_factor

    def counted(kind, s):
        calls.append((kind, np.shape(s)))
        return real(kind, s)

    monkeypatch.setattr(arch, "gamma_factor", counted)
    for place, mu in ((Place.REAL, 0.25), (Place.COMPLEX, -0.3)):
        calls.clear()
        ss = [0.22, 0.31 + 0.04j] * 5
        n0s, ns = zip(*(_ORACLE_SHAPES[place][:5] * 2))
        values = mu_arch_oracle(place, ss, mu, n0s, ns)
        assert calls == [(arch._GAMMA[place][0], (2 * 10,))]
        one_by_one = [mu_arch_oracle(place, s, mu, n0, n) for s, n0, n in zip(ss, n0s, ns)]
        assert [_hex(v) for v in values.tolist()] == [_hex(v) for v in one_by_one]
        assert len(calls) == 1 + 10


def test_l_factor_ratio_outside_float_range_raises_range_error(monkeypatch):
    # the oracle's L-factor ratio overflows at s = 130.3: RangeError before
    # any moment is computed
    def never(*args):
        pytest.fail("a moment was computed")

    monkeypatch.setattr(arch, "radial_gaussian_moment", never)
    with pytest.raises(RangeError, match=r"^mu_arch_oracle: gamma ratio leaves float range at y = 0, n = 0$"):
        mu_arch_oracle(Place.REAL, [0.3, 130.3], 0.0, 0, 0)
    # the closed section's gamma factors overflow at s = 200
    with pytest.raises(RangeError, match="gamma factor leaves float range at s = 200"):
        tate_section_complex(section_su2(0, 2), ArchParams(Place.COMPLEX, 200.0), hopf_point(0.6, 0.4, 1.2))


@pytest.mark.parametrize("place,n0,n", [(Place.COMPLEX, 0, 4), (Place.REAL, 1, -3)])
def test_oracle_fails_when_one_sample_point_turns_its_phase(place, n0, n, monkeypatch):
    # e^(i 1e-6) at one sample point is a sample-point dependence of 1e-6,
    # 100 times the default tolerance
    mu_arch_oracle(place, 0.3, 0.4, n0, n)
    rows = list(arch._plan(place, n0, n, 0))
    harmonics, den_w, num_w = rows[1]
    rows[1] = (harmonics, den_w, tuple((deg, w * cmath.exp(1e-6j)) for deg, w in num_w))
    monkeypatch.setattr(arch, "_plan", lambda *key: tuple(rows))
    with pytest.raises(InconsistentRatio):
        mu_arch_oracle(place, 0.3, 0.4, n0, n)


def test_unnormalized_variant(monkeypatch):
    # removing the L-factor normalization multiplies by the inverse ratio, as
    # mu_arch's docstring states: the oracle with its L-factor ratios set to
    # 1 is the unnormalized eigenvalue, and at the complex place with
    # trivial weight the inverse ratio is a gamma-factor ratio
    s, mu = 0.2, 0.3
    r = mu_arch(Place.COMPLEX, s, mu, 0, 2)
    monkeypatch.setattr(arch, "_l_ratios", lambda place, points: [1.0] * len(points))
    m = mu_arch_oracle(Place.COMPLEX, s, mu, 0, 2)
    ratio = gamma_factor(GammaKind.COMPLEX, 1 - 2 * s - 1j * mu) / gamma_factor(GammaKind.COMPLEX, 1 + 2 * s + 1j * mu)
    assert abs(m - r * ratio) < 1e-12


def _frozen_mu(params, n):
    # the four-gamma expression evaluated left to right on one-point arrays,
    # sign included at both places, as mu_arch evaluates every point of an
    # array; any change in operation order shows as a bit difference
    s, mu, n0 = np.array([params.s]), np.array([params.mu]), params.n0
    a = 1 + 2 * s + 1j * mu
    b = 1 - 2 * s - 1j * mu
    sign = (-1.0) ** ((abs(n) - n) // 2)
    if params.place is Place.COMPLEX:
        h = abs(n0) / 2
        c = GammaKind.COMPLEX
        val = (
            gamma_factor(c, a + h) / gamma_factor(c, b + h) * (1 + 0j, 1j, -1 + 0j, -1j)[n0 % 4] * sign
            * gamma_factor(c, b + n / 2) / gamma_factor(c, a + n / 2)
        )
    else:
        c = GammaKind.REAL
        val = (
            gamma_factor(c, a + n0) / gamma_factor(c, b + n0) * sign
            * gamma_factor(c, b + abs(n)) / gamma_factor(c, a + abs(n))
        )
    return complex(val[0])


def _frozen_logderiv(params, n):
    t = 2 * params.s.imag + params.mu
    total = 0.0
    if params.place is Place.COMPLEX:
        h = abs(params.n0) / 2
        for k in range((n - abs(params.n0)) // 2):
            c = 1 + h + k
            total -= 4 * c / (t * t + c * c)
    else:
        for k in range((abs(n) - params.n0) // 2):
            c = 1 + params.n0 + 2 * k
            total -= 4 * c / (t * t + c * c)
    return total


# s on the unitary axis and off it: mu_arch takes both, the log derivative
# (and so the derivative) only the first
_AXIS_S = (0.0j, 1.7j, -0.45j)
_OFF_AXIS_S = (0.13 + 0.4j, 0.2)


def _column_cases(ss=_AXIS_S + _OFF_AXIS_S):
    # every complex n0 in -4..4 and both real parities; weights unsorted,
    # negative ones at the real place; mu = 0 and not
    for s in ss:
        for mu in (0.0, 0.7, -1.3):
            for n0 in range(-4, 5):
                m = abs(n0)
                yield ArchParams(Place.COMPLEX, s, mu, n0), [m + 6, m, m + 2, m + 30, m + 4, m]
            yield ArchParams(Place.REAL, s, mu, 0), [4, -6, 0, 2, -2, 40, -40]
            yield ArchParams(Place.REAL, s, mu, 1), [5, -1, 1, -7, 3, 39, -41]


def test_column_is_bit_identical_to_single_weights():
    cases = 0
    for params, ns in _column_cases():
        col = mu_arch(params.place, params.s, params.mu, params.n0, ns)
        for i, n in enumerate(ns):
            one = mu_arch(params.place, params.s, params.mu, params.n0, n)
            assert col[i] == one == _frozen_mu(params, n), (params, n)
            cases += 1
    assert cases == 5 * 3 * (9 * 6 + 2 * 7)
    for params, ns in _column_cases(_AXIS_S):
        ld = mu_arch_logderiv(params.place, params.s, params.mu, params.n0, ns)
        for i, n in enumerate(ns):
            one = mu_arch_logderiv(params.place, params.s, params.mu, params.n0, n)
            assert ld[i] == one == _frozen_logderiv(params, n), (params, n)
            assert _hex(one) == (_frozen_logderiv(params, n).hex(), "0x0.0p+0"), (params, n)
    for f in (mu_arch, mu_arch_logderiv):
        assert f(Place.REAL, 0.5j, 0.0, 0, []).tolist() == []


def test_log_derivative_raises_off_the_axis():
    # the sum reads only Im s; off the axis it would give the value at i Im s
    # (at 0.2 + i, complex place, n = 4: -1.8, and a derivative 0.9746 -
    # 0.8021i against its own central difference 1.1326 - 0.5269i)
    on_axis = r"s on the unitary axis \(\|Re s\| <= 1e-14\)"
    for f in (mu_arch_logderiv, mu_arch_derivative):
        with pytest.raises(RangeError, match=rf"^{f.__name__} requires {on_axis}, got \(0.2\+1j\)$"):
            f(Place.COMPLEX, 0.2 + 1j, 0.0, 0, 4)
        with pytest.raises(RangeError, match=rf"^{f.__name__} requires {on_axis}, got \(0.13\+0.4j\) at index \(1,\)$"):
            f(Place.REAL, [0.5j, 0.13 + 0.4j, 0.2], 0.0, 0, 2)
        for params, ns in _column_cases(_OFF_AXIS_S):
            with pytest.raises(RangeError, match=rf"^{f.__name__} requires {on_axis}, got "):
                f(params.place, params.s, params.mu, params.n0, ns)
        # the axis test of mu_arch_product
        f(Place.REAL, complex(1e-14, 0.5), 0.0, 0, 2)
        with pytest.raises(RangeError, match=on_axis):
            f(Place.REAL, complex(2e-14, 0.5), 0.0, 0, 2)
    mu_arch_product(ArchParams(Place.REAL, complex(1e-14, 0.5)), 2)
    with pytest.raises(ValueError, match="unitary axis"):
        mu_arch_product(ArchParams(Place.REAL, complex(2e-14, 0.5)), 2)


def test_product_form_names_itself_and_the_point_off_the_axis():
    on_axis = r"s on the unitary axis \(\|Re s\| <= 1e-14\)"
    with pytest.raises(RangeError, match=rf"^mu_arch_product requires {on_axis}, got \(0.2\+1j\)$"):
        mu_arch_product(ArchParams(Place.COMPLEX, 0.2 + 1j), 4)


def test_complex_section_names_itself_and_the_place_it_got():
    with pytest.raises(ValueError, match=r"^tate_section_complex requires the complex place, got 'real'$"):
        tate_section_complex(section_su2(0, 0), ArchParams(Place.REAL, 0.2), hopf_point(0.6, 0.4, 1.2))


def test_real_section_names_itself_and_the_place_it_got():
    with pytest.raises(ValueError, match=r"^tate_section_real requires the real place, got 'complex'$"):
        tate_section_real(section_so2(0), ArchParams(Place.COMPLEX, 0.2), 1 + 0j)


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_column_is_bitwise_the_frozen_expression_signed_zeros_included():
    # == reads -0.0 as 0.0, but a table prints them as -0 and 0: one loop
    # for both places must keep the sign of every zero part too
    zeros = 0
    for params, ns in _column_cases():
        col = mu_arch(params.place, params.s, params.mu, params.n0, ns)
        for i, n in enumerate(ns):
            assert _hex(col[i]) == _hex(_frozen_mu(params, n)), (params, n)
            zeros += col[i].imag == 0
    assert zeros > 0


def test_column_checks_every_weight():
    for f in (mu_arch, mu_arch_logderiv, mu_arch_derivative, mu_arch_oracle):
        with pytest.raises(ParityError):
            f(Place.COMPLEX, 0.5j, 0.0, 0, [0, 2, 3])
        with pytest.raises(RangeError):
            f(Place.COMPLEX, 0.5j, 0.0, 4, [4, 6, 2])
        with pytest.raises(RangeError):
            f(Place.REAL, 0.5j, 0.0, 1, [1, -1, 0])


def test_column_range_error_names_an_overflowing_weight():
    # the shared head underflows at y = 400: the first weight is named
    with pytest.raises(RangeError, match=r"y = 400, n = 10$"):
        mu_arch(Place.COMPLEX, 400j, 0.0, 0, [10, 2])
    # only the weight-400 ratio overflows at y = 1
    with pytest.raises(RangeError, match=r"y = 1, n = 400$"):
        mu_arch(Place.COMPLEX, 1j, 0.0, 0, [2, 400, 4])
    with pytest.raises(RangeError, match=r"n = -400$"):
        mu_arch(Place.REAL, 1j, 0.0, 0, [2, -400])


def test_many_range_error_names_the_first_overflowing_point():
    # one element of an array leaves float range: RangeError names its y and
    # n, and no RuntimeWarning comes from the inf and nan left in the array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"y = 1, n = 400$"):
            mu_arch(Place.COMPLEX, [0.5j, 1j, 2j, 1j], 0.3, [0, 0, 2, 0], [2, 400, 4, 500])
        with pytest.raises(RangeError, match=r"y = -2, n = -402$"):
            mu_arch(Place.REAL, [0.5j, -2j], 0.0, 0, [2, -402])
        with pytest.raises(RangeError, match=r"y = 300, n = 0$"):
            mu_arch_derivative(Place.COMPLEX, [1j, 300j], 0.0, 0, [2, 0])
        # the same points one by one: only the overflowing one fails
        vals = mu_arch(Place.COMPLEX, [0.5j, 2j], 0.3, [0, 2], [2, 4])
    assert np.allclose(np.abs(vals), 1.0, rtol=0, atol=1e-14)


def test_many_checks_every_point_as_the_scalar_form_does():
    with pytest.raises(ParityError):
        mu_arch(Place.COMPLEX, [0.5j, 0.5j], 0.0, 0, [2, 3])
    with pytest.raises(RangeError):
        mu_arch(Place.COMPLEX, 0.5j, 0.0, [0, 4], [2, 2])
    with pytest.raises(ParityError, match="must be 0 or 1"):
        mu_arch(Place.REAL, 0.5j, 0.0, [0, 2], [2, 2])
    with pytest.raises(RangeError, match=r"^mu_arch requires finite s, got infj at index \(1,\)$"):
        mu_arch(Place.REAL, [0.5j, complex(0, math.inf)], 0.0, 0, 0)
    with pytest.raises(RangeError, match=r"^mu_arch requires finite mu, got nan at index \(1,\)$"):
        mu_arch(Place.REAL, 0.5j, [0.0, math.nan], 0, 0)
    # a complex twist is refused, never cast to its real part
    for mu in (0.3 + 1j, [0.0, 0.3 + 1j], np.array([0.3 + 0j])):
        with pytest.raises(TypeError, match=r"^mu_arch requires real mu, got complex128$"):
            mu_arch(Place.REAL, 0.5j, mu, 0, 0)
    assert mu_arch(Place.REAL, [], 0.0, 0, []).shape == (0,)


def test_derivative_checks_its_points_once(monkeypatch):
    # mu_arch_derivative flattens and checks its points in one _stack call,
    # then evaluates mu at s and s +- h on those checked arrays
    calls = []
    stack = arch._stack

    def counted(name, *args, **kwargs):
        calls.append(name)
        return stack(name, *args, **kwargs)

    monkeypatch.setattr(arch, "_stack", counted)
    exact, fd = mu_arch_derivative(Place.COMPLEX, [0.5j, -1.2j], 0.3, [0, 1], [4, 5])
    assert calls == ["mu_arch_derivative"]
    assert exact.shape == fd.shape == (2,)
    for i, (s, n0, n) in enumerate(((0.5j, 0, 4), (-1.2j, 1, 5))):
        one = mu_arch(Place.COMPLEX, s, 0.3, n0, n) * mu_arch_logderiv(Place.COMPLEX, s, 0.3, n0, n)
        assert _hex(complex(exact[i])) == _hex(one)
