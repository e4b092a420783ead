"""Verification suites: every closed form against its independent oracle.

Each suite returns a Report whose cases pair a closed-form value with an
independently computed one (quadrature, exact finite sum, finite difference,
or a structural identity).  This module is the one place that says what is
checked, at what size and to what tolerance.  Each case states its tolerance
once, as a literal or as its suite's entry in SUITE_TOLERANCES, and nothing
overrides it.  The command line runs the suites at DEFAULT_SIZES; the
acceptance tests run them at ACCEPTANCE_SIZES, which draw more samples over
wider ranges, and read the verdict of each acceptance criterion off the
cases that CRITERIA assigns to it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import classical as cl
from . import globalq as gl
from .arch import (
    ArchParams,
    Place,
    mu_arch_derivative,
    mu_arch,
    mu_arch_derivative_bound,
    mu_arch_logderiv,
    mu_arch_oracle,
    mu_arch_product,
)
from .exact import PiLaurent, VarPoly
from .harmonics import (
    LieGen,
    gram_matrix,
    haar_integrate_su2,
    harmonic_su2,
    lie_act_su2,
    norm_su2_closed,
    normalized_harmonic_su2,
)
from .numerics import (
    GammaKind,
    bessel_k,
    bessel_k_alt,
    gamma_factor,
    kernel_ka,
    kernel_ka_quad,
    limit_at_zero,
    quad_halfline,
    radial_gaussian_moment,
    trapezoid,
)
from .padic import (
    AddChar,
    CharAtom,
    FiniteParams,
    MultChar,
    SimpleFunction,
    TailAtom,
    classical_vector,
    fourier_atom,
    fourier_bruteforce,
    gauss_sum,
    gauss_sums,
    iota_normalization,
    level_membership,
    mu_finite,
    mu_finite_derivative,
    mu_finite_derivative_bound,
    mu_finite_oracle,
    orbit_measures,
    unit_additive_integral,
    unramified_params,
)
from .reports import Case, Report, flag_case, scalar_case

@dataclass(frozen=True)
class Sizes:
    """The sample counts, ranges and tolerances in which the default run and
    the acceptance run differ; everything else is fixed in the suites."""

    unitary_samples: int = 60  # arch axis points per place
    unitary_y: float = 4.0  # |y| bound of the axis points, arch and padic
    padic_n_span: int = 3  # levels c .. c + span - 1 in the padic unitarity and derivative checks
    padic_deriv_draws: int = 1  # random padic derivative points per (p, shape)
    deriv_samples: int = 30  # arch derivative points per place
    deriv_ranges: tuple[float, int, int] = (2.0, 2, 3)  # |y|, |n0| and ladder steps of those points
    oracle_real_s: int = 3  # s values of the real-place oracle check
    # padic oracle points (s, mu, psi_c); a psi_c of None is drawn from the suite's rng
    oracle_points: tuple[tuple[complex, float, int | None], ...] = ((0.25 + 0.1j, 0.3, None),)
    dualrep_samples: int = 8  # Bessel points also checked against the dual representation
    kernel_pairs: tuple[tuple[float, complex], ...] = ((1.0, 1.0 + 0j), (1.5, 1.0 + 2.0j), (1.25, 1.0 - 1.0j))
    nonvanish_kinds: tuple[GammaKind, ...] = (GammaKind.COMPLEX,)
    norm_triples: tuple[tuple[int, int, int], ...] = ((0, 2, 1), (2, 2, 0), (1, 3, 2), (-2, 4, 1), (0, 4, 4))
    support_n_max: int = -1  # last n of the unit-integral support window
    fourier_psi_cs: tuple[int | None, ...] = (None,)  # additive conductors of the transform checks; None is drawn
    fourier_pointwise_tol: float = 1e-13
    fourier_negval_double: bool = False  # double transform of a second function with an atom at valuation -2
    level_offsets: tuple[int, ...] = (1,)  # classical vectors c + k whose level boundary is checked
    ms_points: tuple[tuple[float, float], ...] = ((0.7, 2.0), (1.5, 3.0))  # truncated-norm (y, c)
    height_ranges: tuple[float, int] = (8.0, 200)  # |x| at the real place, |numerator| at p = 5


DEFAULT_SIZES = Sizes()
ACCEPTANCE_SIZES = Sizes(
    unitary_samples=200,
    unitary_y=5.0,
    padic_n_span=4,
    padic_deriv_draws=2,
    deriv_samples=100,
    deriv_ranges=(3.0, 3, 4),
    oracle_real_s=5,
    oracle_points=((0.25 + 0.1j, 0.3, 0), (0.2, -0.4, 1)),
    dualrep_samples=20,
    kernel_pairs=DEFAULT_SIZES.kernel_pairs + ((1.75, 1.0 + 0.4j),),
    nonvanish_kinds=(GammaKind.COMPLEX, GammaKind.REAL),
    norm_triples=DEFAULT_SIZES.norm_triples + ((1, 3, 1), (-2, 4, 2), (0, 4, 0)),
    support_n_max=0,
    fourier_psi_cs=(0, 1),
    fourier_pointwise_tol=1e-14,
    fourier_negval_double=True,
    level_offsets=(0, 1),
    ms_points=DEFAULT_SIZES.ms_points + ((0.4, 1.5),),
    height_ranges=(9.0, 300),
)


class Criterion(NamedTuple):
    """An acceptance criterion: the cases whose key starts with one of
    `prefixes` must all pass, and where `gate_s` is set, the suites holding
    them must finish within that many seconds in total."""

    title: str
    prefixes: tuple[str, ...]
    gate_s: float | None = None

    @property
    def suites(self) -> tuple[str, ...]:
        return tuple(name for name in SUITE_NAMES if any(p.startswith(name + "/") for p in self.prefixes))


CRITERIA = {
    1: Criterion("axis unitarity", ("arch/unitary-", "padic/unitary/"), gate_s=10.0),
    2: Criterion("closed forms against oracles", ("arch/gamma", "arch/product-form/", "arch/oracle-", "padic/oracle/"),
                 gate_s=120.0),
    3: Criterion("harmonic orthonormality", ("harmonics/",)),
    4: Criterion("Gauss sums", ("padic/gauss-",)),
    5: Criterion("p-adic Fourier transform", ("padic/fourier-",)),
    6: Criterion("classical vectors", ("padic/vector-", "padic/orbit-additivity/", "padic/iota-measure/")),
    7: Criterion("derivative bounds", ("arch/deriv-", "padic/deriv-bound/")),
    8: Criterion("Bessel functions and kernels", ("arch/bessel-", "arch/kernel-")),
    9: Criterion("Maass-Selberg limit", ("global/ms-",)),
    10: Criterion("global layer", ("global/lambda-2", "global/functional-equation", "global/schwarz-reflection",
                                   "global/mu-", "global/residue-", "global/laplace-", "global/height-",
                                   "global/sobolev-")),
    11: Criterion("classical line", ("classical/",)),
}


def _nth(key: str, j: int) -> str:
    """Key of the j-th variant of a case; the first keeps the plain key."""
    return f"{key}/{j}" if j else key


# ---------------------------------------------------------------------------


def _random_poly_gaussian(rng: random.Random) -> cl.PolyGaussian1D:
    coeffs = {}
    for n in range(rng.randint(1, 4)):
        coeffs[n] = PiLaurent.rational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
    q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return cl.PolyGaussian1D(coeffs, q)


def suite_classical(seed: int = 0, sizes: Sizes = DEFAULT_SIZES) -> Report:
    tol = SUITE_TOLERANCES["classical"]
    rng = random.Random(seed)
    cases: list[Case] = []

    # Plancherel on the span, quadrature on both sides
    for i in range(6):
        f = _random_poly_gaussian(rng)
        lhs = cl.l2_norm_sq(f)
        rhs = cl.l2_norm_sq(cl.ft_1d(f))
        cases.append(scalar_case(f"classical/plancherel/{i}", {"q": f.q}, lhs, rhs, tol))

    # exact involution, recorded as a flag
    for i in range(6):
        f = _random_poly_gaussian(rng)
        ok = cl.ft_1d(cl.ft_1d(f)) == f.reflected()
        cases.append(flag_case(f"classical/involution/{i}", {"q": f.q}, ok))

    # the mollifier family: unit mass and the transform image
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        v = cl.dirac_family(eps)
        cases.append(scalar_case(f"classical/dirac-mass/eps={eps}", {"eps": eps}, cl.integrate(v), 1.0, 1e-10))
        ok = cl.ft_1d(v) == cl.PolyGaussian1D({0: 1}, eps * eps)
        cases.append(flag_case(f"classical/dirac-hat/eps={eps}", {"eps": eps}, ok))

    # mollification deficits strictly decreasing for the indicator
    ind = lambda xs: ((np.asarray(xs) >= -1.0) & (np.asarray(xs) <= 1.0)).astype(float)
    deficits = [cl.mollify_deficit(ind, e, 2.0) for e in (0.4, 0.2, 0.1, 0.05)]
    dec = all(a > b for a, b in zip(deficits, deficits[1:]))
    cases.append(flag_case("classical/mollify-monotone", {"deficits": [round(d, 6) for d in deficits]}, dec))

    # pointwise inversion probe at a continuity point
    bump = lambda xs: np.exp(-np.asarray(xs, dtype=float) ** 2)
    probes = [abs(cl.point_mollification(bump, 0.3, e) - bump(np.array([0.3]))[0]) for e in (0.4, 0.2, 0.1, 0.05)]
    cases.append(flag_case("classical/pointwise-inversion", {"errs": [f"{p:.2e}" for p in probes]},
                           all(a > b for a, b in zip(probes, probes[1:]))))

    # decay of the discrete transform
    h0 = cl.decay_check(bump, 0)
    l1 = float(trapezoid(bump(np.linspace(-6, 6, 4097)), np.linspace(-6, 6, 4097)))
    cases.append(flag_case("classical/decay-l1", {"sup": f"{h0:.4f}", "l1": f"{l1:.4f}"}, h0 <= l1 + 1e-6))
    cases.append(flag_case("classical/decay-zero", {}, cl.decay_check(lambda xs: 0.0 * np.asarray(xs), 2) == 0.0))

    return Report("classical", seed, cases)


def suite_harmonics(seed: int = 0, sizes: Sizes = DEFAULT_SIZES) -> Report:
    tol = SUITE_TOLERANCES["harmonics"]
    cases: list[Case] = []

    # Gram matrix of all normalized harmonics with n <= 4
    harms = []
    for n in range(5):
        for n0 in range(-n, n + 1, 2):
            for k in range(n + 1):
                harms.append(normalized_harmonic_su2(n0, n, k))
    G = gram_matrix(harms)
    dev = float(abs(G - np.eye(len(harms))).max())
    cases.append(scalar_case("harmonics/gram-identity", {"count": len(harms)}, dev, 0.0, tol))

    # closed norms against quadrature
    for (n0, n, k) in sizes.norm_triples:
        h = harmonic_su2(n0, n, k)
        conj_poly = VarPoly(4, {(c, d, a, b): coeff.conjugate() for (a, b, c, d), coeff in h.poly.terms.items()})
        quad = haar_integrate_su2(h.poly * conj_poly).real
        cases.append(
            scalar_case(f"harmonics/norm/{n0},{n},{k}", {"n0": n0, "n": n, "k": k}, norm_su2_closed(n0, n, k), quad, tol)
        )

    # exact ladder relation through n = 6
    ok = True
    for n0 in range(-6, 7):
        for n in range(abs(n0), 7):
            if (n - n0) % 2:
                continue
            for k in range(n):
                lhs = lie_act_su2(LieGen.XPLUS, harmonic_su2(n0, n, k))
                if not (lhs == harmonic_su2(n0, n, k + 1).poly.scale(n - k)):
                    ok = False
    cases.append(flag_case("harmonics/ladder-exact", {"n_max": 6}, ok))

    # weight identities
    ok = True
    for (n0, n, k) in ((1, 5, 2), (-3, 5, 0), (0, 6, 3)):
        h = harmonic_su2(n0, n, k)
        ok = ok and lie_act_su2(LieGen.LH, h) == h.poly.scale(PiLaurent.rational(0, -n0))
        ok = ok and lie_act_su2(LieGen.RH, h) == h.poly.scale(PiLaurent.rational(0, n - 2 * k))
        ok = ok and lie_act_su2(LieGen.XMINUS, harmonic_su2(n0, n, 0)).is_zero()
    cases.append(flag_case("harmonics/weights-exact", {}, ok))

    # measure calibration: 8 pi^2 int exp(-r^2) r^3 dr = 4 pi^2 over the sphere
    radial = quad_halfline(lambda r: np.exp(-r * r) * r**3).real
    total = 8 * math.pi**2 * radial * haar_integrate_su2(VarPoly.monomial(4, (0, 0, 0, 0))).real
    cases.append(scalar_case("harmonics/measure-constant", {}, total, 4 * math.pi**2, 1e-8 * 4 * math.pi**2))

    # simple Haar values
    cases.append(scalar_case("harmonics/haar-one", {}, haar_integrate_su2(VarPoly.monomial(4, (0, 0, 0, 0))), 1.0, 1e-10))
    cases.append(scalar_case("harmonics/haar-z1sq", {}, haar_integrate_su2(VarPoly.monomial(4, (1, 0, 1, 0))), 0.5, 1e-10))
    cases.append(scalar_case("harmonics/haar-phase", {}, haar_integrate_su2(VarPoly.monomial(4, (1, 0, 0, 1))), 0.0, 1e-12))

    return Report("harmonics", seed, cases)


def suite_arch(seed: int = 0, sizes: Sizes = DEFAULT_SIZES) -> Report:
    tol = SUITE_TOLERANCES["arch"]
    rng = random.Random(seed)
    cases: list[Case] = []

    # gamma-factor calibrations against quadrature
    for z in (2.0, 4.0, 3.0 + 1.0j):
        cases.append(
            scalar_case(
                f"arch/gammaC-radial/{z}", {"z": z},
                gamma_factor(GammaKind.COMPLEX, z / 2), radial_gaussian_moment(GammaKind.COMPLEX, z), 1e-10,
            )
        )
        cases.append(
            scalar_case(
                f"arch/gammaR-radial/{z}", {"z": z},
                gamma_factor(GammaKind.REAL, z), radial_gaussian_moment(GammaKind.REAL, z), 1e-10,
            )
        )
    s0 = 1.3 + 0.7j
    cases.append(
        scalar_case(
            "arch/gammaC-recursion", {"s": s0},
            gamma_factor(GammaKind.COMPLEX, s0 + 1), s0 / (2 * math.pi) * gamma_factor(GammaKind.COMPLEX, s0), 1e-12,
        )
    )

    # Bessel symmetry and dual representation: every point drawn first,
    # then one stacked call each for K_nu, K_-nu and the dual representation
    points = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.3, 4.0)) for _ in range(20)]
    nus, ys = (np.array(v) for v in zip(*points))
    dual = sizes.dualrep_samples
    k_pos, k_neg = bessel_k(nus, ys).tolist(), bessel_k(-nus, ys).tolist()
    k_alt = bessel_k_alt(nus[:dual], ys[:dual]).tolist()
    for i, (nu, yv) in enumerate(points):
        cases.append(scalar_case(f"arch/bessel-sym/{i}", {"nu": nu, "y": yv}, k_pos[i], k_neg[i], 1e-12))
        if i < dual:
            cases.append(scalar_case(f"arch/bessel-dualrep/{i}", {"nu": nu, "y": yv}, k_pos[i], k_alt[i], 1e-10))

    # kernel identities and the nonvanishing scan, one stacked call per kind
    # and side
    a_s, w_s = (np.array(v) for v in zip(*sizes.kernel_pairs))
    for kind in (GammaKind.COMPLEX, GammaKind.REAL):
        closed, quad = kernel_ka(kind, a_s, w_s).tolist(), kernel_ka_quad(kind, a_s, w_s).tolist()
        for i, (a, w) in enumerate(sizes.kernel_pairs):
            cases.append(scalar_case(f"arch/kernel-quad/{kind.value}/{a}/{w}", {"a": a, "w": w}, closed[i], quad[i], 1e-9))
    # existence scan on moderate axis points; the kernel decays like
    # exp(-pi |y|) in the order, so large y needs rescaled thresholds
    scan_y, scan_a = (0.0, 0.5, 2.0, 3.5), (1.0, 1.25, 1.5, 1.75)
    for kind in sizes.nonvanish_kinds:
        values = kernel_ka(kind, np.tile(scan_a, len(scan_y)), np.array([1 + 2j * yv for yv in scan_y for _ in scan_a]))
        for yv, row in zip(scan_y, values.reshape(len(scan_y), len(scan_a)).tolist()):
            best = max(abs(v) for v in row)
            place = "" if kind is GammaKind.COMPLEX else f"{kind.value}/"
            cases.append(flag_case(f"arch/kernel-nonvanish/{place}y={yv}", {"best": f"{best:.3e}"}, best > 1e-8))

    # unitarity on the axis: every point drawn first, then one closed-form
    # call per place
    draws = []
    for _ in range(sizes.unitary_samples):
        y = rng.uniform(-sizes.unitary_y, sizes.unitary_y)
        mu = rng.uniform(-2, 2)
        draws.append((y, mu, _complex_weight(rng, 3, 4), _real_weight(rng, 4)))
    ys, mus, complex_weights, real_weights = zip(*draws)
    mcs = mu_arch(Place.COMPLEX, 1j * np.array(ys), mus, *zip(*complex_weights))
    mrs = mu_arch(Place.REAL, 1j * np.array(ys), mus, *zip(*real_weights))
    for i, (y, mu, (n0, n), (n0r, nr)) in enumerate(draws):
        mc = complex(mcs[i])
        cases.append(scalar_case(f"arch/unitary-complex/{i}", {"y": y, "n0": n0, "n": n}, abs(mc), 1.0, 1e-12))
        cases.append(scalar_case(f"arch/unitary-real/{i}", {"y": y, "n0": n0r, "n": nr}, abs(mrs[i]), 1.0, 1e-12))
        pc = ArchParams(Place.COMPLEX, 1j * y, mu, n0)
        cases.append(
            scalar_case(f"arch/product-form/{i}", {"y": y, "n0": n0, "n": n}, mc, mu_arch_product(pc, n), 1e-12)
        )

    # closed form against the transform-pipeline oracle; each place's fixed
    # grid of shapes takes one closed-form call and one oracle call
    s_values = (0.3, 0.25, 0.2 + 0.1j, 0.15 - 0.1j, 0.35 + 0.05j)
    grids = {
        Place.COMPLEX: (0.4, [(n0, n, j, s) for n0 in range(-2, 3) for n in range(abs(n0), 7) if (n - n0) % 2 == 0
                              for j, s in enumerate(s_values)]),
        Place.REAL: (-0.2, [(n0, n, j, s) for n0 in (0, 1) for n in (n0, n0 + 2, -(n0 + 2), n0 + 4)
                            for j, s in enumerate(s_values[:sizes.oracle_real_s])]),
    }
    for place, (mu, grid) in grids.items():
        n0s, ns, _, ss = zip(*grid)
        closed = mu_arch(place, ss, mu, n0s, ns)
        oracle = mu_arch_oracle(place, ss, mu, n0s, ns).tolist()
        for (n0, n, j, s), value, quad in zip(grid, closed, oracle):
            cases.append(
                scalar_case(f"arch/oracle-{place.value}/{n0}/{n}/{j}", {"n0": n0, "n": n, "s": s}, value, quad, tol)
            )

    # derivative: exact sum against finite differences, and the bounds; all
    # points drawn first, then one derivative call per place
    y_max, n0_max, steps = sizes.deriv_ranges
    draws = []
    for _ in range(sizes.deriv_samples):
        y = rng.uniform(-y_max, y_max)
        draws.append((y, {Place.COMPLEX: _complex_weight(rng, n0_max, steps), Place.REAL: _real_weight(rng, steps)}))
    ss = 1j * np.array([y for y, _ in draws])
    derivs = {place: mu_arch_derivative(place, ss, 0.0, *zip(*(w[place] for _, w in draws)))
              for place in (Place.COMPLEX, Place.REAL)}
    for i, (y, weights) in enumerate(draws):
        for place, (n0, n) in weights.items():
            exact, fd = (complex(a[i]) for a in derivs[place])
            inputs = {"y": y, "n0": n0, "n": n}
            cases.append(scalar_case(f"arch/deriv-fd-{place.value}/{i}", inputs, exact, fd, 1e-5))
            cases.append(flag_case(f"arch/deriv-bound-{place.value}/{i}", inputs,
                                   abs(exact) <= mu_arch_derivative_bound(ArchParams(place, 1j * y, 0.0, n0), n) + 1e-9))

    return Report("arch", seed, cases)


def _complex_weight(rng: random.Random, n0_max: int, steps: int) -> tuple[int, int]:
    n0 = rng.randint(-n0_max, n0_max)
    return n0, abs(n0) + 2 * rng.randint(0, steps)


def _real_weight(rng: random.Random, steps: int) -> tuple[int, int]:
    n0 = rng.randint(0, 1)
    return n0, (n0 + 2 * rng.randint(0, steps)) * rng.choice((1, -1))


def _case_params(p: int, tag: str, s: complex, mu: float, psi_c: int) -> FiniteParams:
    tr = MultChar.trivial(p)
    chi1 = MultChar(p, 1, 1)
    chi1b = MultChar(p, 1, 2) if p > 3 else chi1
    chi2 = MultChar(p, 2, 1)
    psi = AddChar(p, psi_c)
    if tag == "both-ramified":
        return FiniteParams(p, s, mu, chi1, chi1b, psi)
    if tag == "both-ramified-trivial-twist":
        return FiniteParams(p, s, mu, chi1, chi1, psi)
    if tag == "first-ramified":
        return FiniteParams(p, s, mu, chi1, tr, psi)
    if tag == "second-ramified":
        return FiniteParams(p, s, mu, tr, chi2, psi)
    return FiniteParams(p, s, mu, tr, tr, psi)


_PADIC_TAGS = ("both-ramified", "both-ramified-trivial-twist", "first-ramified", "second-ramified", "unramified")


def suite_padic(seed: int = 0, sizes: Sizes = DEFAULT_SIZES) -> Report:
    tol = SUITE_TOLERANCES["padic"]
    rng = random.Random(seed)
    cases: list[Case] = []

    # Gauss sums: modulus and conjugation across every character p^m <= 343
    for p in (3, 5, 7):
        psi = AddChar(p, 0)
        worst_mod, worst_conj = 0.0, 0.0
        count = 0
        for m in (1, 2, 3):
            table = gauss_sums(p, m, psi)
            for chi, g in table.items():
                worst_mod = max(worst_mod, abs(abs(g) - 1.0))
                lhs = table[chi.inverse()]
                worst_conj = max(worst_conj, abs(lhs - chi.at_minus_one() * g.conjugate()))
                count += 1
        cases.append(scalar_case(f"padic/gauss-modulus/p={p}", {"count": count}, worst_mod, 0.0, 1e-12))
        cases.append(scalar_case(f"padic/gauss-conj/p={p}", {"count": count}, worst_conj, 0.0, 1e-12))

    # support window of the unit integral
    chi = MultChar(5, 2, 3)
    psi = AddChar(5, 1)
    for n in range(-6, sizes.support_n_max + 1):
        expected = gauss_sum(chi, psi) if n == -3 else 0.0
        cases.append(scalar_case(f"padic/gauss-support/n={n}", {"n": n}, unit_additive_integral(chi, psi, n),
                                 expected, 1e-13))
    cases.append(flag_case("padic/gauss-support-nonzero", {}, abs(unit_additive_integral(chi, psi, -3)) > 1e-3))

    # atom transform against the brute-force sum, plus the double transform
    for p in (3, 5, 7):
        chi, one = MultChar(p, 1, 1), MultChar.trivial(p)
        f = SimpleFunction(p, [(1.5 - 0.5j, CharAtom(chi, 1)), (2.0, TailAtom(-1)), (1j, CharAtom(one, 0))])
        g = SimpleFunction(p, [(2.0 - 1j, CharAtom(chi, -2)), (0.5, TailAtom(1)), (1.0, CharAtom(one, 0))])
        points = [Fraction(u) * Fraction(p) ** v for v in range(-6, 7) for u in (1, 2, p + 2)] + [Fraction(0)]
        for j, psi_c in enumerate(sizes.fourier_psi_cs):
            psi_c = rng.choice((0, 1)) if psi_c is None else psi_c
            psi = AddChar(p, psi_c)
            fa = fourier_atom(f, psi)
            worst = max(abs(fourier_bruteforce(f, psi, x) - fa.evaluate(x)) for x in points)
            cases.append(scalar_case(_nth(f"padic/fourier-pointwise/p={p}", j), {"psi_c": psi_c}, worst, 0.0,
                                     sizes.fourier_pointwise_tol))
            cases.append(scalar_case(_nth(f"padic/fourier-double/p={p}", j), {"psi_c": psi_c},
                                     _double_transform_dev(f, psi), 0.0, 1e-13))
            if sizes.fourier_negval_double:
                cases.append(scalar_case(_nth(f"padic/fourier-double-negval/p={p}", j), {"psi_c": psi_c},
                                         _double_transform_dev(g, psi), 0.0, 1e-13))

    # classical vectors: norms, cross-level Gram, membership, orbit additivity
    for p in (3, 5):
        for tag in _PADIC_TAGS:
            prm = _case_params(p, tag, 0.2, 0.0, 0)
            c = prm.conductor
            vecs = [classical_vector(prm, n) for n in range(c, c + 4)]
            gram_dev = 0.0
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    target = 1.0 if i == j else 0.0
                    gram_dev = max(gram_dev, abs(vi.inner(vj, prm.psi) - target))
            cases.append(scalar_case(f"padic/vector-gram/p={p}/{tag}", {"c": c}, gram_dev, 0.0, 1e-12))
            # vecs[k] lies at level c + k and, above level 0, not one below
            boundary = all(
                level_membership(vecs[k], prm, c + k) and not (c + k >= 1 and level_membership(vecs[k], prm, c + k - 1))
                for k in sizes.level_offsets
            )
            cases.append(flag_case(f"padic/vector-level/p={p}/{tag}", {"c": c}, boundary))
        oms = orbit_measures(unramified_params(p, 0.2, psi_c=1), 5)
        total = sum(oms)
        expected = (1 - Fraction(1, p * p)) / Fraction(p)
        cases.append(flag_case(f"padic/orbit-additivity/p={p}", {"total": total}, total == expected))

    # eigenvalues: axis unitarity, oracle agreement, derivative bounds
    for p in (3, 5, 7):
        for tag in _PADIC_TAGS:
            worst_u = 0.0
            for _ in range(14):
                y = rng.uniform(-sizes.unitary_y, sizes.unitary_y)
                prm = _case_params(p, tag, 1j * y, rng.uniform(-2, 2), rng.choice((0, 1)))
                for n in range(prm.conductor, prm.conductor + sizes.padic_n_span):
                    worst_u = max(worst_u, abs(abs(mu_finite(prm, n)) - 1.0))
            cases.append(scalar_case(f"padic/unitary/p={p}/{tag}", {}, worst_u, 0.0, 1e-12))

            for j, (s, mu, psi_c) in enumerate(sizes.oracle_points):
                prm = _case_params(p, tag, s, mu, rng.choice((0, 1)) if psi_c is None else psi_c)
                for n in range(prm.conductor, prm.conductor + 4):
                    cases.append(
                        scalar_case(
                            _nth(f"padic/oracle/p={p}/{tag}/n={n}", j), {"psi_c": prm.psi.c},
                            mu_finite(prm, n), mu_finite_oracle(prm, n), tol,
                        )
                    )

            for j in range(sizes.padic_deriv_draws):
                prm = _case_params(p, tag, 1j * rng.uniform(-3, 3), rng.uniform(-1, 1), rng.choice((0, 1)))
                for n in range(prm.conductor, prm.conductor + sizes.padic_n_span):
                    d = mu_finite_derivative(prm, n)
                    cases.append(
                        flag_case(
                            _nth(f"padic/deriv-bound/p={p}/{tag}/n={n}", j), {"d": f"{abs(d):.3f}"},
                            abs(d) <= mu_finite_derivative_bound(prm, n) + 1e-9,
                        )
                    )

    # identification normalization: vol(units) = C(psi)^(-1/2)
    for psi_c in (0, 1, 2):
        prm = unramified_params(5, 0.2, psi_c=psi_c)
        v0 = classical_vector(prm, 0)
        lhs = iota_normalization(prm, v0)
        rhs = prm.psi.conductor_value ** (-0.5) * v0.evaluate(Fraction(0), Fraction(1))
        cases.append(scalar_case(f"padic/iota-measure/psi_c={psi_c}", {}, lhs, rhs, 1e-12))

    return Report("padic", seed, cases)


def _double_transform_dev(f: SimpleFunction, psi: AddChar) -> float:
    """Atom-level distance between the double transform of f and f(-x)."""
    ff = fourier_atom(fourier_atom(f, psi), psi)
    neg = f.negate_argument()
    return max(abs(ff.terms.get(k, 0) - neg.terms.get(k, 0)) for k in set(ff.terms) | set(neg.terms))


# distances from the unitary axis of the Maass-Selberg off-axis samples
_AXIS_SIGMAS = (1e-2, 1e-3, 1e-4)


def suite_global(seed: int = 0, sizes: Sizes = DEFAULT_SIZES) -> Report:
    tol = SUITE_TOLERANCES["global"]
    rng = random.Random(seed)
    cases: list[Case] = []

    # completed zeta: special value, functional equation, reflection; each
    # grid takes one completed_zeta call
    cases.append(scalar_case("global/lambda-2", {}, gl.completed_zeta(2.0), math.pi / 6, 1e-12))
    zs = np.array([complex(rng.uniform(0.1, 0.9), t) for t in np.linspace(0.1, 50, 41)])
    lam = gl.completed_zeta(np.concatenate((zs, 1 - zs))).reshape(2, -1)
    cases.append(scalar_case("global/functional-equation", {}, np.abs(lam[0] - lam[1]).max(), 0.0, 1e-9))
    ys = np.linspace(0.1, 20, 50)
    lam = gl.completed_zeta(np.concatenate((1 - 2j * ys, 1 + 2j * ys))).reshape(2, -1)
    cases.append(scalar_case("global/schwarz-reflection", {}, np.abs(lam[0] - lam[1].conj()).max(), 0.0, 1e-9))

    # axis modulus of the global factor
    worst = np.abs(np.abs(gl.mu_global_factor(np.linspace(0.1, 20, 100))) - 1.0).max()
    cases.append(scalar_case("global/mu-factor-modulus", {}, worst, 0.0, 1e-8))

    # residues and the edge constant
    cases.append(scalar_case("global/residue-at-1", {}, gl.residue_at_one(), 1.0, 1e-8))
    cases.append(scalar_case("global/residue-sym", {}, gl.residue_at_zero() + gl.residue_at_one(), 2.0, 1e-7))
    cases.append(scalar_case("global/residue-constant", {}, gl.residue_constant(), 3 / math.pi, tol))

    # global eigenvalue modulus for random small data, all 50 points in one call
    points, ktypes = [], []
    for _ in range(50):
        ktypes.append(gl.GlobalKType(
            real_weight=2 * rng.randint(0, 3),
            finite_weights=tuple((p, rng.randint(0, 2)) for p in rng.sample((3, 5, 7, 11), 2)),
        ))
        points.append(gl.GlobalSpectralPoint(rng.uniform(0.1, 5.0)))
    worst = np.abs(np.abs(gl.mu_global(points, ktypes)) - 1.0).max()
    cases.append(scalar_case("global/mu-global-modulus", {}, worst, 0.0, 1e-8))

    # Laplacian eigenvalues: displayed values, positivity, monotonicity
    cases.append(scalar_case("global/laplace-real-base", {}, gl.laplace_eigenvalue(Place.REAL, 0, 0, 0), 0.25, 1e-14))
    cases.append(scalar_case("global/laplace-complex", {}, gl.laplace_eigenvalue(Place.COMPLEX, 0, 0, 2, 0), 4.25, 1e-14))
    cases.append(scalar_case("global/laplace-real", {}, gl.laplace_eigenvalue(Place.REAL, 1, 0, 1), 1.75, 1e-14))
    mono = all(
        gl.laplace_eigenvalue(Place.COMPLEX, 0.3, 0.1, n + 2, 0) > gl.laplace_eigenvalue(Place.COMPLEX, 0.3, 0.1, n, 0) > 0
        for n in range(0, 20, 2)
    )
    cases.append(flag_case("global/laplace-monotone", {}, mono))

    # truncated-norm identity: off-axis extrapolation against the axis form
    # (mu on the axis and at the off-axis samples in one call per point)
    for (y, c) in sizes.ms_points:
        ss = [complex(sig, y) for sig in _AXIS_SIGMAS]
        m_iy, *ms = mu_arch(Place.COMPLEX, [1j * y] + ss, 0.0, 0, 4).tolist()
        m_prime = m_iy * mu_arch_logderiv(Place.COMPLEX, 1j * y, 0.0, 0, 4)
        target = gl.maass_selberg_onaxis(y, c, m_iy, m_prime)
        vals = [gl.maass_selberg(s, c, 1.0, abs(m), m.conjugate()) for s, m in zip(ss, ms)]
        cases.append(scalar_case(f"global/ms-limit/y={y}", {"c": c}, limit_at_zero(_AXIS_SIGMAS, vals), target, tol))

    # self-dual branch against the global scalar model; the factor and its
    # two difference points take one call, the off-axis samples another
    y0, c0 = 0.5, 2.0
    h = 1e-5
    m0, m_plus, m_minus = gl.mu_global_factor(np.array([y0, y0 + h, y0 - h])).tolist()
    m0p = (m_plus - m_minus) / (2 * h) * (-1j)
    onax = gl.maass_selberg_onaxis(y0, c0, m0, m0p, is_selfdual=True)
    ss = np.array([complex(sig, y0) for sig in _AXIS_SIGMAS])
    lam_minus, lam_plus = gl.completed_zeta(np.concatenate((1 - 2 * ss, 1 + 2 * ss))).reshape(2, -1)
    vals = []
    for s, m in zip(ss.tolist(), (lam_minus / lam_plus).tolist()):
        vals.append(gl.maass_selberg(s, c0, 1.0, abs(m), m.conjugate(), True))
    cases.append(scalar_case("global/ms-selfdual-limit", {"y": y0}, limit_at_zero(_AXIS_SIGMAS, vals), onax, 1e-5))

    # heights at every place type
    ok = True
    x_max, num_max = sizes.height_ranges
    for _ in range(100):
        ok = ok and gl.height_wn(Place.REAL, rng.uniform(-x_max, x_max)) <= 1.0
        ok = ok and gl.height_wn(Place.COMPLEX, complex(rng.uniform(-4, 4), rng.uniform(-4, 4))) <= 1.0
        ok = ok and gl.height_wn(5, Fraction(rng.randint(-num_max, num_max), rng.choice((1, 5, 25)))) <= 1.0
    cases.append(flag_case("global/height-bound", {"samples": 300}, ok))
    cases.append(scalar_case("global/height-real-2", {}, gl.height_wn(Place.REAL, 2.0), 0.25, 1e-12))
    cases.append(scalar_case("global/height-w", {}, gl.height_wn(Place.REAL, 0.0), 1.0, 1e-15))
    cases.append(scalar_case("global/height-p5", {}, gl.height_wn(5, Fraction(1, 5)), 5.0**-2, 1e-15))

    # spectral weight sums: Cauchy under doubling, termwise domination, slope
    s1 = gl.sobolev_weight_sum(3, 50.0, 20)
    s2 = gl.sobolev_weight_sum(3, 100.0, 40)
    s3 = gl.sobolev_weight_sum(3, 200.0, 80)
    cases.append(flag_case("global/sobolev-cauchy", {"s1": f"{s1:.6f}", "s2": f"{s2:.6f}", "s3": f"{s3:.6f}"},
                           abs(s3 - s2) < 0.01 * abs(s2) and abs(s3 - s2) < abs(s2 - s1)))
    cases.append(flag_case("global/sobolev-domination", {},
                           gl.sobolev_weight_sum(3, 50.0, 20) < gl.sobolev_weight_sum(2, 50.0, 20)))
    slope = gl.sobolev_term_decay_slope(3)
    cases.append(scalar_case("global/sobolev-slope", {"expected": 4 - 4 * 3}, slope, 4 - 4 * 3, 0.25))

    return Report("global", seed, cases)


# Every suite, in command-line order, with the tolerance of its cases that
# state none of their own; a case's tolerance is never overridden.
_SUITES = {
    "classical": (suite_classical, 1e-10),
    "harmonics": (suite_harmonics, 1e-6),
    "arch": (suite_arch, 1e-8),
    "padic": (suite_padic, 1e-10),
    "global": (suite_global, 1e-6),
}
SUITE_NAMES = tuple(_SUITES)
SUITE_TOLERANCES = {name: tol for name, (_, tol) in _SUITES.items()}


def run_suite(name: str, seed: int = 0, sizes: Sizes = DEFAULT_SIZES) -> Report:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    start = time.perf_counter()
    report = _SUITES[name][0](seed=seed, sizes=sizes)
    report.wall_time_s = time.perf_counter() - start
    return report
