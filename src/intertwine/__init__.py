"""Closed forms with independent oracles for GL(2) intertwining analysis.

Layers, bottom up: gamma factors and double-exponential quadrature
(numerics); the exact one-dimensional Gaussian span (classical); spherical
harmonics on the compact groups (harmonics); polynomial-Gaussian Schwartz
classes with exact twisted transforms (schwartz); archimedean sections and
eigenvalues (arch); the exact theory at every prime, 2 included (padic); the
global layer over the rationals (globalq); verification suites and reports
(verify, reports); and the command line (cli).
"""

from .arch import ArchParams, Place, mu_arch, mu_arch_oracle
from .errors import (
    ConductorError,
    InconsistentRatio,
    ParityError,
    PoleError,
    RangeError,
    ToleranceNotMet,
)
from .globalq import riemann_zeta
from .numerics import GammaKind, bessel_k, gamma_factor, kernel_ka, quad_halfline
from .padic import AddChar, FiniteParams, MultChar, gauss_sum, g_normalized, mu_finite, mu_finite_oracle
from .verify import run_suite

__all__ = [
    "ArchParams",
    "Place",
    "mu_arch",
    "mu_arch_oracle",
    "GammaKind",
    "bessel_k",
    "gamma_factor",
    "kernel_ka",
    "quad_halfline",
    "AddChar",
    "FiniteParams",
    "MultChar",
    "gauss_sum",
    "g_normalized",
    "mu_finite",
    "mu_finite_oracle",
    "riemann_zeta",
    "run_suite",
    "ConductorError",
    "InconsistentRatio",
    "ParityError",
    "PoleError",
    "RangeError",
    "ToleranceNotMet",
]

__version__ = "0.1.0"
