"""Exception types shared across the package."""


class PoleError(ValueError):
    """Evaluation requested at a pole of a gamma factor or completed L-function."""


class ToleranceNotMet(RuntimeError):
    """Adaptive quadrature exhausted its refinement budget before converging."""


class ParityError(ValueError):
    """Weight indices violate the parity constraint of the isotypic family."""


class RangeError(ValueError):
    """Index outside the admissible range of the basis family."""


class ConductorError(ValueError):
    """Operation requires a ramified character but got a trivial one."""


class InconsistentRatio(RuntimeError):
    """Eigenvalue ratio varied across sample points beyond tolerance.

    This signals a convention bug somewhere in the transform pipeline, not a
    numerical accident, so it is raised rather than averaged away.
    """
