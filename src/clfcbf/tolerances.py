"""Numeric tolerances used across the toolkit.

Every threshold that a test or acceptance criterion depends on lives here,
with the default values the bundled scenarios are validated against.  All
of them can be overridden per scenario file (``tolerances:`` section).
"""

from dataclasses import dataclass, fields

__all__ = ["Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    #: KKT acceptance: |active row value| and primal row slack (>= -active).
    active: float = 1e-8
    #: magnitude below which a negative multiplier is clamped to zero.
    multiplier: float = 1e-10
    #: feasibility certificate: image-membership residual, relative to ||b2||.
    image: float = 1e-8
    #: relative singular-value threshold for rank decisions.
    rank: float = 1e-12
    #: joint-norm radius within which Newton roots are duplicates.
    dedup: float = 1e-6
    #: strict safe-set margin required of interior equilibria.
    interior: float = 1e-9
    #: marginal band on the tangent-space test statistic.
    stability: float = 1e-7
    #: eigenvalue real-part threshold in the spectrum cross-check.
    spectrum: float = 1e-6
    #: multiplier / closed-loop-field agreement in equilibrium validation.
    validate: float = 1e-6
    #: Newton convergence: residual infinity-norm ...
    newton_residual: float = 1e-12
    #: ... and step infinity-norm (relative to max(1, ||x||)).
    newton_step: float = 1e-10
    #: natural-residual stop for the dual-ascent reference solver.
    oracle_residual: float = 1e-10

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}
