"""Exception and warning types shared across the toolkit."""


class MedError(Exception):
    """Base class for all toolkit errors."""


class NearLinearDependence(MedError):
    """Ensemble (or Gram matrix) is too close to linear dependence to solve."""


class NotUnitary(MedError):
    """A matrix that must be unitary (or an orthonormal basis) is not."""


class ResidualTooLarge(MedError):
    """A candidate solution violates its defining matrix equation."""


class SingularJacobian(MedError):
    """The tangent linear system is numerically singular; the continuation
    run has left the region where the solution is well defined."""


class PositivityLost(MedError):
    """The square-root factor lost positive definiteness mid-run, which
    cannot happen on a trajectory of valid Gram matrices; fatal diagnostic."""


class NotCertified(MedError):
    """A starting state handed to a continuation segment is not a certified
    solution at its starting Gram matrix."""


class NoConvergence(MedError):
    """An iterative search exhausted its budget without converging."""


class SchemaError(MedError):
    """An input file does not match the expected JSON schema."""


class RootCountAnomaly(UserWarning):
    """Fewer distinct stationary roots exist than the degree bound of 8.

    Every path of the total-degree homotopy is tracked to its end, so the
    shortfall is genuine: the remaining roots are at infinity (their paths
    diverge, as for symmetric ensembles) or coincide at a singular root.
    It does not signal a missed root."""
