"""Exception types shared across the package.

All input-validation failures derive from ValueError so that callers who do
not care about the fine-grained type can catch the usual thing.
"""


class HodgecheckError(ValueError):
    """Base class for every error raised by this package."""


class NotSymmetric(HodgecheckError):
    """Matrix input deviates from its transpose beyond tolerance."""


class NotPositiveDefinite(HodgecheckError):
    """Imaginary part (or metric) is not positive definite."""


class DimensionMismatch(HodgecheckError):
    """Operands live in different ambient spaces."""


class GenusMismatch(HodgecheckError):
    """Forms or matrices built for different genus were combined."""


class NotUnitScalar(HodgecheckError):
    """Even-form inversion requires scalar component 1."""


class OddComponent(HodgecheckError):
    """Even-form inversion received a component of odd degree."""


class ZeroVector(HodgecheckError):
    """A nonzero vector is required."""


class BadSampleCount(HodgecheckError):
    """Sample count below the supported minimum."""


class BadDimension(HodgecheckError):
    """Subspace dimension outside the meaningful range."""


class InputNotRankOne(HodgecheckError):
    """Pencil endpoints must have rank one."""


class NotIndependent(HodgecheckError):
    """Pencil endpoints must be linearly independent."""


class BadParameters(HodgecheckError):
    """Parameter combination outside the supported range."""


class NotInWperp(HodgecheckError):
    """Offset does not annihilate the pinned subspace."""


class ConfigInvalid(HodgecheckError):
    """Run configuration failed schema validation."""


class SuiteUnknown(HodgecheckError):
    """Requested verification suite does not exist."""
