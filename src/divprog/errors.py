"""Exception types shared across the package.

Every type derives from DivprogError, a ValueError, so callers that do not
care about the fine distinction can catch one thing.  They mark a bad
argument or input; the CLI exits 2 on them and 4 on any other ValueError,
which signals an internal failure.  Config problems get their own type
because they signal a bad input file or option value rather than a bad
argument.
"""


class DivprogError(ValueError):
    """Base of the package's own errors: an argument or input the caller can fix."""


class InvalidModulus(DivprogError):
    """Modulus is zero, negative, or otherwise outside the supported range."""


class NotInvertible(DivprogError):
    """Requested an inverse of a residue sharing a factor with the modulus."""


class NotPrime(DivprogError):
    """An operation requiring a prime modulus was handed a composite."""


class NotPrimitive(DivprogError):
    """Character-indexed operation needs a primitive (non-principal) character."""


class InvalidRange(DivprogError):
    """Arguments violate the documented preconditions (e.g. q > X, |weight| > 1)."""


class WindowTooLarge(DivprogError):
    """A sieve window or table would exceed the memory budget."""


class NonReducedResidue(DivprogError):
    """A residue handed in as reduced shares a factor with the modulus."""


class IntervalOutOfRange(DivprogError):
    """A shifted interval of residues leaves the allowed window [1, d-1]."""


class InsufficientSpread(DivprogError):
    """Exponent fitting needs measurements spanning more than one scale."""


class SupportTooLarge(DivprogError):
    """A support would force an unreasonable lattice enumeration or quadrature."""


class ConfigInvalid(DivprogError):
    """An experiment configuration file or an option value is malformed or inconsistent."""
