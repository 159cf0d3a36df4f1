"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
fine distinction can catch one thing.  Config problems get their own root
because they signal a bad input file rather than a bad argument.
"""


class InvalidModulus(ValueError):
    """Modulus is zero, negative, or otherwise outside the supported range."""


class NotInvertible(ValueError):
    """Requested an inverse of a residue sharing a factor with the modulus."""


class NotPrime(ValueError):
    """An operation requiring a prime modulus was handed a composite."""


class NotPrimitive(ValueError):
    """Character-indexed operation needs a primitive (non-principal) character."""


class InvalidRange(ValueError):
    """Range endpoints violate the documented preconditions (e.g. q > X)."""


class WindowTooLarge(ValueError):
    """A sieve window or table would exceed the memory budget."""


class NonReducedResidue(ValueError):
    """A residue handed in as reduced shares a factor with the modulus."""


class IntervalOutOfRange(ValueError):
    """A shifted interval of residues leaves the allowed window [1, d-1]."""


class InsufficientSpread(ValueError):
    """Exponent fitting needs measurements spanning more than one scale."""


class SupportTooLarge(ValueError):
    """A support would force an unreasonable lattice enumeration or quadrature."""


class ConfigInvalid(ValueError):
    """An experiment configuration file is malformed or inconsistent."""
