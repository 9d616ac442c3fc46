"""Exception types shared across the package.

Every error raised on a violated contract derives from AltkitError, so
callers can catch one base class at the CLI boundary.  Structural errors
carry enough context (indices, names) to reconstruct the offending input.
"""


class AltkitError(Exception):
    pass


class VerificationFailed(AltkitError):
    """An exact re-check of a computed result did not hold."""


# ring layer

class NonAssociative(AltkitError):
    """Structure constants fail associativity; args carry the basis triple."""


class NonCommutative(AltkitError):
    """Structure constants fail commutativity; args carry the basis pair."""


class BadUnit(AltkitError):
    """Declared unit vector does not act as identity."""


class VariableMismatch(AltkitError):
    """Polynomial operation across different variable lists or scalar rings."""


# tensor layer

class ArityMismatch(AltkitError):
    """Tensor operation across different arities."""


class RingMismatch(AltkitError):
    """Tensor operation across different underlying rings."""


class IndexOutOfRange(AltkitError):
    """Slot index outside 1..n."""


class PreconditionViolated(AltkitError):
    """Identity check invoked with data that fails its hypothesis."""


# span layer

class ContextMismatch(AltkitError):
    """Localized elements combined over different anchor tuples."""


class NotInvariant(AltkitError):
    """Tensor fails the invariance required by the operation."""


# norm layer

class NotABasis(AltkitError):
    """Tuple does not form a basis (change matrix not invertible)."""


class NotEtale(AltkitError):
    """Discriminant is not a unit."""


class NotGenericallyEtale(AltkitError):
    """Discriminant is a zerodivisor."""


class UnsupportedAmbient(AltkitError):
    """Operation needs a polynomial ambient ring and got something else."""


class UnsupportedBase(AltkitError):
    """Scalar ring outside the supported kinds for this operation."""


class DivisionFails(AltkitError):
    """Exact division has no solution; nothing is coerced."""


# cli layer

class ConfigInvalid(AltkitError):
    """Suite configuration outside the supported envelope."""


class ParseError(AltkitError):
    """Malformed expression or JSON payload."""


class SchemaError(AltkitError):
    """Structurally valid JSON that violates the instance schema."""
