"""Domain error types shared across the package."""


class LeviTanakaError(Exception):
    """Base class for all domain errors."""


class DegenerateFormError(LeviTanakaError):
    """Hermitian form has a nonzero joint kernel; carries a witness vector."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"degenerate hermitian form, kernel witness {witness}")


class NotFundamentalError(LeviTanakaError):
    """Component matrices are linearly dependent over the reals."""

    def __init__(self, relation):
        self.relation = relation
        super().__init__(f"form is not fundamental, dependent combination {relation}")


class PreconditionError(LeviTanakaError):
    """An operation was called outside its supported inputs."""


class CapReachedError(LeviTanakaError):
    """Prolongation still nonzero at the configured degree cap."""

    def __init__(self, degree, dim):
        self.degree = degree
        self.dim = dim
        super().__init__(f"prolongation not terminated: dim g_{degree} = {dim}")


class NoCharacteristicElementError(LeviTanakaError):
    """The grading is not induced by any element of the degree-0 part."""


class NotUniqueCharacteristicElementError(LeviTanakaError):
    """Grading element exists only up to a nonzero central degree-0 subspace."""

    def __init__(self, ambiguity_dim):
        self.ambiguity_dim = ambiguity_dim
        super().__init__(f"grading element determined only up to a {ambiguity_dim}-dim center")


class NilradicalUnsupportedError(LeviTanakaError):
    """Verified-heuristic nilradical candidate failed its certification."""


class LiftFailedError(LeviTanakaError):
    """A Levi-section correction system was inconsistent (internal bug)."""


class AdmissibilityError(LeviTanakaError):
    """Descriptor's node subset violates the admissibility conditions."""


class KindError(LeviTanakaError):
    """Descriptor kind outside what the operation supports."""


class IncompleteFactorsError(LeviTanakaError):
    """Factor list cannot describe a Levi factor (no kind-2 ideal)."""


class WordInvalidError(LeviTanakaError):
    """Stored strongly-orthogonal word failed verification (data bug)."""


class NonIntegralPairingError(LeviTanakaError):
    """Coroot pairing was requested for a vector outside the weight lattice."""


class InternalConsistencyError(LeviTanakaError, AssertionError):
    """A certificate of a computed result failed (a bug, exit 3).

    Raised instead of ``assert`` so that ``python -O`` keeps the check;
    it is an AssertionError too, for callers that catch those.
    """
