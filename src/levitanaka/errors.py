"""Domain error types shared across the package, the one report-check form
and the one raise of a failed certificate (``certify``)."""


class LeviTanakaError(Exception):
    """Base class for all domain errors."""


class InputError(ValueError):
    """Malformed input file; the message names the bad or missing field."""


def json_field(obj, key, kind):
    """obj[key] of a JSON object, checked to hold a value of type ``kind``.

    ``kind`` is ``list``, ``dict`` or ``int`` (a JSON true or false is no
    int).  Raises InputError naming the field when the object is not an
    object, or the field is missing or of another type.
    """
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object holding field {key!r}")
    if key not in obj:
        raise InputError(f"field {key!r} is missing")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        noun = {list: "a list", dict: "an object", int: "an integer"}[kind]
        raise InputError(f"field {key!r} must be {noun}")
    return value


def check(name, ok, witness=None):
    """The report check {"name", "status", "witness"}; a witness only on failure."""
    return {"name": name, "status": "pass" if ok else "fail",
            "witness": None if ok else witness}


def certify(ok, message):
    """Raise ``InternalConsistencyError(message)`` unless the certificate ``ok`` holds.

    ``message`` is a str, or a zero-argument callable called only on failure:
    the form for a message that reads failure-only data or is built in a loop.
    """
    if not ok:
        raise InternalConsistencyError(message() if callable(message) else message)


class _DataError(LeviTanakaError):
    """An error whose ``args`` are its data, one value per name of ``fields``,
    each also an attribute; ``str`` fills ``message`` with them, so a copy or
    a pickle, which rebuilds the error from ``args``, keeps both."""

    def __init__(self, *args):
        super().__init__(*args)
        self.__dict__.update(zip(self.fields, args))

    def __str__(self):
        return self.message.format(**dict(zip(self.fields, self.args)))


class DegenerateFormError(_DataError):
    """Hermitian form has a nonzero joint kernel; carries a witness vector."""
    fields = ("witness",)
    message = "degenerate hermitian form, kernel witness {witness}"


class NotFundamentalError(_DataError):
    """Component matrices are linearly dependent over the reals."""
    fields = ("relation",)
    message = "form is not fundamental, dependent combination {relation}"


class PreconditionError(LeviTanakaError):
    """An operation was called outside its supported inputs."""


class CapReachedError(_DataError):
    """Prolongation still nonzero at the configured degree cap."""
    fields = ("degree", "dim")
    message = "prolongation not terminated: dim g_{degree} = {dim}"


class NoCharacteristicElementError(LeviTanakaError):
    """The grading is not induced by any element of the degree-0 part."""


class NotUniqueCharacteristicElementError(_DataError):
    """Grading element exists only up to a nonzero central degree-0 subspace."""
    fields = ("ambiguity_dim",)
    message = "grading element determined only up to a {ambiguity_dim}-dim center"


class NilradicalUnsupportedError(LeviTanakaError):
    """Verified-heuristic nilradical candidate failed its certification."""


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
    """A certificate failed, or a Levi correction had no solution (a bug, exit 3).

    Raised by ``certify`` alone, not ``assert``, so that ``python -O`` keeps
    the check; it is an AssertionError too, for callers that catch those.
    """
