"""Exception types shared across the package."""


class MsolabError(Exception):
    """Base class for all msolab errors."""


class InputError(MsolabError):
    """Invalid user input: malformed JSON, zeros outside the disk, bad config.

    The CLI maps this to exit code 2.
    """


class AdmissibilityError(MsolabError):
    """A vector violates the shift-admissibility precondition."""


class DimensionError(MsolabError):
    """Operator/vector dimensions do not conform."""
