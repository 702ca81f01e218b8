"""Exception types shared across the package."""


class CacegibbsError(Exception):
    """Base class for all package-specific errors."""


class InputError(CacegibbsError):
    """Input from outside the program is unusable (command-line exit code 2)."""


class ParseError(InputError):
    """A dataset or config file could not be parsed.

    Carries the offending 1-based data row index when known.
    """

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class ValidationError(InputError):
    """Parsed input violates a structural requirement."""


class EmptyArmError(InputError):
    """A dataset lacks records in one or both randomization arms."""


class SingularPosteriorError(CacegibbsError):
    """A conjugate update produced a numerically singular posterior precision.

    ``row`` is the batch row of the first chain whose posterior is singular;
    a batched update raises before any chain draws.
    """

    def __init__(self, message, row=0):
        super().__init__(message)
        self.row = row


class ChainAbortError(CacegibbsError):
    """A Gibbs chain aborted mid-run; carries iteration and update-block context."""

    def __init__(self, message, chain_index, iteration, block):
        super().__init__(
            f"chain {chain_index} aborted at iteration {iteration} in {block}: {message}"
        )
        self.chain_index = chain_index
        self.iteration = iteration
        self.block = block


class InsufficientDrawsError(InputError):
    """Too few chains or too few draws for a convergence diagnostic."""


class EmptyPatternError(InputError):
    """A diagnostic was requested for an observed pattern with no records."""


class AllUndefinedError(CacegibbsError):
    """Every saved draw of the requested quantity is undefined."""


class CalibrationError(InputError):
    """A simulation design target cannot be met by any parameter value."""


class TooLargeError(InputError):
    """The problem exceeds the size limit of an exact enumeration routine."""


class DigestMismatchError(CacegibbsError):
    """An input file does not match the digest recorded in a run manifest."""
