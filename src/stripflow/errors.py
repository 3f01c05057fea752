"""Exception types shared across the package."""


class StripflowError(Exception):
    """Base class for all package errors."""


class ParityError(StripflowError):
    """An operation received a field with the wrong sine/cosine parity."""


class GridMismatchError(StripflowError):
    """Fields that must share a grid do not."""


class CflViolation(StripflowError):
    """Requested time step exceeds the advective stability bound.

    Carries the largest admissible step so the caller can retry.
    """

    def __init__(self, requested_dt, admissible_dt):
        self.requested_dt = requested_dt
        self.admissible_dt = admissible_dt
        super().__init__(
            f"dt={requested_dt:g} exceeds admissible advective step "
            f"{admissible_dt:g}"
        )


class NumericalBlowup(StripflowError):
    """NaN/Inf detected during time integration.

    ``mode_index`` is the (j, k), j = 0..nx/2-1, of the first offending
    coefficient, ``field`` names which field it appeared in.
    """

    def __init__(self, field, mode_index, t):
        self.field = field
        self.mode_index = mode_index
        self.t = t
        super().__init__(
            f"non-finite coefficient in {field} at mode index {mode_index}, t={t:g}"
        )


class WindowTooShort(StripflowError):
    """A rate fit was requested on a time window below the required span."""

    def __init__(self, required_span, actual_span):
        self.required_span = required_span
        self.actual_span = actual_span
        super().__init__(
            f"fit window spans a factor {actual_span:g} in t; "
            f"need at least {required_span:g}"
        )


class ConfigError(StripflowError):
    """Configuration document failed to parse or validate.

    ``key`` names the offending field when known, ``line`` the source line.
    """

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)
