"""Exception types shared across the package."""


class NoiseLogicError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(NoiseLogicError):
    """Invalid generator or run configuration (bad seed, steps, rates, parameters)."""


class LengthMismatchError(NoiseLogicError):
    """Binary waveform operation applied to signals of different lengths."""


class FamilyMismatchError(NoiseLogicError):
    """Operation applied to a waveform or pair of the wrong logic family."""


class OrthogonalityError(NoiseLogicError):
    """Spike reference trains overlap where they are required to be disjoint."""


class InvalidLogicValueError(NoiseLogicError):
    """Input waveform is not an exact copy of either reference wave."""


class GenerationError(NoiseLogicError):
    """Waveform generation could not satisfy its postconditions (retry budget exhausted)."""


class AmbiguousWindowError(NoiseLogicError):
    """The observation window contains no step that can decide a logic value."""


class InvariantError(NoiseLogicError):
    """An internal identity the package checks on itself does not hold."""


class NetlistError(NoiseLogicError):
    """Problem in a textual netlist; carries the offending line number when known."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
