"""Exception types shared across the package."""

from __future__ import annotations


class CyclosimError(Exception):
    """Base class for all package-specific errors."""


class GimbalLockError(CyclosimError):
    """Euler-rate kinematics are singular (|cos(pitch)| below threshold)."""


class DivergenceError(CyclosimError):
    """An integration step produced a non-finite state.

    Carries the offending state vector when known.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class SaturationError(CyclosimError):
    """An actuator command exceeded its limits.

    ``channels`` lists the violating channel names, e.g. ["rotor_2", "servo"].
    """

    def __init__(self, message: str, channels: list[str]):
        super().__init__(message)
        self.channels = channels


class SolverFailureError(CyclosimError):
    """The optimizer could not produce a usable solution."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(CyclosimError):
    """A configuration file could not be parsed or validated."""


class MissionError(CyclosimError):
    """A mission file could not be parsed or validated."""
