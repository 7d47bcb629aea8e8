"""Exception types shared across the package."""

from __future__ import annotations


class PlapLabError(Exception):
    """Base class for all package errors."""


class ValidationError(PlapLabError):
    """An input violated a documented invariant; the message names it."""


class MeshGenerationError(PlapLabError):
    """Mesh generation failed to meet its quality contract."""

    def __init__(self, message: str, achieved_min_angle_deg: float | None = None):
        super().__init__(message)
        self.achieved_min_angle_deg = achieved_min_angle_deg


class SolverError(PlapLabError):
    """Newton continuation failed; carries the residual history."""

    def __init__(self, message: str, history: list | None = None):
        super().__init__(message)
        self.history = history if history is not None else []


class AssemblyError(SolverError):
    """Non-finite value produced during finite element assembly."""

    def __init__(self, message: str, element: int):
        super().__init__(message)
        self.element = element


class PreconditionError(PlapLabError):
    """An operation was called outside its stated preconditions."""


class ConfigError(PlapLabError):
    """Experiment configuration is malformed or violates the schema."""
