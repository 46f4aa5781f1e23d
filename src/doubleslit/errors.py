"""Exception types shared across the package."""

__all__ = ["ConfigError", "SimulationError", "AnalysisError"]


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


class SimulationError(RuntimeError):
    """A computation produced values that cannot be trusted (non-finite, negative density)."""


class AnalysisError(RuntimeError):
    """A profile does not contain the feature an analysis step requires."""
