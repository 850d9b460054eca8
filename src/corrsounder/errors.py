"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, simulation-stage failures with 3 and analysis-stage failures
with 4.
"""


class SounderError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SounderError):
    """Invalid configuration, preset, scenario file or degenerate state."""

    exit_code = 2


class SimulationError(SounderError):
    """Signal-path failure: bad waveform geometry, aliasing, ambiguity."""

    exit_code = 3


class AnalysisError(SounderError):
    """Analysis-stage failure: missing products, ill-conditioned fits."""

    exit_code = 4
