"""Fixed points of complex smoothing equations.

Tools for the distributional equation X = sum_j T_j X_j with complex
weights: moment analysis of the weight law, branching-martingale and
population-dynamics simulation of the fixed point, Fourier-side regularity
diagnostics, and kernel density estimation of the limit law.
"""

__version__ = "0.1.0"

from .model import (
    BigginsBinary,
    ConfigError,
    CyclicPolya,
    Tabular,
    fingerprint,
    model_from_config,
    model_to_config,
)

__all__ = [
    "BigginsBinary",
    "ConfigError",
    "CyclicPolya",
    "Tabular",
    "fingerprint",
    "model_from_config",
    "model_to_config",
    "__version__",
]
