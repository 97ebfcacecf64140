"""
spin1wave: numerical verification toolkit for a first-order six-component
wave equation of a massive spin-1 particle.

Submodules
----------
algebra       exact spin-1 / Dirac-comparison matrix construction and checks
fields        periodic grids, wave fields, spectral operators on arrays
chain         plane-wave potential chains and residual oracles
dynamics      exact free evolution, conservation and symmetry diagnostics
em_coupling   static external electromagnetic field: identities, RK4, Landau
snapshots     binary S1WF field snapshots
cli           command-line front end
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "algebra",
    "chain",
    "cli",
    "dynamics",
    "em_coupling",
    "errors",
    "fields",
    "reports",
    "snapshots",
)

__all__ = list(_SUBMODULES)


def __getattr__(name):
    # Lazy so that the CLI can apply the SPIN1_THREADS cap before the
    # numerics libraries read their thread-count environment variables.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
