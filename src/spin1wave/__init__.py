"""
spin1wave: numerical verification toolkit for a first-order six-component
wave equation of a massive spin-1 particle.

Submodules, each imported by name (from spin1wave import fields):
algebra       exact spin-1 / Dirac-comparison matrix construction and checks
fields        periodic grids, wave fields, spectral operators on arrays
chain         plane-wave potential chains and residual oracles
dynamics      exact free evolution, conservation and symmetry diagnostics
em_coupling   static external electromagnetic field: identities, RK4, Landau
snapshots     binary S1WF field snapshots
reports       residual reports and their aggregation over trials
errors        the typed numerical and format errors
cli           command-line front end
"""

__version__ = "0.1.0"
