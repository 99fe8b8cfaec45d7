"""Numerical toolkit for convex-geometric functionals of log-concave measures.

Submodules:

- ``bodies``       convex bodies as support-function oracles
- ``measures``     seeded samplers for log-concave measures
- ``isotropy``     empirical moments, isotropic constants
- ``centroid``     empirical L_p centroid bodies, exact ones of Gaussian laws
- ``pool``         the worker pool and the thread and malloc settings
- ``grassmann``    random subspaces, projections, volume radii
- ``functionals``  mean width, entropy numbers, named bound expressions
- ``experiments``  verification suites and report emission
- ``cli``          the ``isoconv`` command

Import the submodules directly; this package module imports none of them.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
