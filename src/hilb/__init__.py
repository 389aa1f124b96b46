"""Exact computer algebra for Hilbert schemes of points.

Modules cover multivariate polynomials over Q and integer Laurent
polynomials (`multipoly`),
Groebner bases (`groebner`), r-dimensional partitions (`partitions`),
local equations of Hilbert schemes at monomial ideals (`localeq`), and
multigraded Hilbert series with exact checks of their identities
(`kpoly`).
"""

__version__ = "0.1.0"
