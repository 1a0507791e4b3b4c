"""Exact-arithmetic engine for rank jumps on rational elliptic surfaces.

Classifies twist and quadratic-coefficient families over Q(t), builds the
conic fibres of the bundle x = x0, and manufactures certified fibres whose
Mordell-Weil rank exceeds the generic-rank bound, together with
quadratic-extension censuses and quadratic-cover avoidance. The package
exports only __version__; import the modules directly.
"""

__version__ = "0.1.0"
