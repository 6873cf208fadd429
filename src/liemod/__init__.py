"""Exact-arithmetic toolkit for orbit modality of Lie group representations.

Subpackages cover exact rational linear algebra, root systems, construction
of irreducible highest-weight modules, orbit-modality computation and the
classification tables for small modality, hyperplane-arrangement cells,
graded semisimple algebras with their Jordan decompositions, and the packet
decomposition of adjoint type A.
"""

__version__ = "0.1.0"
