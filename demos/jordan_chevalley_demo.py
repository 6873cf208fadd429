"""
Exact Jordan decomposition inside a graded algebra
==================================================

"""

import random
from fractions import Fraction

# any element of a semisimple Lie algebra splits uniquely into commuting
# semisimple and nilpotent parts; for a homogeneous element of a grading
# both parts stay homogeneous of the same degree
from liemod import linalg
from liemod.graded import (GradingSpec, build_grading,
                           decompose_graded_element,
                           random_homogeneous_element)
from liemod.rootsys import RootSystemType

ga = build_grading(GradingSpec(RootSystemType("B", 2), 2, (1, 0)))
rng = random.Random(38)  # a seed where both parts come out nonzero

x = random_homogeneous_element(ga, 1, rng)
s, n = decompose_graded_element(ga, x)

names = ga.sc.module.basis_names
def show(label, coords):
    terms = [f"{c}*{names[i]}" for i, c in enumerate(coords) if c]
    print(f"{label} = {' + '.join(terms) if terms else '0'}")

show("x  ", x)
show("x_s", s)
show("x_n", n)

# verify the defining properties on the element matrices
ms = ga.sc.element_matrix(s)
mn = ga.sc.element_matrix(n)
commutator = ga.sc.bracket_coords(s, n)
print(f"\nparts commute: {not any(commutator)}")

chi = linalg.char_poly(mn)
print(f"nilpotent part: char poly coefficients {chi[:-1]} below the "
      f"leading term (all zero means nilpotent)")

sf = linalg.squarefree_part(linalg.char_poly(ms))
print(f"semisimple part killed by the squarefree polynomial: "
      f"{linalg.is_zero_matrix(linalg.poly_eval_matrix(sf, ms))}")

deg = {i for i, c in enumerate(s) if c} | {i for i, c in enumerate(n) if c}
print(f"both parts supported in the degree-one component: "
      f"{deg <= set(ga.components[1])}")
