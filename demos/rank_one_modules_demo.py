"""
Modality of rank-one modules in closed form
===========================================

"""

# for the rank-one simple algebra every finite-dimensional module is a sum
# of irreducibles rho_n of dimension n+1, and the modality of the sum has
# a closed form depending only on which summands are nontrivial
from liemod.modality import generic_orbit_dim, sl2_action, sl2_modality

cases = [
    (0, 0, 0),   # trivial module: everything is a fixed point
    (1,),        # natural module: dense orbit
    (2,),        # adjoint module
    (4,),        # dimension 5, modality 2
    (2, 2),      # two adjoint copies
    (1, 1, 3),
]

print(f"{'summands':<12} {'dim':>4} {'closed form':>12} {'from matrices':>14}")
for summands in cases:
    closed = sl2_modality(summands)
    action = sl2_action(summands)
    computed = generic_orbit_dim(action).codimension
    print(f"{str(list(summands)):<12} {action.space_dim:>4} "
          f"{closed:>12} {computed:>14}")

# the closed form splits into three regimes: all summands trivial, one
# type of small summand, and everything else
zero = sl2_modality((0,))
small = sl2_modality((1, 0))
general = sl2_modality((3, 1))
print(f"\nregimes: trivial {zero} (= dim), "
      f"single small type {small} (= dim - 2), "
      f"general {general} (= dim - 3)")
