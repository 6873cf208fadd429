"""
Packets of traceless matrices
=============================

"""

import random

# a packet collects the traceless matrices whose semisimple parts share an
# eigenvalue-coincidence pattern and whose nilpotent parts share Jordan
# blocks; its closure dimension is the constant orbit dimension plus the
# dimension of the attached arrangement cell
from liemod.packets import (classify_adjoint_typeA,
                            enumerate_packets_adjoint_typeA,
                            packet_sanity_suite, random_packet_point)

for n in (2, 3):
    descriptors = enumerate_packets_adjoint_typeA(n)
    print(f"sl{n}: {len(descriptors)} packets")
    print(f"  {'jordan type':<24} {'orbit':>5} {'cell':>5} "
          f"{'closure':>8} {'modality':>9}")
    for p in descriptors:
        print(f"  {p.jordan_type.name:<24} {p.orbit_dim:>5} "
              f"{p.cell.closure_dim:>5} {p.closure_dim:>8} {p.modality:>9}")
    print()

# classification is a complete invariant: a random member of each packet
# classifies back to the same type
rng = random.Random(3)
descriptors = enumerate_packets_adjoint_typeA(3)
p = descriptors[1]
y = random_packet_point(p, rng)
print(f"random point of packet {p.jordan_type.name} classifies as "
      f"{classify_adjoint_typeA(y).name}")

# the full sampling suite checks coverage, the maximal modality, the
# packet identity criterion, one sheet per partition of n against the
# packet closures, and regular elements in centralizer centers
report = packet_sanity_suite(3, samples=150, seed=5)
print(f"\nsanity suite for sl3: coverage {report.coverage_ok}, "
      f"max modality {report.max_modality} (rank {report.n - 1}), "
      f"sheets {report.sheets_ok}, centers {report.regular_center_ok}, "
      f"overall {'pass' if report.passed else 'fail'}")
