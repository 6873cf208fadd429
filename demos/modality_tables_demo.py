"""
Verifying the modality classification tables
============================================

"""

# the shipped tables list every irreducible module of modality 0, 1, 2;
# each entry is rebuilt from scratch and its modality recomputed from
# generic orbit dimensions in exact arithmetic
from liemod.modality import table_entries, verify_table_entry

for which in ("m1", "m2", "m3"):
    entries = table_entries(which)
    print(f"table {which}: {len(entries)} entries after expanding "
          f"classical families up to rank 8")
    for entry in entries[:4]:
        res = verify_table_entry(entry)
        status = ("ok" if res.computed == entry.expected_modality
                  else "MISMATCH")
        print(f"  {entry.entry_id:<16} dim {res.dim_v:>3}  "
              f"generic orbit {res.orbit_dim:>3}  "
              f"modality {res.computed} (expected "
              f"{entry.expected_modality})  {status}")
    print()

# a module that appears in no table has modality >= 3; the adjoint module
# of the rank 3 symplectic algebra is an example
from liemod.hwmod import IrrepSpec
from liemod.modality import action_from_module, generic_orbit_dim
from liemod.rootsys import RootSystemType

spec = IrrepSpec(RootSystemType("C", 3), (2, 0, 0))
action = action_from_module(spec)
report = generic_orbit_dim(action)
print(f"{spec.name}: dim {action.space_dim}, modality "
      f"{report.codimension} (not in any table)")
