"""Each demo prints the same bytes as when its digest was pinned.

The digests are the sha256 of each demo's stdout; they did not change
under ``PYTHONHASHSEED`` 0, 1, 12345 and random.  A change that alters a
demo's output on purpose re-pins its digest and says why.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = {
    "arrangement_cells_demo.py":
        "b2d74fac7bd6d33e73fab6624d60c24bc1a89cec0237cb74185d29dc2507041e",
    "copies_family_demo.py":
        "8b21d5e814e7b206b7e412cfdac61c7242e5aeb50fc4596279272db407d84a35",
    "graded_rank_demo.py":
        "adf0e71a85383322993da4ab339d8aee836e0a06db1e3ed54e137efaf23983dc",
    "jordan_chevalley_demo.py":
        "1d4ac461a95854b0453ee43858c57181d057f92b1cbba5cc1ebea076566f5492",
    "modality_tables_demo.py":
        "5bac6cd4e0a8e27b96d5f00fe26173e0ff41f3a9ea9863d037a5da5b9ea2002b",
    "packets_demo.py":
        "77bc497cfbc639c62364d6a4bcfc094e24451146526e0cf75f767c8e64fe7d54",
    "rank_one_modules_demo.py":
        "5dea99808c66aa6bffe78719e21791b564aec2bf786a0a948260cabfb632ba47",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_prints_its_pinned_bytes(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, cwd=ROOT, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[name]
