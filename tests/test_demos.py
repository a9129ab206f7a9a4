"""Every demo script runs to the end, quietly, against this package, and
``tools/verdict_hash.py`` prints the pinned digests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kmnfree

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# ``tools/verdict_hash.py 3``: a change that alters outputs on purpose
# updates these lines and records the old and new ones in CHANGES.md
VERDICT_DIGESTS_3 = """\
658f02a3c0b7fe93eff680ee7ba03fedc402586254b355e9bae8d79504fe204b  4800 checks
801453067c264da1333212e75185ab217ae0b4fe95ce6d4593b73df65f983e1c  40 relative completions
3da7bb2f953ea4770d03e40cef3d6501c7dcf7c88acfa80f8d634653ae12795a  37 searches
447ca1466c65df2ab4325f25ea647f882d67fa04b4b86ee7d8afe6e0b271dc7f  96 records
171d393abec1dd2e3fcf0a59a04b1efc6be59edac3d174d9f05745c5830e6224  41 node counts
"""

# ``tools/verdict_hash.py 11``: a second query stream, the same way
VERDICT_DIGESTS_11 = """\
7a3c716ea8d8e550d73354a3c38a514d42e3a31246b5b7f57a7249a586eb3711  4800 checks
67f11df789457f461b4d57b997008ae46242c21257e5790e4d07808ac3f4d0ba  40 relative completions
886e658daad66afac382020ae4424519717f250535c6a7104f143e107e42b0a8  37 searches
7fd7bb6b39012787e7187265f605b0a066656ecc5ade07756dfc3f5d4829c307  96 records
63662f117085f6bc2d8a47f513c65a293a37d6945df3ebc5733313aede25926d  41 node counts
"""


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # the child imports the package this suite imported
    package_root = str(Path(kmnfree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def verdict_hash(seed, cwd):
    # the tool puts the checkout's src first on its path; the digests do not
    # depend on the hash seed, which is fixed here so a failure reproduces
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "verdict_hash.py"), seed],
                         capture_output=True, text=True, env=env, cwd=cwd,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_verdict_digests_are_pinned(tmp_path):
    assert verdict_hash("3", tmp_path) == VERDICT_DIGESTS_3


def test_verdict_digests_of_seed_11_are_pinned(tmp_path):
    assert verdict_hash("11", tmp_path) == VERDICT_DIGESTS_11
