"""What importing the CLI loads: only the modules every verb needs."""

import json
import os
import subprocess
import sys

import diagdegen

# Modules that `import diagdegen.cli` must not load: the dataclasses machinery,
# argparse and gettext (the CLI parses its own grammar), and what only some verbs
# need (rationals and projgor for pn and gorenstein, json for --json, wonderful
# for orbits, sweep and oracles for sweep, and weyl, which the catalogue verbs
# name only in annotations).
NOT_AT_STARTUP = {
    "argparse", "dataclasses", "gettext", "inspect", "fractions", "json",
    "diagdegen.sweep", "diagdegen.oracles", "diagdegen.projgor", "diagdegen.weyl",
    "diagdegen.wonderful",
}

PROBE = """
import sys
before = set(sys.modules)
import diagdegen.cli
loaded = sorted(set(sys.modules) - before)
import diagdegen, json
misnamed = [name for name in diagdegen.__all__ if getattr(diagdegen, name).__name__ != name]
print(json.dumps({"loaded": loaded, "misnamed": misnamed}))
"""


def test_cli_import_loads_only_what_every_verb_needs():
    """A fresh interpreter imports the CLI, then resolves every name in __all__."""
    src = os.path.dirname(os.path.dirname(diagdegen.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    report = json.loads(done.stdout)
    assert NOT_AT_STARTUP.isdisjoint(report["loaded"])
    assert "diagdegen.cli" in report["loaded"]
    assert report["misnamed"] == []


def test_package_exports_only_its_public_names():
    assert set(diagdegen.__all__) <= set(dir(diagdegen))
    assert not hasattr(diagdegen, "no_such_name")
    assert not hasattr(diagdegen, "WeylElement")
