"""The CLI starts on the standard library alone.

``pyproject.toml`` declares numpy an optional extra that only
:mod:`repro.datasets` imports.  The CI ``lint`` job installs nothing
and runs ``python -m repro lint``, so a third-party import anywhere the
CLI reaches kills every ``repro`` command at start-up.  Each check runs
in a fresh interpreter whose meta path refuses ``numpy``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Prelude for ``python -c``: any import of numpy raises ImportError.
REFUSE_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} refused: the CLI must start on the stdlib")
        return None

sys.meta_path.insert(0, RefuseNumpy())
"""

RUN_CLI = """
import runpy
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

LOADED_BY_CLI = """
import json
import repro.cli
heavy = ("numpy", "repro.datasets", "repro.workloads", "repro.bench")
print(json.dumps(sorted(
    name for name in sys.modules
    if name in heavy or name.startswith(tuple(f"{h}." for h in heavy))
)))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", REFUSE_NUMPY + code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_runs_and_loads_no_third_party_package_without_numpy():
    for args in (["--help"], ["lint", "src/repro"]):
        done = _python(RUN_CLI, *args)
        assert done.returncode == 0, (args, done.stdout[-2000:], done.stderr[-2000:])
    done = _python(LOADED_BY_CLI)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == []
