"""Every test, benchmark or perf path the CI workflow names must exist.

pytest exits 4 ("file or directory not found") before running anything
when one argument is missing, so a renamed file silently turns a CI job
into a no-op failure that says nothing about the code.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: ``tests/...`` / ``benchmarks/...`` / ``perf/...`` tokens, up to
#: whitespace, a quote or the ``::`` of a pytest node id.
_PATH = re.compile(r"""(?<![\w/.-])((?:tests|benchmarks|perf)/[^\s"':]*)""")


def _named_paths() -> set[str]:
    """Inputs only: scripts and test directories, not artifact outputs."""
    found = _PATH.findall(WORKFLOW.read_text(encoding="utf-8"))
    return {path for path in found if path.endswith(".py") or path.startswith("tests/")}


def test_workflow_names_test_and_benchmark_paths():
    paths = _named_paths()
    # The scan sees both spellings: bare arguments and quoted node ids.
    assert "tests/bitset" in paths
    assert "benchmarks/test_fig10_response_time.py" in paths
    assert "perf/run.py" in paths


def test_every_named_path_exists():
    missing = sorted(path for path in _named_paths() if not (ROOT / path).exists())
    assert not missing, f"ci.yml names paths that do not exist: {missing}"
