"""Every module under ``src/repro`` is used by a surface, or says why not.

A module is *reached* when a surface -- ``repro.db``, ``repro.server``,
``repro.cluster``, ``repro.storage``, ``repro.obs``, the CLI -- imports
it, directly or through other reached modules.  A package ``__init__``
that merely re-exports a module does not reach it: ``from repro.rpq
import eval_rpq`` reaches ``repro.rpq.evaluate`` (where the name comes
from) and nothing else ``repro/rpq/__init__.py`` happens to import.
Function-level (lazy) imports count.

Anything else is dead weight in the wheel unless :data:`UNREACHED` names
it with the reason it ships.  Both directions are checked, so the list
cannot rot: a listed module that becomes reached (or disappears) fails
too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

SURFACES = ("repro.db", "repro.server", "repro.cluster", "repro.storage", "repro.obs")
SURFACE_MODULES = ("repro.cli", "repro.__main__")

#: module (or package prefix ending in ``.``) -> why it ships unreached.
UNREACHED = {
    "repro.datasets.": "R-MAT and stand-in graph generators (the one numpy importer): the inputs of benchmarks/ and the tests; perf/ builds its own graphs",
    "repro.workloads.": "the paper's multiple-RPQ set generator (Section V-A): read by benchmarks/ and the tests; perf/ writes its own query mixes",
    "repro.relalg.": "the paper's relational-algebra expressions (Eq. 6-10): an executable spec the engines are tested against, printed by examples/protein_signaling.py",
    "repro.rpq.witness": "path-witness extension of the public API (repro.rpq.eval_rpq_with_witness); no serving surface returns paths yet",
    "repro.graph.builders": "graph constructors of the public API (paper_figure1_graph, paths, cycles, layers) for docs, examples and tests",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in PACKAGE.rglob("*.py")}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _imports(path: Path, module: str) -> set[tuple[str, str | None]]:
    """``(module, name-or-None)`` for every import statement in ``path``."""
    found: set[tuple[str, str | None]] = set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against this module's package
                package = module if module in PACKAGES else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}" if base else package
            found.update((base, alias.name) for alias in node.names)
    return found


def _resolve(module: str, name: str | None, seen=()) -> set[str]:
    """The non-``__init__`` modules an import of ``module[.name]`` uses."""
    if module not in MODULES:
        return set()
    if name is not None and f"{module}.{name}" in MODULES:
        return _resolve(f"{module}.{name}", None, seen)
    if module not in PACKAGES:
        return {module}
    if (module, name) in seen:
        return set()
    # A name the package re-exports: follow it to where it is defined.
    # A bare ``import package`` runs its __init__ for side effects (the
    # lint rule pack registers itself that way): it uses the submodules
    # the __init__ imports as modules, none of its re-exported names.
    targets: set[str] = set()
    for source, imported in _imports(MODULES[module], module):
        if name is None:
            if source == module and f"{module}.{imported}" in MODULES:
                targets |= _resolve(f"{module}.{imported}", None, seen)
        elif imported == name:
            targets |= _resolve(source, imported, seen + ((module, name),))
    return targets


def _reached() -> set[str]:
    frontier = [
        name
        for name in MODULES
        if name in SURFACE_MODULES or name.startswith(tuple(f"{s}." for s in SURFACES))
    ]
    frontier = [name for name in frontier if name not in PACKAGES]
    reached = set(frontier)
    while frontier:
        module = frontier.pop()
        for source, name in _imports(MODULES[module], module):
            for target in _resolve(source, name) - reached:
                reached.add(target)
                frontier.append(target)
    return reached


def _listed(module: str) -> bool:
    return any(
        module == entry or (entry.endswith(".") and module.startswith(entry))
        for entry in UNREACHED
    )


def test_every_module_is_reached_or_listed():
    reached = _reached()
    assert "repro.bitset.kernel" in reached and "repro.core.rtc" in reached
    orphans = sorted(
        name
        for name in MODULES
        if name not in PACKAGES and name not in reached and not _listed(name)
    )
    assert not orphans, (
        "no surface imports these modules (a package __init__ re-export "
        f"does not count); wire them in, delete them, or list them: {orphans}"
    )


def test_the_list_names_only_unreached_modules_that_exist():
    reached = _reached()
    for entry, reason in UNREACHED.items():
        assert reason, entry
        covered = [
            name
            for name in MODULES
            if name not in PACKAGES
            and (name == entry or (entry.endswith(".") and name.startswith(entry)))
        ]
        assert covered, f"{entry} matches no module under src/repro"
        # A prefix stays listed while any module under it is unreached.
        assert not all(name in reached for name in covered), (
            f"{entry} is reached by a surface now; drop it from the list"
        )
