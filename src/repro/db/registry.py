"""The pluggable engine registry behind :class:`~repro.db.GraphDB`.

A flat ``name -> engine class`` mapping.  The three paper engines are
pre-registered; third-party code adds its own without touching
:mod:`repro.core.engines`::

    from repro.db import register_engine
    from repro.core.engines import RPQEngine

    @register_engine("mine")
    class MyEngine(RPQEngine):
        def _evaluate_node(self, node):
            ...

    db = GraphDB.open("graph.txt", engine="mine")

Names are case-insensitive (normalised to lower case).  Registering an
already-taken name raises unless ``replace=True`` is passed, so an
accidental collision with a built-in is loud.  An engine class only needs
to be constructible as ``EngineClass(graph, **kwargs)`` and expose
``evaluate(query) -> set[pair]``; subclassing
:class:`~repro.core.engines.RPQEngine` additionally lights up the timing
and shared-data columns of :class:`~repro.db.ResultSet`.

A session builds one engine.  Served, that engine's ``evaluate`` is
called from several threads at once (the server's worker pool and its
event loop), between updates, which the server applies only once every
read in flight has finished: keep per-call state in locals, not on the
engine, or guard it with a lock.
"""

from __future__ import annotations

from repro.core.engines import (
    FullSharingEngine,
    NoSharingEngine,
    RTCSharingEngine,
)
from repro.errors import UnknownEngineError
from repro.graph.multigraph import LabeledMultigraph

__all__ = [
    "available_engines",
    "create_engine",
    "get_engine_class",
    "register_engine",
    "unregister_engine",
]

_BUILTIN_ENGINES = {
    "no": NoSharingEngine,
    "full": FullSharingEngine,
    "rtc": RTCSharingEngine,
}

_registry: dict[str, type] = dict(_BUILTIN_ENGINES)


def _normalise(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise TypeError(f"engine name must be a non-empty string, got {name!r}")
    return name.lower()


def register_engine(name: str, engine_class: type | None = None, *, replace: bool = False):
    """Register ``engine_class`` under ``name`` (case-insensitive).

    Usable directly (``register_engine("mine", MyEngine)``) or as a class
    decorator (``@register_engine("mine")``).  Raises ``ValueError`` when
    the name is taken and ``replace`` is not set; returns the class either
    way so the decorator form is transparent.
    """
    key = _normalise(name)

    def _register(cls: type) -> type:
        if not callable(cls):
            raise TypeError(f"engine class must be callable, got {cls!r}")
        if not replace and key in _registry and _registry[key] is not cls:
            raise ValueError(
                f"engine name {name!r} is already registered to "
                f"{_registry[key].__name__}; pass replace=True to override"
            )
        _registry[key] = cls
        return cls

    if engine_class is None:
        return _register
    return _register(engine_class)


def unregister_engine(name: str) -> None:
    """Remove ``name`` from the registry (built-ins included; loud if absent)."""
    key = _normalise(name)
    if key not in _registry:
        raise UnknownEngineError(name, available_engines())
    del _registry[key]


def get_engine_class(name: str) -> type:
    """The engine class registered under ``name``.

    Raises :class:`~repro.errors.UnknownEngineError` (a
    :class:`~repro.errors.ReproError`) for unknown names.
    """
    try:
        return _registry[_normalise(name)]
    except KeyError:
        raise UnknownEngineError(name, available_engines()) from None


def available_engines() -> tuple[str, ...]:
    """Currently registered engine names, sorted."""
    return tuple(sorted(_registry))


def create_engine(name: str, graph: LabeledMultigraph, **kwargs):
    """Instantiate the engine registered under ``name`` on ``graph``."""
    return get_engine_class(name)(graph, **kwargs)


def reset_registry() -> None:
    """Restore the built-in-only registry (test isolation helper)."""
    _registry.clear()
    _registry.update(_BUILTIN_ENGINES)
