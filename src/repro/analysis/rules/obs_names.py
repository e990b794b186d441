"""RPR5xx -- observability name registry.

Dashboards, the forensics CLI (``repro trace``/``repro explain``), and
``phase_totals`` all key on *string* span/metric/phase names; a typo'd
name at an instrumentation site silently produces an empty panel.  PR 9
introduces :mod:`repro.obs.names` as the declared registry
(``SPAN_NAMES``, ``METRIC_NAMES``, ``PHASE_KEYS``); ``RPR501`` checks
every name *literal* at an instrumentation site against it.

Only literals are checked -- a name computed at runtime (e.g. an engine
phase key passed on by ``evaluate_plan``) is out of static reach
and is skipped, not guessed at.  The registry is read from a ``names.py``
module in the linted set when present (fixtures), falling back to the
shipped :mod:`repro.obs.names`.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import dotted_source, string_const
from repro.analysis.base import Rule, register_rule

__all__ = ["ObsNameRule"]

_METRIC_METHODS = {"counter", "gauge", "histogram"}
_REGISTRY_VARS = ("SPAN_NAMES", "METRIC_NAMES", "PHASE_KEYS")


def _declared_sets(module) -> dict | None:
    """``{var: set}`` for the registry assignments of a ``names.py``."""
    declared: dict = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Name) and target.id in _REGISTRY_VARS
            ):
                continue
            value = node.value
            if isinstance(value, ast.Call) and value.args:
                value = value.args[0]  # frozenset({...})
            if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
                names = {
                    name
                    for name in map(string_const, value.elts)
                    if name is not None
                }
                declared[target.id] = declared.get(target.id, set()) | names
    return declared or None


def _span_literal(call: ast.Call):
    """The span-name literal of a tracer/ambient call, if any."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "ambient_span":
        pass
    elif isinstance(func, ast.Attribute) and func.attr in {"begin", "span"}:
        pass  # begin/span are tracer-specific names in this codebase
    elif isinstance(func, ast.Attribute) and func.attr == "record":
        # .record is generic (the slow-query log has one too): only
        # tracer-ish receivers count -- `tracer.record`, `self._tracer
        # .record`, or the `trace[0].record` tuple-unpacked form.
        receiver = (dotted_source(func.value) or "").lower()
        if "tracer" not in receiver and not isinstance(
            func.value, ast.Subscript
        ):
            return None
    else:
        return None
    if call.args:
        return string_const(call.args[0])
    return None


def _metric_literal(call: ast.Call):
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS):
        return None
    if call.args:
        return string_const(call.args[0])
    return None


def _phase_literals(node):
    """Phase-key literals: ``phase="x"`` keywords and ``{"phase": "x"}``
    dict entries."""
    if isinstance(node, ast.Call):
        for keyword in node.keywords:
            if keyword.arg == "phase":
                phase = string_const(keyword.value)
                if phase is not None:
                    yield phase
    elif isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if string_const(key) == "phase":
                phase = string_const(value)
                if phase is not None:
                    yield phase


@register_rule
class ObsNameRule(Rule):
    id = "RPR501"
    name = "span/metric/phase name missing from repro.obs.names"
    rationale = (
        "Traces, metrics dashboards, and phase_totals key on string "
        "names; a typo at an instrumentation site produces an empty "
        "panel, not an error.  Every literal span name (tracer.begin/"
        "span/record, ambient_span), metric name (counter/gauge/"
        "histogram), and phase key must be declared in repro.obs.names."
    )

    def __init__(self) -> None:
        self._declared: dict | None = None
        self._uses: list = []  # (kind, name, module, node)

    def collect(self, module) -> None:
        if module.path.name == "names.py":
            declared = _declared_sets(module)
            if declared:
                merged = self._declared or {}
                for var, names in declared.items():
                    merged[var] = merged.get(var, set()) | names
                self._declared = merged
        if module.name == "repro.obs.names":
            return  # the registry itself is not an instrumentation site
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                span = _span_literal(node)
                if span is not None:
                    self._uses.append(("SPAN_NAMES", span, module, node))
                metric = _metric_literal(node)
                if metric is not None:
                    self._uses.append(("METRIC_NAMES", metric, module, node))
            for phase in _phase_literals(node):
                self._uses.append(("PHASE_KEYS", phase, module, node))

    def finalize(self, project) -> list:
        declared = self._declared
        if declared is None:
            try:
                from repro.obs import names as shipped
            except ImportError:
                return []
            declared = {
                "SPAN_NAMES": set(shipped.SPAN_NAMES),
                "METRIC_NAMES": set(shipped.METRIC_NAMES),
                "PHASE_KEYS": set(shipped.PHASE_KEYS),
            }
        labels = {
            "SPAN_NAMES": "span name",
            "METRIC_NAMES": "metric name",
            "PHASE_KEYS": "phase key",
        }
        findings: list = []
        for kind, name, module, node in self._uses:
            known = declared.get(kind)
            if known is None or name in known:
                continue
            findings.append(
                self.finding(
                    module,
                    node,
                    f"{labels[kind]} {name!r} is not declared in "
                    f"repro.obs.names.{kind}; declare it or fix the typo",
                    kind=kind,
                    name=name,
                )
            )
        return findings
