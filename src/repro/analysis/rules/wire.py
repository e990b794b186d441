"""RPR3xx -- wire-protocol and error-code registries.

The JSON-lines protocol has two sides that can drift independently:
the client (``server/client.py``) constructs ``{"op": <verb>}``
requests, and the server (``server/service.py``, whose handlers the
cluster router inherits) dispatches on ``self._handlers`` dict keys.  A
verb added on one side but not the other fails only at runtime, with a
``bad_request`` error three hops away from the typo.

``RPR301`` cross-references the two sides (plus the declared ``VERBS``
tuple in ``server/protocol.py``): every constructed verb must have a
handler, every handler key must have a constructor.

``RPR302`` does the same for error codes: every ``code="..."``
raised or assigned on an exception must be declared in the canonical
``ERROR_CODES`` registry in ``errors.py`` -- that registry is what the
client-side ``exception_from_payload`` rehydration is tested against,
so an undeclared code is an error the client cannot reconstruct.

Files are recognised by basename (``client.py``, ``service.py``,
``protocol.py``, ``errors.py``), so the rules work on fixture corpora
as well as the real tree.  WAL record shapes (``storage/recovery.py``
``{"op": "update"}``, the router log's ``{"op": "route"}``) are
*storage* formats, not wire verbs -- scoping senders to client
basenames is what keeps them out.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import string_const
from repro.analysis.base import Rule, register_rule

__all__ = ["WireVerbRule", "ErrorCodeRule"]

_SENDER_FILES = {"client.py"}
_HANDLER_FILES = {"service.py"}


def _dict_entries(node: ast.Dict):
    for key, value in zip(node.keys, node.values):
        yield string_const(key), value


def _sent_verbs(module):
    """``(verb, node)`` for every wire request this module constructs."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Dict):
            for key, value in _dict_entries(node):
                if key == "op":
                    verb = string_const(value)
                    if verb is not None:
                        yield verb, node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "call"
            and node.args
        ):
            verb = string_const(node.args[0])
            if verb is not None:
                yield verb, node


def _handled_verbs(module):
    """``(verb, node)`` for every ``self._handlers = {...}`` key."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Dict
        ):
            continue
        for target in node.targets:
            named = (
                isinstance(target, ast.Attribute) and target.attr == "_handlers"
            ) or (isinstance(target, ast.Name) and target.id == "_handlers")
            if not named:
                continue
            for key, _value in _dict_entries(node.value):
                if key is not None:
                    yield key, node


def _declared_verbs(module):
    """The ``VERBS`` tuple of a ``protocol.py`` module."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "VERBS"
            for target in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
            for element in node.value.elts:
                verb = string_const(element)
                if verb is not None:
                    yield verb, node


@register_rule
class WireVerbRule(Rule):
    id = "RPR301"
    name = "wire verb without a matching handler/constructor"
    rationale = (
        "Clients construct {'op': <verb>} requests and servers dispatch "
        "on _handlers keys; the two drift independently and a mismatch "
        "only surfaces as a runtime bad_request.  Every constructed verb "
        "needs a handler, every handler key needs a constructor, and "
        "both must appear in protocol.VERBS when it is declared."
    )

    def __init__(self) -> None:
        self._sent: dict = {}  # verb -> first (module, node)
        self._handled: dict = {}
        self._declared: dict = {}

    def collect(self, module) -> None:
        basename = module.path.name
        if basename in _SENDER_FILES:
            for verb, node in _sent_verbs(module):
                self._sent.setdefault(verb, (module, node))
        if basename in _HANDLER_FILES:
            for verb, node in _handled_verbs(module):
                self._handled.setdefault(verb, (module, node))
        if basename == "protocol.py":
            for verb, node in _declared_verbs(module):
                self._declared.setdefault(verb, (module, node))

    def finalize(self, project) -> list:
        findings: list = []
        # Only cross-reference when both sides are in the linted set --
        # linting client.py alone must not report every verb unhandled.
        if self._sent and self._handled:
            for verb in sorted(set(self._sent) - set(self._handled)):
                module, node = self._sent[verb]
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"wire verb {verb!r} is constructed here but no "
                        f"_handlers entry in service.py "
                        f"dispatches it",
                        verb=verb,
                    )
                )
            for verb in sorted(set(self._handled) - set(self._sent)):
                module, node = self._handled[verb]
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"handler for verb {verb!r} is registered here "
                        f"but no client (client.py) ever "
                        f"constructs it",
                        verb=verb,
                    )
                )
        if self._declared:
            for verb in sorted(set(self._sent) - set(self._declared)):
                module, node = self._sent[verb]
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"wire verb {verb!r} is constructed here but "
                        f"missing from protocol.VERBS",
                        verb=verb,
                    )
                )
        return findings


def _used_codes(module):
    """``(code, node)`` for every error-code literal this module uses.

    Three shapes: ``code="x"`` call keywords (exception constructors),
    ``<something>.code = "x"`` attribute assigns (post-hoc tagging), and
    -- in ``errors.py``/``protocol.py`` only -- bare ``code = "x"``
    name assigns (class attributes, ``error_payload`` locals).  The
    name-assign shape is scoped because ``code`` is too common a local
    elsewhere.
    """
    scan_names = module.path.name in {"errors.py", "protocol.py"}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "code":
                    code = string_const(keyword.value)
                    if code is not None:
                        yield code, node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            code = string_const(node.value)
            if code is None:
                continue
            if isinstance(target, ast.Attribute) and target.attr == "code":
                yield code, node
            elif (
                scan_names
                and isinstance(target, ast.Name)
                and target.id == "code"
            ):
                yield code, node


def _registry_codes(module):
    """String keys/members of ``ERROR_CODES`` in an ``errors.py``."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "ERROR_CODES"
            for target in node.targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            for key, _entry in _dict_entries(value):
                if key is not None:
                    yield key
        elif isinstance(value, ast.Call) and value.args:
            # frozenset({...}) / frozenset((...)) wrapper.
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            for element in value.elts:
                code = string_const(element)
                if code is not None:
                    yield code


@register_rule
class ErrorCodeRule(Rule):
    id = "RPR302"
    name = "error code missing from the ERROR_CODES registry"
    rationale = (
        "exception_from_payload rehydrates wire errors by their string "
        "code; a code raised somewhere but absent from "
        "errors.ERROR_CODES reaches the client as an exception it "
        "cannot classify.  Declare every code (with its meaning) in the "
        "registry -- the round-trip test covers exactly that set."
    )

    def __init__(self) -> None:
        self._registry: set | None = None
        self._uses: list = []  # (code, module, node)

    def collect(self, module) -> None:
        if module.path.name == "errors.py":
            declared = set(_registry_codes(module))
            if declared:
                self._registry = (self._registry or set()) | declared
        for code, node in _used_codes(module):
            self._uses.append((code, module, node))

    def finalize(self, project) -> list:
        registry = self._registry
        if registry is None:
            # No in-project registry (partial lint of a few files):
            # fall back to the shipped canonical one.
            try:
                from repro.errors import ERROR_CODES
            except ImportError:
                return []
            registry = set(ERROR_CODES)
        findings: list = []
        for code, module, node in self._uses:
            if code not in registry:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"error code {code!r} is not declared in "
                        f"errors.ERROR_CODES; add it (with its meaning) "
                        f"so clients can rehydrate it",
                        code=code,
                    )
                )
        return findings
