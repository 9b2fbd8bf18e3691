"""lock-discipline: private state of lock-owning classes is written
under that lock.

The serving stack's concurrency model (``repro/api/service.py``'s
module docstring) hinges on a convention no runtime check enforces: a
class that owns a ``threading.Lock``/``RLock`` named ``_lock`` (or
``*_lock``) mutates its ``self._*`` attributes only inside ``with
self._lock``.  This rule makes the convention mechanical: every store
to a ``self._``-prefixed attribute — plain assignment, augmented
assignment, annotated assignment, ``del``, or a subscript store like
``self._queues[k] = v`` — outside a lexical ``with self.<lock>`` block
is a finding.

Scope: :mod:`repro.cache` and :mod:`repro.api`
(the subsystems whose objects are hit from multiple threads).
Constructors and pickle hooks are exempt (no concurrent access exists
before ``__init__`` returns / during unpickling), as are reads — the
repo's flags (``_closed``, ``_closing``) are intentionally read without
the lock on fast paths.

Known limitations, by design: only *lexical* nesting counts (a helper
called with the lock held must take the lock itself — re-entrant locks
make that cheap), and mutation through method calls
(``self._conns.add(...)``) is out of scope.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.project import Module, ProjectIndex

NAME = "lock-discipline"
DESCRIPTION = "writes to self._* attributes of lock-owning classes must hold the lock"

#: subsystems whose classes are accessed from multiple threads
SCOPES = ("repro.cache", "repro.api")

#: methods that run before/without concurrent access
_EXEMPT_METHODS = {
    "__init__",
    "__post_init__",
    "__new__",
    "__getstate__",
    "__setstate__",
    "__reduce__",
    "__reduce_ex__",
    "__del__",
}

_LOCK_FACTORIES = {"Lock", "RLock"}


def _is_lock_factory(expr: ast.expr) -> bool:
    """``threading.Lock()``/``RLock()`` (or the bare imported names)."""
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    return isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES


def _lock_factory_name(expr: ast.expr) -> bool:
    """The un-called factory, as passed to ``field(default_factory=...)``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr in _LOCK_FACTORIES
    return isinstance(expr, ast.Name) and expr.id in _LOCK_FACTORIES


def _owned_locks(classdef: ast.ClassDef) -> set[str]:
    """Lock attributes this class owns, by name.

    Ownership means ``self.<name> = threading.Lock()`` in ``__init__``
    (the plain-class pattern) or a dataclass field with
    ``field(default_factory=threading.Lock)`` (the ``EndpointStats``
    pattern).  The value must actually be a lock factory, so names like
    ``_lock_file`` holding a path never count.
    """
    locks: set[str] = set()
    for node in classdef.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and _matches_lock_name(node.target.id)
            and isinstance(node.value, ast.Call)
        ):
            for keyword in node.value.keywords:
                if keyword.arg == "default_factory" and _lock_factory_name(
                    keyword.value
                ):
                    locks.add(node.target.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _matches_lock_name(target.attr)
                        and _is_lock_factory(stmt.value)
                    ):
                        locks.add(target.attr)
    return locks


def _matches_lock_name(name: str) -> bool:
    return name == "_lock" or name.endswith("_lock")


def _acquires_lock(with_stmt: ast.With | ast.AsyncWith, locks: set[str]) -> bool:
    for item in with_stmt.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in locks
        ):
            return True
    return False


def _store_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target]
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target]
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    return []


def _self_private_stores(target: ast.expr) -> list[ast.Attribute]:
    """``self._x`` attributes this assignment target mutates."""
    if isinstance(target, (ast.Tuple, ast.List)):
        stores = []
        for element in target.elts:
            stores += _self_private_stores(element)
        return stores
    if isinstance(target, ast.Starred):
        return _self_private_stores(target.value)
    if isinstance(target, ast.Attribute):
        if (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr.startswith("_")
        ):
            return [target]
        return []
    if isinstance(target, ast.Subscript):
        return _self_private_stores(target.value)
    return []


def _sub_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if block:
            bodies.append(block)
    for handler in getattr(stmt, "handlers", ()):
        bodies.append(handler.body)
    return bodies


def _scan_block(
    body: list[ast.stmt],
    locks: set[str],
    held: bool,
    context: str,
    module: Module,
    findings: list[Finding],
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            _scan_block(
                stmt.body,
                locks,
                held or _acquires_lock(stmt, locks),
                context,
                module,
                findings,
            )
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # a nested def runs later, under its caller's locking
        if not held:
            for target in _store_targets(stmt):
                for store in _self_private_stores(target):
                    lock_list = " / ".join(f"self.{name}" for name in sorted(locks))
                    findings.append(
                        Finding(
                            rule=NAME,
                            path=module.rel,
                            line=store.lineno,
                            message=(
                                f"{context} writes self.{store.attr} outside "
                                f"'with {lock_list}'"
                            ),
                        )
                    )
        _scan_block(_sub_bodies_flat(stmt), locks, held, context, module, findings)


def _sub_bodies_flat(stmt: ast.stmt) -> list[ast.stmt]:
    flat: list[ast.stmt] = []
    for body in _sub_bodies(stmt):
        flat.extend(body)
    return flat


def check(project: ProjectIndex) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.iter_modules(*SCOPES):
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            locks = _owned_locks(node)
            if not locks:
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in _EXEMPT_METHODS:
                    continue
                context = f"{node.name}.{method.name}"
                _scan_block(method.body, locks, False, context, module, findings)
    return findings
