"""The project index: every source module parsed once, plus the
cross-module resolution the rules share.

Rules never touch the filesystem or ``ast.parse`` themselves — they
receive one :class:`ProjectIndex` and query it.  The index provides the
three resolution capabilities the checkers need beyond a single file's
AST:

* **symbol resolution** — follow ``from x import y`` chains (and the
  PEP 562 ``_EXPORTS`` lazy-export table of :mod:`repro.core`) to the
  defining module, so an annotation like ``VONode`` resolves to the
  union alias in :mod:`repro.core.vo` and from there to its member
  classes;
* **dataclass fields** — field lists *including inherited ones*
  (``TimeWindowQuery`` adds ``start``/``end`` to the ``numeric``/
  ``boolean`` it inherits from ``Query``), in dataclass ``__init__``
  order so positional constructor calls map correctly;
* **the class graph** — a subclass index over every top-level class, so
  conformance checks can close over "every project subclass of X".

Everything is resolved statically from the ASTs; nothing is imported.
That keeps the analyzer runnable on broken code and free of import
side effects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: recursion cap on import chains / alias indirection / base chains
_MAX_DEPTH = 20


@dataclass
class Module:
    """One parsed source file."""

    name: str
    path: Path
    rel: str
    tree: ast.Module
    lines: list[str]

    @property
    def is_package(self) -> bool:
        return self.path.name == "__init__.py"


def is_dataclass_def(classdef: ast.ClassDef) -> bool:
    for decorator in classdef.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ClassVar"
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"


class ProjectIndex:
    """Parsed view of one source tree, with cross-module resolution.

    ``root`` is the project root; sources are read from ``root/src``
    when that directory exists (the repo layout) and from ``root``
    itself otherwise (test fixtures).  Files that fail to parse are
    skipped — the analyzer reports on what it can read rather than
    dying on a syntax error a linter already catches.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root).resolve()
        src = self.root / "src"
        self.source_root = src if src.is_dir() else self.root
        self.modules: dict[str, Module] = {}
        self._file_lines: dict[str, list[str]] = {}
        self._imports: dict[str, dict[str, tuple[str, str | None]]] = {}
        self._class_by_key: dict[tuple[str, str], tuple[Module, ast.ClassDef]] = {}
        self._subclass_index: dict[tuple[str, str], set[tuple[str, str]]] | None = None
        self._load()

    def _load(self) -> None:
        for path in sorted(self.source_root.rglob("*.py")):
            parts = path.relative_to(self.source_root).parts
            if any(part.startswith(".") for part in parts):
                continue
            name_parts = list(parts)
            if name_parts[-1] == "__init__.py":
                name_parts.pop()
            else:
                name_parts[-1] = name_parts[-1][:-3]
            if not name_parts:
                continue
            try:
                text = path.read_text(encoding="utf-8")
                tree = ast.parse(text)
            except (OSError, SyntaxError, ValueError):
                continue
            name = ".".join(name_parts)
            rel = path.relative_to(self.root).as_posix()
            self.modules[name] = Module(name, path, rel, tree, text.splitlines())

    # -- plain lookups -----------------------------------------------------
    def module(self, name: str) -> Module | None:
        return self.modules.get(name)

    def iter_modules(self, *prefixes: str) -> list[Module]:
        """Modules under any of the dotted ``prefixes`` (all when none)."""
        if not prefixes:
            return list(self.modules.values())
        return [
            module
            for module in self.modules.values()
            if any(
                module.name == prefix or module.name.startswith(prefix + ".")
                for prefix in prefixes
            )
        ]

    def packages(self) -> list[Module]:
        return [module for module in self.modules.values() if module.is_package]

    def file_lines(self, rel: str) -> list[str]:
        """Lines of any file under the project root (for suppression)."""
        if rel not in self._file_lines:
            try:
                text = (self.root / rel).read_text(encoding="utf-8")
            except OSError:
                text = ""
            self._file_lines[rel] = text.splitlines()
        return self._file_lines[rel]

    def iter_classes(self) -> list[tuple[Module, ast.ClassDef]]:
        """Every top-level class in the project."""
        return [
            (module, node)
            for module in self.modules.values()
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        ]

    # -- imports and symbol resolution -------------------------------------
    def imports(self, module: Module) -> dict[str, tuple[str, str | None]]:
        """Local name → ``(source module, symbol)``; symbol ``None`` for
        whole-module imports.  Function-local imports are included —
        the repo uses them to break cycles."""
        cached = self._imports.get(module.name)
        if cached is not None:
            return cached
        table: dict[str, tuple[str, str | None]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    source = alias.name if alias.asname else alias.name.split(".")[0]
                    table[local] = (source, None)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = (base, alias.name)
        self._imports[module.name] = table
        return table

    def _import_base(self, module: Module, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        parts = module.name.split(".")
        if not module.is_package:
            parts = parts[:-1]
        if node.level - 1 > len(parts):
            return None
        parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            parts.append(node.module)
        return ".".join(parts) if parts else None

    def resolve(
        self, module: Module, name: str, _depth: int = 0
    ) -> tuple[Module, ast.stmt] | None:
        """The defining ``(module, node)`` of ``name`` as seen from
        ``module``, following import chains; ``None`` when it resolves
        outside the project (stdlib, third-party)."""
        if _depth > _MAX_DEPTH:
            return None
        for node in module.tree.body:
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name == name:
                return module, node
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return module, node
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                return module, node
        imported = self.imports(module).get(name)
        if imported is not None:
            source_name, symbol = imported
            source = self.modules.get(source_name)
            if source is None or symbol is None:
                return None
            return self.resolve(source, symbol, _depth + 1)
        lazy = self._lazy_exports(module)
        if lazy is not None and name in lazy:
            target = self.modules.get(lazy[name])
            if target is not None and target is not module:
                return self.resolve(target, name, _depth + 1)
        return None

    def _lazy_exports(self, module: Module) -> dict[str, str] | None:
        """The PEP 562 ``_EXPORTS`` name→module table, when present."""
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "_EXPORTS":
                    if isinstance(node.value, ast.Dict):
                        table = {}
                        for key, value in zip(node.value.keys, node.value.values):
                            if (
                                isinstance(key, ast.Constant)
                                and isinstance(key.value, str)
                                and isinstance(value, ast.Constant)
                                and isinstance(value.value, str)
                            ):
                                table[key.value] = value.value
                        return table
        return None

    def resolve_module_alias(self, module: Module, name: str) -> Module | None:
        """The module a bare name refers to (``import x``, ``from p
        import submodule``), or ``None``."""
        imported = self.imports(module).get(name)
        if imported is None:
            return None
        source_name, symbol = imported
        if symbol is None:
            return self.modules.get(source_name)
        return self.modules.get(f"{source_name}.{symbol}")

    # -- class resolution ---------------------------------------------------
    def resolve_classes(
        self, module: Module, expr: ast.expr, _depth: int = 0
    ) -> list[tuple[Module, ast.ClassDef]]:
        """Concrete project classes an annotation/alias expression names.

        Unions (``A | B``, ``Union[A, B]``, ``Optional[A]``), string
        annotations, parenthesised alias chains (``Request = (A | B)``)
        and tuples all expand; ``None`` and container generics
        (``list[A]``) contribute nothing — a container parameter is a
        delegation site, not a direct encoding of ``A``.
        """
        if _depth > _MAX_DEPTH:
            return []
        if isinstance(expr, ast.Name):
            resolved = self.resolve(module, expr.id)
            if resolved is None:
                return []
            found_module, node = resolved
            if isinstance(node, ast.ClassDef):
                return [(found_module, node)]
            if isinstance(node, ast.Assign):
                return self.resolve_classes(found_module, node.value, _depth + 1)
            if isinstance(node, ast.AnnAssign) and node.value is not None:
                return self.resolve_classes(found_module, node.value, _depth + 1)
            return []
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name):
                target = self.resolve_module_alias(module, expr.value.id)
                if target is not None:
                    resolved = self.resolve(target, expr.attr)
                    if resolved is not None and isinstance(resolved[1], ast.ClassDef):
                        return [(resolved[0], resolved[1])]
            return []
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            return self.resolve_classes(
                module, expr.left, _depth + 1
            ) + self.resolve_classes(module, expr.right, _depth + 1)
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                parsed = ast.parse(expr.value, mode="eval").body
            except (SyntaxError, ValueError):
                return []
            return self.resolve_classes(module, parsed, _depth + 1)
        if isinstance(expr, ast.Subscript):
            head = expr.value
            head_name = None
            if isinstance(head, ast.Name):
                head_name = head.id
            elif isinstance(head, ast.Attribute):
                head_name = head.attr
            if head_name == "Optional":
                return self.resolve_classes(module, expr.slice, _depth + 1)
            if head_name == "Union":
                elements = (
                    expr.slice.elts
                    if isinstance(expr.slice, ast.Tuple)
                    else [expr.slice]
                )
                classes: list[tuple[Module, ast.ClassDef]] = []
                for element in elements:
                    classes += self.resolve_classes(module, element, _depth + 1)
                return classes
            return []
        if isinstance(expr, ast.Tuple):
            classes = []
            for element in expr.elts:
                classes += self.resolve_classes(module, element, _depth + 1)
            return classes
        return []

    def dataclass_fields(
        self, module: Module, classdef: ast.ClassDef, _depth: int = 0
    ) -> list[str] | None:
        """Field names in dataclass ``__init__`` order (inherited first),
        or ``None`` when the class is not a dataclass."""
        if _depth > _MAX_DEPTH or not is_dataclass_def(classdef):
            return None
        fields: list[str] = []
        for base in classdef.bases:
            for base_module, base_class in self.resolve_classes(module, base):
                base_fields = self.dataclass_fields(base_module, base_class, _depth + 1)
                for name in base_fields or ():
                    if name not in fields:
                        fields.append(name)
        for node in classdef.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_classvar(node.annotation):
                    continue
                if node.target.id not in fields:
                    fields.append(node.target.id)
        return fields

    # -- the class graph ----------------------------------------------------
    def _ensure_class_graph(self) -> dict[tuple[str, str], set[tuple[str, str]]]:
        if self._subclass_index is not None:
            return self._subclass_index
        index: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for module, classdef in self.iter_classes():
            self._class_by_key[(module.name, classdef.name)] = (module, classdef)
        for module, classdef in self.iter_classes():
            key = (module.name, classdef.name)
            for base in classdef.bases:
                for base_module, base_class in self.resolve_classes(module, base):
                    base_key = (base_module.name, base_class.name)
                    index.setdefault(base_key, set()).add(key)
        self._subclass_index = index
        return index

    def subclasses(
        self, module: Module, classdef: ast.ClassDef
    ) -> list[tuple[Module, ast.ClassDef]]:
        """All transitive project subclasses of ``classdef``."""
        index = self._ensure_class_graph()
        found: list[tuple[Module, ast.ClassDef]] = []
        seen: set[tuple[str, str]] = set()
        stack = [(module.name, classdef.name)]
        while stack:
            for child_key in sorted(index.get(stack.pop(), ())):
                if child_key in seen:
                    continue
                seen.add(child_key)
                child = self._class_by_key.get(child_key)
                if child is not None:
                    found.append(child)
                    stack.append(child_key)
        return found

    def ancestors(
        self, module: Module, classdef: ast.ClassDef, _depth: int = 0
    ) -> list[tuple[Module, ast.ClassDef]]:
        """Project base classes, nearest first (depth-first, de-duped)."""
        if _depth > _MAX_DEPTH:
            return []
        chain: list[tuple[Module, ast.ClassDef]] = []
        seen: set[tuple[str, str]] = set()
        for base in classdef.bases:
            for base_module, base_class in self.resolve_classes(module, base):
                key = (base_module.name, base_class.name)
                if key in seen:
                    continue
                seen.add(key)
                chain.append((base_module, base_class))
                for grand in self.ancestors(base_module, base_class, _depth + 1):
                    grand_key = (grand[0].name, grand[1].name)
                    if grand_key not in seen:
                        seen.add(grand_key)
                        chain.append(grand)
        return chain

    # -- __all__ ------------------------------------------------------------
    def module_all(self, module: Module) -> tuple[list[str] | None, int] | None:
        """``(names, lineno)`` of the module's ``__all__``; names is
        ``None`` when the assignment exists but cannot be resolved
        statically; the whole result is ``None`` when absent.

        Handles literal lists/tuples and the ``sorted(_EXPORTS)`` form
        :mod:`repro.core` uses for its lazy-export table.
        """
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = node.value
                    if value is None:
                        return None, node.lineno
                    return self._name_list(module, value), node.lineno
        return None

    def _name_list(self, module: Module, expr: ast.expr) -> list[str] | None:
        if isinstance(expr, (ast.List, ast.Tuple)):
            names = []
            for element in expr.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                names.append(element.value)
            return names
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "sorted"
            and len(expr.args) == 1
        ):
            inner = expr.args[0]
            if isinstance(inner, ast.Name):
                resolved = self.resolve(module, inner.id)
                if resolved is not None and isinstance(resolved[1], ast.Assign):
                    inner = resolved[1].value
            if isinstance(inner, ast.Dict):
                names = []
                for key in inner.keys:
                    if not (
                        isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ):
                        return None
                    names.append(key.value)
                return sorted(names)
            listed = self._name_list(module, inner)
            return sorted(listed) if listed is not None else None
        return None
