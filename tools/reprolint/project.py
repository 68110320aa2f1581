"""Project-wide analysis pass for reprolint.

Per-file rules (REPRO001-007) see one :class:`FileContext` at a time.
The properties that actually break reproductions are *cross-module*: an
unseeded RNG leaking through a call chain into a deterministic snapshot,
or an unguarded mutation on an object shared across scheduler threads.
This module builds the shared infrastructure those rules need:

* a **symbol table** — every module, class, method and function in the
  analyzed file set, keyed by qualified name
  (``repro.service.scheduler.CampaignScheduler.submit``);
* an **import graph** — per module, the mapping from local names to the
  fully qualified modules/objects they denote;
* an **attribute-type map** — per class, the best-effort static type of
  each ``self.<attr>`` (from dataclass field annotations, ``__init__``
  parameter annotations, and direct ``self.x = ClassName(...)``
  assignments);
* an **approximate call graph** — resolved edges between analyzed
  functions, traversing ``self.method()``, ``self.attr.method()`` (via
  the attribute-type map), ``module.function()`` (via imports) and bare
  calls to module-level or imported functions/constructors.

The resolution is deliberately *approximate*: anything it cannot
resolve is kept as a raw dotted name (rules still match those against
module aliases, e.g. ``random.random``), and never guessed by bare
method-name matching — a wrong edge in a taint analysis is worse than a
missing one.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.reprolint.engine import FileContext
from tools.reprolint.rules.common import dotted_name


def module_name_for(relpath: str) -> str:
    """Dotted module name for a POSIX relpath (``src/`` layout aware).

    ``src/repro/service/http.py`` -> ``repro.service.http``;
    ``tests/test_cli.py`` -> ``tests.test_cli``;
    ``src/repro/__init__.py`` -> ``repro``.
    """
    parts = list(Path(relpath).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class CallSite:
    """One ``ast.Call`` inside an analyzed function."""

    node: ast.Call
    #: dotted name of the callee as written (``self._promote_follower``,
    #: ``random.random``, ``sorted``) — None for computed callees.
    raw: Optional[str]
    #: qualified name of the analyzed target, once resolution succeeds.
    resolved: Optional[str] = None


@dataclass
class FunctionInfo:
    """One function or method in the symbol table."""

    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    ctx: FileContext
    module: "ModuleInfo"
    cls: Optional["ClassInfo"] = None
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class in the symbol table."""

    qualname: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    module: "ModuleInfo"
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    is_dataclass: bool = False
    #: dataclass-style annotated class-body fields, in declaration order.
    fields: List[Tuple[str, str]] = field(default_factory=list)
    #: self.<attr> -> qualified name of an analyzed class (best effort).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: self.<attr> -> raw annotation source (best effort; includes
    #: dataclass fields and ``__init__`` parameter annotations).
    attr_annotations: Dict[str, str] = field(default_factory=dict)
    #: attributes assigned a ``threading.Lock/RLock/Condition`` in the
    #: class body or ``__init__``.
    lock_attrs: Set[str] = field(default_factory=set)
    #: attributes assigned a ``threading.Event`` (thread-safe; exempt
    #: from lock discipline).
    event_attrs: Set[str] = field(default_factory=set)
    #: True when any method constructs ``threading.Thread``.
    spawns_threads: bool = False


@dataclass
class ModuleInfo:
    """One analyzed module."""

    name: str
    relpath: str
    ctx: FileContext
    #: local name -> fully qualified target.  ``import threading`` maps
    #: ``threading -> threading``; ``from repro.rng import derive_seed``
    #: maps ``derive_seed -> repro.rng.derive_seed``.
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


_LOCK_CONSTRUCTORS = ("Lock", "RLock", "Condition", "Semaphore",
                     "BoundedSemaphore")


class ProjectContext:
    """Symbol table + import graph + approximate call graph."""

    def __init__(self, root: Path):
        self.root = root
        self.files: Dict[str, FileContext] = {}
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qualname -> callee qualnames (resolved edges only).
        self.call_graph: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        contexts: Sequence[FileContext],
        root: Path,
    ) -> "ProjectContext":
        project = cls(root)
        for ctx in contexts:
            project._index_file(ctx)
        project._infer_attr_types()
        project._resolve_calls()
        return project

    def context_for(self, relpath: str) -> Optional[FileContext]:
        return self.files.get(relpath)

    # ------------------------------------------------------------------ #
    # Pass 1a: symbols and imports
    # ------------------------------------------------------------------ #
    def _index_file(self, ctx: FileContext) -> None:
        self.files[ctx.relpath] = ctx
        module = ModuleInfo(
            name=module_name_for(ctx.relpath), relpath=ctx.relpath, ctx=ctx
        )
        self.modules[module.name] = module
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                prefix = node.module
                if node.level:  # relative import: resolve against module
                    base = module.name.split(".")
                    base = base[: len(base) - node.level]
                    prefix = ".".join(base + [node.module])
                for alias in node.names:
                    module.imports[alias.asname or alias.name] = (
                        f"{prefix}.{alias.name}"
                    )
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, stmt, cls=None)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        from tools.reprolint.rules.common import decorator_matches

        info = ClassInfo(
            qualname=f"{module.name}.{node.name}" if module.name else node.name,
            name=node.name,
            node=node,
            ctx=module.ctx,
            module=module,
            is_dataclass=any(
                decorator_matches(dec, "dataclass") for dec in node.decorator_list
            ),
        )
        module.classes[node.name] = info
        self.classes[info.qualname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, stmt, cls=info)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                annotation = ast.unparse(stmt.annotation)
                info.fields.append((stmt.target.id, annotation))
                info.attr_annotations[stmt.target.id] = annotation
        threading_aliases = self._threading_aliases(module)
        for method in info.methods.values():
            for call in ast.walk(method.node):
                if not isinstance(call, ast.Call):
                    continue
                ctor = self._threading_ctor(call, module, threading_aliases)
                if ctor == "Thread":
                    info.spawns_threads = True
        init = info.methods.get("__init__")
        if init is not None:
            for stmt in ast.walk(init.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                value = stmt.value
                if value is None:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    for call in ast.walk(value):
                        if not isinstance(call, ast.Call):
                            continue
                        ctor = self._threading_ctor(
                            call, module, threading_aliases
                        )
                        if ctor in _LOCK_CONSTRUCTORS:
                            info.lock_attrs.add(target.attr)
                        elif ctor == "Event":
                            info.event_attrs.add(target.attr)

    @staticmethod
    def _threading_aliases(module: ModuleInfo) -> Set[str]:
        return {
            local
            for local, target in module.imports.items()
            if target == "threading"
        }

    @staticmethod
    def _threading_ctor(
        call: ast.Call, module: ModuleInfo, threading_aliases: Set[str]
    ) -> Optional[str]:
        """Name of the ``threading.*`` constructor this call invokes."""
        func = call.func
        if isinstance(func, ast.Attribute):
            owner = dotted_name(func.value)
            if owner in threading_aliases:
                return func.attr
            return None
        if isinstance(func, ast.Name):
            target = module.imports.get(func.id)
            if target is not None and target.startswith("threading."):
                return target.split(".")[-1]
        return None

    def _index_function(
        self,
        module: ModuleInfo,
        node: ast.AST,
        cls: Optional[ClassInfo],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        scope = f"{cls.qualname}" if cls is not None else module.name
        qualname = f"{scope}.{node.name}" if scope else node.name
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            ctx=module.ctx,
            module=module,
            cls=cls,
        )
        if cls is not None:
            cls.methods[node.name] = info
        else:
            module.functions[node.name] = info
        self.functions[qualname] = info
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                info.calls.append(
                    CallSite(node=inner, raw=dotted_name(inner.func))
                )

    # ------------------------------------------------------------------ #
    # Pass 1b: attribute types
    # ------------------------------------------------------------------ #
    def _infer_attr_types(self) -> None:
        for cls in self.classes.values():
            # Dataclass / class-body field annotations.
            for name, annotation in cls.attr_annotations.items():
                resolved = self._class_from_annotation(cls.module, annotation)
                if resolved is not None:
                    cls.attr_types[name] = resolved.qualname
            init = cls.methods.get("__init__")
            if init is None:
                continue
            assert isinstance(init.node, (ast.FunctionDef, ast.AsyncFunctionDef))
            param_annotations: Dict[str, str] = {}
            args = init.node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    param_annotations[arg.arg] = ast.unparse(arg.annotation)
            for stmt in ast.walk(init.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                value = stmt.value
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if isinstance(stmt, ast.AnnAssign):
                        annotation = ast.unparse(stmt.annotation)
                        cls.attr_annotations.setdefault(attr, annotation)
                        resolved = self._class_from_annotation(
                            cls.module, annotation
                        )
                        if resolved is not None:
                            cls.attr_types.setdefault(attr, resolved.qualname)
                    # self.x = x  (or  self.x = x if ... else Default()):
                    # adopt the annotation of the identically named param.
                    names = {
                        n.id
                        for n in ast.walk(value)
                        if isinstance(n, ast.Name)
                    } if value is not None else set()
                    if attr in param_annotations and attr in names:
                        annotation = param_annotations[attr]
                        cls.attr_annotations.setdefault(attr, annotation)
                        resolved = self._class_from_annotation(
                            cls.module, annotation
                        )
                        if resolved is not None:
                            cls.attr_types.setdefault(attr, resolved.qualname)
                    # self.x = ClassName(...): direct construction.
                    if isinstance(value, ast.Call):
                        ctor = self._resolve_class_call(cls.module, value)
                        if ctor is not None:
                            cls.attr_types.setdefault(attr, ctor.qualname)

    def _class_from_annotation(
        self, module: ModuleInfo, annotation: str
    ) -> Optional[ClassInfo]:
        """First analyzed class an annotation string refers to."""
        try:
            tree = ast.parse(annotation, mode="eval")
        except SyntaxError:
            return None
        for node in ast.walk(tree):
            name: Optional[str] = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value  # forward reference
            elif isinstance(node, ast.Attribute):
                name = dotted_name(node)
            if name is None or name in ("Optional", "List", "Dict", "Set",
                                        "Tuple", "Union", "Sequence",
                                        "Mapping", "FrozenSet"):
                continue
            resolved = self._resolve_class_name(module, name)
            if resolved is not None:
                return resolved
        return None

    def _resolve_class_name(
        self, module: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        if name in module.classes:
            return module.classes[name]
        target = module.imports.get(name.split(".")[0])
        if target is not None:
            # ``from repro.x import C`` -> repro.x.C;
            # ``import repro.x as m`` + ``m.C`` -> repro.x.C.
            dotted = (
                target
                if "." not in name
                else f"{target}.{name.split('.', 1)[1]}"
            )
            found = self.classes.get(dotted)
            if found is not None:
                return found
        return self.classes.get(name)

    def _resolve_class_call(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[ClassInfo]:
        raw = dotted_name(call.func)
        if raw is None:
            return None
        return self._resolve_class_name(module, raw)

    # ------------------------------------------------------------------ #
    # Pass 1c: call resolution
    # ------------------------------------------------------------------ #
    def _resolve_calls(self) -> None:
        for fn in self.functions.values():
            edges = self.call_graph.setdefault(fn.qualname, set())
            for call in fn.calls:
                target = self._resolve_call(fn, call)
                if target is not None:
                    call.resolved = target
                    edges.add(target)

    def _resolve_call(self, fn: FunctionInfo, call: CallSite) -> Optional[str]:
        raw = call.raw
        if raw is None:
            return None
        parts = raw.split(".")
        module = fn.module
        # self.method() / self.attr.method()
        if parts[0] == "self" and fn.cls is not None:
            if len(parts) == 2:
                method = fn.cls.methods.get(parts[1])
                return method.qualname if method is not None else None
            if len(parts) == 3:
                owner = self.classes.get(fn.cls.attr_types.get(parts[1], ""))
                if owner is not None:
                    method = owner.methods.get(parts[2])
                    return method.qualname if method is not None else None
            return None
        # bare name: module function, class constructor, or import.
        if len(parts) == 1:
            name = parts[0]
            if name in module.functions:
                return module.functions[name].qualname
            if name in module.classes:
                init = module.classes[name].methods.get("__init__")
                return (
                    init.qualname
                    if init is not None
                    else module.classes[name].qualname
                )
            target = module.imports.get(name)
            if target is not None:
                return self._qualname_of(target)
            return None
        # dotted: resolve the head through imports.
        head = module.imports.get(parts[0])
        if head is not None:
            return self._qualname_of(".".join([head, *parts[1:]]))
        return None

    def _qualname_of(self, dotted: str) -> Optional[str]:
        """Map a fully qualified dotted target onto an analyzed symbol."""
        if dotted in self.functions:
            return dotted
        cls = self.classes.get(dotted)
        if cls is not None:
            init = cls.methods.get("__init__")
            return init.qualname if init is not None else cls.qualname
        # ``repro.x.Class.method`` spelled through a module import.
        if "." in dotted:
            owner, attr = dotted.rsplit(".", 1)
            cls = self.classes.get(owner)
            if cls is not None:
                method = cls.methods.get(attr)
                return method.qualname if method is not None else None
        return None

    # ------------------------------------------------------------------ #
    # Graph utilities
    # ------------------------------------------------------------------ #
    def transitive_callees(self, roots: Sequence[str]) -> Set[str]:
        """Every function reachable from ``roots`` through resolved calls."""
        seen: Set[str] = set()
        queue = deque(q for q in roots if q in self.functions)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            for callee in self.call_graph.get(current, ()):
                if callee not in seen:
                    queue.append(callee)
        return seen

    def call_path(self, start: str, goal: str) -> Optional[List[str]]:
        """Shortest resolved call chain from ``start`` to ``goal``."""
        if start == goal:
            return [start]
        parents: Dict[str, str] = {}
        queue = deque([start])
        seen = {start}
        while queue:
            current = queue.popleft()
            for callee in sorted(self.call_graph.get(current, ())):
                if callee in seen:
                    continue
                parents[callee] = current
                if callee == goal:
                    chain = [goal]
                    while chain[-1] != start:
                        chain.append(parents[chain[-1]])
                    return list(reversed(chain))
                seen.add(callee)
                queue.append(callee)
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    def iter_classes(self) -> Iterator[ClassInfo]:
        for qualname in sorted(self.classes):
            yield self.classes[qualname]
