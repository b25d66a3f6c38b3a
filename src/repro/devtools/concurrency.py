"""Concurrency-contract analysis — the ``repro lint --concurrency`` pass.

PRs 5–7 made the repo genuinely concurrent: a writer-preferring
re-entrant ``_RWLock`` held across whole batches, an ``RLock``-guarded
cache, synchronous replica fan-out, and mmap views with strict lifetime
rules.  The classic ruleset (R001–R006) cannot see any of that.  This
module is a second AST pass that *learns the repo's locking model* and
enforces it:

==== ====================  ======================================================
ID   name                  what it catches
==== ====================  ======================================================
R007 lock-order            a cross-module lock-acquisition graph (which locks
                           are acquired while which others are held, resolved
                           intra-procedurally through typed attributes, return
                           annotations, and inheritance) contains a cycle — a
                           potential deadlock
R008 guarded-state         mutation of an attribute declared lock-guarded
                           (``# guarded-by: self._lock`` on its ``__init__``
                           assignment) outside an exclusive ``with``-span or
                           acquire/release span of that lock
R009 raw-acquire           an ``acquire*()`` statement not immediately followed
                           by a ``try/finally`` that releases the same lock
R010 mmap-lifetime         an ``np.frombuffer`` view over an mmap escaping the
                           creating function (returned or stored on ``self``)
                           from a class with no ``_drop_mmap``/``close``
                           teardown path (DESIGN §12's sanctioned lifecycle)
R011 identity-token        comparing or storing ``id()`` of an object without a
                           strong reference — CPython reuses the id of a freed
                           object for its replacement (the PR 7 flake class)
R012 blocking-under-lock   file I/O (``open``/``os.fsync``/``os.replace``),
                           durable ``flush(sync=True)``, ``time.sleep``, or
                           executor joins (``.result()``/``.shutdown()``) while
                           holding the exclusive side of a lock
==== ====================  ======================================================

**Lock identity.**  A lock attribute assigned in ``__init__`` (any
expression containing a ``Lock``/``RLock``/``Condition``/``Semaphore``
constructor or a ``*Lock`` class, including wrapped forms like
``witness.wrap_lock(threading.RLock(), name)``) becomes a graph node
named ``<DeclaringClass>.<attr>`` — the same names the runtime witness
(:mod:`repro.devtools.witness`) records, so the static order and the
observed order are directly comparable.

**Re-entrancy.**  Acquiring a lock *name* already held is a no-op for
the walk: the repo's locks are re-entrant (``_RWLock`` on both sides,
the hot cache's ``RLock``), and an offline ``reshard()`` writing into a
*second* ``ShardedGraphStore`` under the source's read lock must not
read as a self-deadlock.  The witness applies the matching rule at
object granularity.

The analyzer is deliberately one-sided, like VEND itself: it only
reports an R007 edge it can *prove* via resolved calls, so a clean run
means "no cycle in the provable graph" — the runtime witness covers
the dynamic dispatch the static pass cannot see.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from .linter import (
    CONCURRENCY_RULES,
    Finding,
    _dotted,
    _FileContext,
    _last_name,
)

__all__ = [
    "ConcurrencyAnalyzer",
    "CONCURRENCY_RULES",
    "find_cycle",
    "static_lock_edges",
]

#: Constructor names whose call (possibly nested in a wrapper call)
#: marks an attribute as a lock.
_LOCK_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: ``# guarded-by: self._lock`` on an ``__init__`` assignment line.
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*self\.([A-Za-z_]\w*)")

#: Context-manager/acquire method names recognized on a lock attribute.
_ACQUIRE_METHODS = frozenset({
    "read", "write", "acquire", "acquire_read", "acquire_write",
    "acquire_shared", "acquire_exclusive",
})

#: Container-method calls that mutate the receiver (R008).
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "move_to_end", "sort",
    "reverse",
})

#: Dotted calls that block (R012).
_BLOCKING_DOTTED = frozenset({"os.fsync", "os.replace", "time.sleep"})

#: Attribute calls that join/synchronize (R012).
_BLOCKING_ATTRS = frozenset({"result", "shutdown"})


def _shared(method: str) -> bool:
    return "read" in method or "shared" in method


# --------------------------------------------------------------------- graphs


def find_cycle(edges) -> list[str] | None:
    """First cycle in a directed edge set, as ``[n0, n1, ..., n0]``.

    ``edges`` is any iterable of ``(u, v)`` pairs.  Returns None when
    the graph is acyclic.  Shared by R007, the runtime witness's
    consistency check, and the hypothesis suite.
    """
    graph: dict[str, set[str]] = {}
    for u, v in edges:
        graph.setdefault(u, set()).add(v)
        graph.setdefault(v, set())
    color = dict.fromkeys(graph, 0)  # 0 white / 1 on stack / 2 done
    for start in sorted(graph):
        if color[start]:
            continue
        stack: list[tuple[str, object]] = [(start, iter(sorted(graph[start])))]
        color[start] = 1
        while stack:
            node, children = stack[-1]
            child = next(children, None)
            if child is None:
                color[node] = 2
                stack.pop()
                continue
            if color[child] == 1:
                nodes = [n for n, _ in stack]
                return nodes[nodes.index(child):] + [child]
            if color[child] == 0:
                color[child] = 1
                stack.append((child, iter(sorted(graph[child]))))
    return None


def _shortest_path(graph: dict[str, set[str]], src: str,
                   dst: str) -> list[str] | None:
    """BFS path ``src -> ... -> dst`` through ``graph``, or None."""
    parents: dict[str, str] = {}
    queue = [src]
    seen = {src}
    while queue:
        node = queue.pop(0)
        for child in sorted(graph.get(node, ())):
            if child in seen:
                continue
            parents[child] = node
            if child == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            seen.add(child)
            queue.append(child)
    return None


# ------------------------------------------------------------------ the index


@dataclass
class _CClass:
    """Concurrency-relevant summary of one class definition."""

    name: str
    path: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: Attributes assigned a lock constructor anywhere in the class.
    lock_attrs: set[str] = field(default_factory=set)
    #: attr -> lock attr named by its ``# guarded-by:`` annotation.
    guarded: dict[str, str] = field(default_factory=dict)
    #: attr -> candidate class names of its value.
    attr_types: dict[str, set[str]] = field(default_factory=dict)
    #: attr -> candidate element class names (containers of typed items).
    elem_types: dict[str, set[str]] = field(default_factory=dict)
    #: method -> candidate class names of its return annotation.
    returns: dict[str, set[str]] = field(default_factory=dict)
    #: True when the class chain ships an mmap teardown path (R010).
    releases_mmap: bool = False


@dataclass
class _Merged:
    """Chain-merged view of a concrete class (inheritance flattened)."""

    lock_attrs: set[str]
    guarded: dict[str, str]
    attr_types: dict[str, set[str]]
    elem_types: dict[str, set[str]]


def _is_lock_expr(node: ast.expr) -> bool:
    """True for a lock constructor call, possibly wrapped
    (``witness.wrap_lock(threading.RLock(), name)``)."""
    if not isinstance(node, ast.Call):
        return False
    name = _last_name(node.func)
    if name and (name in _LOCK_CTORS or name.endswith("Lock")):
        return True
    return any(_is_lock_expr(arg) for arg in node.args)


def _ann_names(node: ast.expr | None) -> set[str]:
    """Class names mentioned by an annotation (unions, strings, generics)."""
    if node is None:
        return set()
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _ann_names(node.left) | _ann_names(node.right)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _ann_names(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return set()
    if isinstance(node, ast.Subscript):
        elts = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                else [node.slice])
        out: set[str] = set()
        for elt in elts:
            out |= _ann_names(elt)
        return out
    return set()


def _self_attr(node: ast.expr) -> str | None:
    """``X`` for a plain ``self.X`` expression, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _ordered_stmts(body):
    """Every statement under ``body`` in source order (bodies flattened)."""
    for stmt in body:
        yield stmt
        for fieldname in ("body", "orelse", "finalbody"):
            yield from _ordered_stmts(getattr(stmt, fieldname, None) or [])
        for handler in getattr(stmt, "handlers", []):
            yield from _ordered_stmts(handler.body)


def _stmt_lists(root: ast.AST):
    """Every list-of-statements under ``root`` (function/class bodies,
    with-blocks, loop bodies, handlers, ...)."""
    for node in ast.walk(root):
        for _, value in ast.iter_fields(node):
            if isinstance(value, list) and value \
                    and isinstance(value[0], ast.stmt):
                yield value


class ConcurrencyAnalyzer:
    """Cross-file analyzer for the R007–R012 concurrency contracts.

    Pass 1 indexes every class: lock attributes, ``guarded-by``
    declarations, attribute/element types (from constructor calls,
    conditional branches, and annotated returns like
    ``_build_segment() -> GraphStore | ReplicatedShard``).  Pass 2
    walks every method from every concrete class (late binding: an
    inherited method is analyzed against each subclass so overrides
    resolve correctly), building the lock-order graph and running the
    local rules.
    """

    def __init__(self, contexts: list[_FileContext],
                 rules: set[str] | None = None):
        self.contexts = contexts
        self.rules = (set(rules) if rules is not None
                      else set(CONCURRENCY_RULES))
        self._classes: dict[str, _CClass] = {}
        self._by_ctx: dict[str, list[_CClass]] = {}
        self._merged_cache: dict[str, _Merged] = {}
        #: (held, acquired) -> (path, line, col) of the first witness.
        self.lock_edges: dict[tuple[str, str], tuple[str, int, int]] = {}

    # ------------------------------------------------------------ entry point

    def run(self) -> list[Finding]:
        self._build_index()
        walker = _LockWalker(self)
        walker.walk_all()
        self.lock_edges = walker.edges
        findings: list[Finding] = []
        if "R007" in self.rules:
            findings.extend(self._rule_lock_order())
        for ctx in self.contexts:
            if self.rules & {"R008", "R012"}:
                for cls in self._by_ctx.get(ctx.path, []):
                    findings.extend(_LexicalChecker(self, ctx, cls).run())
            if "R009" in self.rules:
                findings.extend(self._rule_raw_acquire(ctx))
            if "R010" in self.rules:
                findings.extend(self._rule_mmap_lifetime(ctx))
            if "R011" in self.rules:
                findings.extend(self._rule_identity_token(ctx))
        return findings

    # ----------------------------------------------------------------- pass 1

    def _build_index(self) -> None:
        self._classes = {}
        self._by_ctx = {}
        self._merged_cache = {}
        for ctx in self.contexts:
            entries: list[_CClass] = []
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    entries.append(self._index_class(ctx, node))
            self._by_ctx[ctx.path] = entries
            for cls in entries:
                # Last definition wins, matching the classic linter.
                self._classes[cls.name] = cls
        for cls in self._classes.values():
            cls.releases_mmap = any(
                m in entry.methods
                for entry in self._chain(cls.name)
                for m in ("_drop_mmap", "close")
            )

    def _index_class(self, ctx: _FileContext, node: ast.ClassDef) -> _CClass:
        bases = tuple(n for n in (_last_name(b) for b in node.bases) if n)
        cls = _CClass(node.name, ctx.path, node, bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = stmt
                cls.returns[stmt.name] = _ann_names(stmt.returns)
        for func in cls.methods.values():
            for stmt in _ordered_stmts(func.body):
                self._index_assignment(ctx, cls, stmt)
        return cls

    def _index_assignment(self, ctx: _FileContext, cls: _CClass,
                          stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value, ann = stmt.targets[0], stmt.value, None
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value, ann = stmt.target, stmt.value, stmt.annotation
        elif isinstance(stmt, ast.AnnAssign):
            target, value, ann = stmt.target, None, stmt.annotation
        else:
            return
        attr = _self_attr(target)
        if attr is None:
            # ``self.X[k] = <typed>`` contributes an element type.
            if (isinstance(target, ast.Subscript)
                    and (sub := _self_attr(target.value)) is not None
                    and value is not None):
                types = self._value_types(cls, value)
                if types:
                    cls.elem_types.setdefault(sub, set()).update(types)
            return
        if value is not None and _is_lock_expr(value):
            cls.lock_attrs.add(attr)
        line = ctx.lines[stmt.lineno - 1] if stmt.lineno <= len(ctx.lines) \
            else ""
        match = _GUARDED_BY.search(line)
        if match:
            cls.guarded[attr] = match.group(1)
        types = set(self._value_types(cls, value)) if value is not None \
            else set()
        types |= _ann_names(ann)
        types.discard("None")
        if types:
            cls.attr_types.setdefault(attr, set()).update(types)
        if value is not None:
            elems = self._elem_value_types(cls, value)
            if elems:
                cls.elem_types.setdefault(attr, set()).update(elems)

    def _value_types(self, cls: _CClass, value: ast.expr | None) -> set[str]:
        """Candidate class names of an assigned expression (own-class
        method returns resolve through their annotations)."""
        if value is None:
            return set()
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                return {func.id}
            attr = _self_attr(func)
            if attr is not None:
                return set(cls.returns.get(attr, ()))
            return set()
        if isinstance(value, ast.IfExp):
            return (self._value_types(cls, value.body)
                    | self._value_types(cls, value.orelse))
        if isinstance(value, ast.BoolOp):
            out: set[str] = set()
            for operand in value.values:
                out |= self._value_types(cls, operand)
            return out
        return set()

    def _elem_value_types(self, cls: _CClass, value: ast.expr) -> set[str]:
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._value_types(cls, value.elt)
        if isinstance(value, ast.DictComp):
            return self._value_types(cls, value.value)
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            out: set[str] = set()
            for elt in value.elts:
                out |= self._value_types(cls, elt)
            return out
        if isinstance(value, ast.Dict):
            out = set()
            for elt in value.values:
                out |= self._value_types(cls, elt)
            return out
        return set()

    # ----------------------------------------------------- chain / resolution

    def _chain(self, name: str) -> list[_CClass]:
        chain: list[_CClass] = []
        queue = [name]
        seen: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self._classes.get(current)
            if info is None:
                continue
            chain.append(info)
            queue.extend(info.bases)
        return chain

    def merged(self, name: str) -> _Merged:
        cached = self._merged_cache.get(name)
        if cached is not None:
            return cached
        merged = _Merged(set(), {}, {}, {})
        for info in self._chain(name):
            merged.lock_attrs |= info.lock_attrs
            for attr, lock in info.guarded.items():
                merged.guarded.setdefault(attr, lock)
            for attr, types in info.attr_types.items():
                merged.attr_types.setdefault(attr, set()).update(types)
            for attr, types in info.elem_types.items():
                merged.elem_types.setdefault(attr, set()).update(types)
        self._merged_cache[name] = merged
        return merged

    def lock_node(self, cls_name: str, attr: str) -> str:
        """Graph node for ``self.<attr>``: named for the declaring class,
        so a subclass acquiring an inherited lock shares its node."""
        for info in self._chain(cls_name):
            if attr in info.lock_attrs:
                return f"{info.name}.{attr}"
        return f"{cls_name}.{attr}"

    def resolve_method(self, cls_name: str, method: str,
                       after: str | None = None,
                       ) -> tuple[_CClass, ast.FunctionDef] | None:
        """(defining class, node) for ``method`` on ``cls_name``.

        ``after`` skips chain entries up to and including that class —
        the ``super().m()`` resolution path.
        """
        chain = self._chain(cls_name)
        if after is not None:
            for i, info in enumerate(chain):
                if info.name == after:
                    chain = chain[i + 1:]
                    break
        for info in chain:
            if method in info.methods:
                return info, info.methods[method]
        return None

    # ------------------------------------------------------------------- R007

    def _rule_lock_order(self) -> list[Finding]:
        graph: dict[str, set[str]] = {}
        for (u, v) in self.lock_edges:
            graph.setdefault(u, set()).add(v)
        findings: list[Finding] = []
        for (u, v), (path, line, col) in sorted(self.lock_edges.items()):
            back = _shortest_path(graph, v, u)
            if back is None:
                continue
            cycle = " -> ".join([u, *back])
            findings.append(Finding(
                path, line, col, "R007",
                f"lock-order cycle: acquiring {v} while holding {u} closes "
                f"the cycle {cycle}; threads taking these locks in opposite "
                "orders can deadlock",
            ))
        return findings

    # ------------------------------------------------------------------- R009

    def _rule_raw_acquire(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for stmts in _stmt_lists(ctx.tree):
            for i, stmt in enumerate(stmts):
                call = self._acquire_stmt(stmt)
                if call is None:
                    continue
                receiver = _dotted(call.func.value)
                if self._released_in_next(stmts, i, receiver):
                    continue
                findings.append(Finding(
                    ctx.path, stmt.lineno, stmt.col_offset, "R009",
                    f"raw {call.func.attr}() with no try/finally release; "
                    "an exception here leaks the lock — use the context "
                    "manager or release in a finally block",
                ))
        return findings

    @staticmethod
    def _acquire_stmt(stmt: ast.stmt) -> ast.Call | None:
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr.startswith("acquire")):
            return stmt.value
        return None

    @staticmethod
    def _released_in_next(stmts, i: int, receiver: str | None) -> bool:
        if i + 1 >= len(stmts) or not isinstance(stmts[i + 1], ast.Try):
            return False
        for node in ast.walk(ast.Module(body=stmts[i + 1].finalbody,
                                        type_ignores=[])):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr.startswith("release")
                    and _dotted(node.func.value) == receiver):
                return True
        return False

    # ------------------------------------------------------------------- R010

    def _rule_mmap_lifetime(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in self._by_ctx.get(ctx.path, []):
            if self._classes.get(cls.name, cls).releases_mmap:
                continue
            for func in cls.methods.values():
                findings.extend(self._check_mmap_escape(ctx, func))
        in_class = {id(f) for cls in self._by_ctx.get(ctx.path, [])  # lint: disable=R011 (AST nodes stay strongly referenced by the contexts for the analyzer's lifetime)
                    for f in cls.methods.values()}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and id(node) not in in_class:  # lint: disable=R011 (AST nodes stay strongly referenced by the contexts for the analyzer's lifetime)
                findings.extend(self._check_mmap_escape(ctx, node))
        return findings

    def _check_mmap_escape(self, ctx: _FileContext, func) -> list[Finding]:
        tainted: set[str] = set()

        def is_tainted(expr: ast.expr | None) -> bool:
            if expr is None:
                return False
            if isinstance(expr, ast.Name):
                return expr.id in tainted
            if isinstance(expr, ast.Attribute):
                return "mmap" in expr.attr
            if isinstance(expr, ast.Subscript):
                return is_tainted(expr.value)
            if isinstance(expr, ast.Call):
                if _dotted(expr.func) == "mmap.mmap":
                    return True
                if isinstance(expr.func, ast.Attribute):
                    if expr.func.attr == "_mmap_view":
                        return True
                    if expr.func.attr == "frombuffer" and expr.args:
                        return is_tainted(expr.args[0])
                    # .copy()/.tobytes()/np.array(...) launder the view.
                return False
            return False

        findings: list[Finding] = []
        for stmt in _ordered_stmts(func.body):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if is_tainted(stmt.value):
                        tainted.add(target.id)
                    else:
                        tainted.discard(target.id)
                    continue
                if _self_attr(target) is not None and is_tainted(stmt.value):
                    findings.append(Finding(
                        ctx.path, stmt.lineno, stmt.col_offset, "R010",
                        "mmap-backed view stored on self by a class with no "
                        "_drop_mmap()/close() teardown path; the view "
                        "outlives any control of the underlying map "
                        "(copy it, or add the sanctioned release path)",
                    ))
            elif isinstance(stmt, (ast.Return, ast.Expr)):
                value = stmt.value
                if isinstance(value, (ast.Yield, ast.YieldFrom)):
                    value = value.value
                elif isinstance(stmt, ast.Expr):
                    continue
                if is_tainted(value):
                    findings.append(Finding(
                        ctx.path, stmt.lineno, stmt.col_offset, "R010",
                        "mmap-backed view escapes the function that mapped "
                        "it; the caller holds a pointer into a buffer it "
                        "cannot unmap safely (return a .copy() instead)",
                    ))
        return findings

    # ------------------------------------------------------------------- R011

    def _rule_identity_token(self, ctx: _FileContext) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[int] = set()

        def id_calls(expr: ast.expr):
            for sub in ast.walk(expr):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "id"):
                    yield sub

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare):
                exprs = [node.left, *node.comparators]
            elif isinstance(node, ast.Assign):
                exprs = [node.value]
            else:
                continue
            for expr in exprs:
                for call in id_calls(expr):
                    if call.lineno in seen:
                        continue
                    seen.add(call.lineno)
                    findings.append(Finding(
                        ctx.path, call.lineno, call.col_offset, "R011",
                        "id() used as an identity token without a strong "
                        "reference; CPython reuses the id of a freed object "
                        "for its replacement — hold the object and compare "
                        "with `is`",
                    ))
        return findings


# ------------------------------------------------------- R007 lock-order walk


@dataclass
class _WalkEnv:
    """One method being walked from one concrete class."""

    cls: _CClass     # concrete class (late-binding root)
    owner: _CClass   # class whose body defines the function
    locals: dict[str, set[str]]


class _LockWalker:
    """Builds the lock-acquisition graph by abstract execution.

    Every method of every class is walked from every concrete subclass
    with the set of held lock *names*; acquiring a new name records an
    edge from each held name.  Held names re-acquired are skipped
    (re-entrancy; also what keeps same-class cross-instance nesting,
    like offline reshard, from reading as a self-cycle — mirroring the
    witness's object-identity rule).
    """

    _MAX_DEPTH = 24

    def __init__(self, analyzer: ConcurrencyAnalyzer):
        self.analyzer = analyzer
        self.edges: dict[tuple[str, str], tuple[str, int, int]] = {}
        self._done: set[tuple] = set()
        self._locals_cache: dict[tuple[str, int], dict[str, set[str]]] = {}

    def walk_all(self) -> None:
        for entries in self.analyzer._by_ctx.values():
            for cls in entries:
                for info in self.analyzer._chain(cls.name):
                    for func in info.methods.values():
                        self._walk(cls, info, func, {})

    def _walk(self, cls: _CClass, owner: _CClass, func: ast.FunctionDef,
              held: dict[str, str], depth: int = 0) -> None:
        key = (cls.name, id(func), tuple(sorted(held)))  # lint: disable=R011 (AST nodes stay strongly referenced by the contexts for the analyzer's lifetime)
        if key in self._done or depth > self._MAX_DEPTH:
            return
        self._done.add(key)
        env = _WalkEnv(cls, owner, self._local_types(cls, func))
        for stmt in func.body:
            self._exec(env, stmt, held, depth)

    # ------------------------------------------------------- local type infer

    def _local_types(self, cls: _CClass,
                     func: ast.FunctionDef) -> dict[str, set[str]]:
        cache_key = (cls.name, id(func))  # lint: disable=R011 (AST nodes stay strongly referenced by the contexts for the analyzer's lifetime)
        cached = self._locals_cache.get(cache_key)
        if cached is not None:
            return cached
        merged = self.analyzer.merged(cls.name)
        types: dict[str, set[str]] = {}
        args = list(func.args.args) + list(func.args.kwonlyargs)
        if func.args.vararg:
            args.append(func.args.vararg)
        for arg in args:
            names = _ann_names(arg.annotation)
            names.discard("None")
            if names:
                types[arg.arg] = names
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                inferred = self._expr_types(cls, merged, types, node.value)
                if inferred:
                    types.setdefault(node.targets[0].id, set()).update(inferred)
            elif isinstance(node, (ast.For, ast.AsyncFor)) \
                    and isinstance(node.target, ast.Name):
                inferred = self._iter_types(cls, merged, types, node.iter)
                if inferred:
                    types.setdefault(node.target.id, set()).update(inferred)
        self._locals_cache[cache_key] = types
        return types

    def _expr_types(self, cls: _CClass, merged: _Merged,
                    local: dict[str, set[str]],
                    expr: ast.expr) -> set[str]:
        if isinstance(expr, ast.Name):
            return set(local.get(expr.id, ()))
        attr = _self_attr(expr)
        if attr is not None:
            return set(merged.attr_types.get(attr, ()))
        if isinstance(expr, ast.Subscript):
            sub = _self_attr(expr.value)
            if sub is not None:
                return set(merged.elem_types.get(sub, ()))
            return set()
        if isinstance(expr, ast.IfExp):
            return (self._expr_types(cls, merged, local, expr.body)
                    | self._expr_types(cls, merged, local, expr.orelse))
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in self.analyzer._classes:
                    return {func.id}
                return set()
            if isinstance(func, ast.Attribute):
                receivers = self._expr_types(cls, merged, local, func.value)
                out: set[str] = set()
                for recv in receivers:
                    for info in self.analyzer._chain(recv):
                        if func.attr in info.returns:
                            out |= info.returns[func.attr]
                            break
                out.discard("None")
                return out
        return set()

    def _iter_types(self, cls: _CClass, merged: _Merged,
                    local: dict[str, set[str]],
                    expr: ast.expr) -> set[str]:
        """Element types of a ``for`` iterable."""
        attr = _self_attr(expr)
        if attr is not None:
            return set(merged.elem_types.get(attr, ()))
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "values"):
            sub = _self_attr(expr.func.value)
            if sub is not None:
                return set(merged.elem_types.get(sub, ()))
        return set()

    # ------------------------------------------------------ abstract executor

    def _exec(self, env: _WalkEnv, node: ast.AST,
              held: dict[str, str], depth: int) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = dict(held)
            for item in node.items:
                acq = self._acquisition(env, item.context_expr)
                if acq is not None:
                    name, mode, loc = acq
                    if name not in new_held:
                        for holder in new_held:
                            self._edge(holder, name, env, loc)
                        new_held[name] = mode
                else:
                    self._scan_calls(env, item.context_expr, new_held, depth)
            for stmt in node.body:
                self._exec(env, stmt, new_held, depth)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, ast.expr):
            self._scan_calls(env, node, held, depth)
            return
        for child in ast.iter_child_nodes(node):
            self._exec(env, child, held, depth)

    def _acquisition(self, env: _WalkEnv,
                     expr: ast.expr) -> tuple[str, str, ast.expr] | None:
        base = expr
        mode = "exclusive"
        if isinstance(expr, ast.Call):
            func = expr.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _ACQUIRE_METHODS):
                mode = "shared" if _shared(func.attr) else "exclusive"
                base = func.value
            else:
                return None
        attr = _self_attr(base)
        if attr is None:
            return None
        if attr not in self.analyzer.merged(env.cls.name).lock_attrs:
            return None
        return self.analyzer.lock_node(env.cls.name, attr), mode, base

    def _edge(self, holder: str, acquired: str, env: _WalkEnv,
              loc: ast.expr) -> None:
        key = (holder, acquired)
        if key not in self.edges:
            self.edges[key] = (env.owner.path, loc.lineno, loc.col_offset)

    def _scan_calls(self, env: _WalkEnv, expr: ast.expr,
                    held: dict[str, str], depth: int) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                self._handle_call(env, sub, held, depth)

    def _handle_call(self, env: _WalkEnv, call: ast.Call,
                     held: dict[str, str], depth: int) -> None:
        analyzer = self.analyzer
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in analyzer._classes:
                resolved = analyzer.resolve_method(func.id, "__init__")
                if resolved is not None:
                    owner, node = resolved
                    self._walk(analyzer._classes[func.id], owner, node,
                               held, depth + 1)
            return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            resolved = analyzer.resolve_method(env.cls.name, method)
            if resolved is not None:
                owner, node = resolved
                self._walk(env.cls, owner, node, held, depth + 1)
            return
        if (isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"):
            resolved = analyzer.resolve_method(env.cls.name, method,
                                               after=env.owner.name)
            if resolved is not None:
                owner, node = resolved
                self._walk(env.cls, owner, node, held, depth + 1)
            return
        merged = analyzer.merged(env.cls.name)
        for type_name in self._expr_types(env.cls, merged,
                                          env.locals, receiver):
            resolved = analyzer.resolve_method(type_name, method)
            if resolved is not None:
                owner, node = resolved
                concrete = analyzer._classes.get(type_name)
                if concrete is not None:
                    self._walk(concrete, owner, node, held, depth + 1)


# ------------------------------------------------ R008/R012 lexical discipline


class _LexicalChecker:
    """Per-class lexical pass: guarded-state (R008) and
    blocking-under-lock (R012).

    Tracks the *exclusively held* lock attributes through ``with``
    spans (``with self._lock:`` / ``.write()`` / ``.acquire_write()``)
    and acquire/try/finally spans.  The shared side never counts:
    holding ``read()`` neither licenses a guarded mutation nor blocks
    writers long enough to matter for R012's contract.
    """

    def __init__(self, analyzer: ConcurrencyAnalyzer, ctx: _FileContext,
                 cls: _CClass):
        self.analyzer = analyzer
        self.ctx = ctx
        self.cls = cls
        self.merged = analyzer.merged(cls.name)
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        for name, func in self.cls.methods.items():
            self._in_init = name == "__init__"
            self._stmts(func.body, frozenset())
        rules = self.analyzer.rules
        return [f for f in self.findings if f.rule in rules]

    # -------------------------------------------------------------- traversal

    def _stmts(self, stmts, held: frozenset[str]) -> None:
        i = 0
        while i < len(stmts):
            stmt = stmts[i]
            acquired = self._acquire_expr_stmt(stmt)
            if acquired is not None and i + 1 < len(stmts) \
                    and isinstance(stmts[i + 1], ast.Try):
                attr, exclusive = acquired
                try_stmt = stmts[i + 1]
                inner = held | {attr} if exclusive else held
                self._stmts(try_stmt.body, inner)
                self._stmts(try_stmt.orelse, inner)
                for handler in try_stmt.handlers:
                    self._stmts(handler.body, inner)
                self._stmts(try_stmt.finalbody, held)
                i += 2
                continue
            self._stmt(stmt, held)
            i += 1

    def _stmt(self, stmt: ast.stmt, held: frozenset[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new_held = set(held)
            for item in stmt.items:
                attr = self._with_acquisition(item.context_expr)
                if attr is not None:
                    new_held.add(attr)
                else:
                    self._check_expr(item.context_expr, held)
            self._stmts(stmt.body, frozenset(new_held))
            return
        self._check_mutation_targets(stmt, held)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._check_expr(child, held)
        for fieldname in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, fieldname, None)
            if sub:
                self._stmts(sub, held)
        for handler in getattr(stmt, "handlers", []):
            self._stmts(handler.body, held)

    def _with_acquisition(self, expr: ast.expr) -> str | None:
        """Lock attr exclusively acquired by a with-item, else None."""
        base = expr
        if isinstance(expr, ast.Call):
            func = expr.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _ACQUIRE_METHODS):
                return None
            if _shared(func.attr):
                # Shared hold: neither licenses a guarded mutation nor
                # counts for R012 (readers don't serialize the world).
                return None
            base = func.value
        attr = _self_attr(base)
        if attr is not None and attr in self.merged.lock_attrs:
            return attr
        return None

    def _acquire_expr_stmt(self, stmt: ast.stmt
                           ) -> tuple[str, bool] | None:
        """(lock attr, exclusive?) for ``self.X.acquire*()`` statements."""
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr.startswith("acquire")):
            return None
        attr = _self_attr(stmt.value.func.value)
        if attr is None or attr not in self.merged.lock_attrs:
            return None
        return attr, not _shared(stmt.value.func.attr)

    # ----------------------------------------------------------------- checks

    def _check_mutation_targets(self, stmt: ast.stmt,
                                held: frozenset[str]) -> None:
        if self._in_init:
            return
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        else:
            return
        for target in targets:
            for attr in self._mutated_attrs(target):
                self._flag_unguarded(attr, stmt, held)

    def _mutated_attrs(self, target: ast.expr):
        attr = _self_attr(target)
        if attr is not None:
            yield attr
            return
        if isinstance(target, ast.Subscript):
            sub = _self_attr(target.value)
            if sub is not None:
                yield sub
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._mutated_attrs(elt)

    def _flag_unguarded(self, attr: str, node: ast.AST,
                        held: frozenset[str]) -> None:
        lock = self.merged.guarded.get(attr)
        if lock is None or lock in held or "R008" not in self.analyzer.rules:
            return
        self.findings.append(Finding(
            self.ctx.path, node.lineno, node.col_offset, "R008",
            f"self.{attr} is declared guarded-by self.{lock} but is mutated "
            "here without holding its exclusive side",
        ))

    def _check_expr(self, expr: ast.expr, held: frozenset[str]) -> None:
        for call in ast.walk(expr):
            if not isinstance(call, ast.Call):
                continue
            # R008: mutating container methods on a guarded attribute.
            if not self._in_init and isinstance(call.func, ast.Attribute) \
                    and call.func.attr in _MUTATORS:
                recv = call.func.value
                attr = _self_attr(recv)
                if attr is None and isinstance(recv, ast.Subscript):
                    attr = _self_attr(recv.value)
                if attr is not None:
                    self._flag_unguarded(attr, call, held)
            if held:
                self._check_blocking(call, held)

    def _check_blocking(self, call: ast.Call,
                        held: frozenset[str]) -> None:
        if "R012" not in self.analyzer.rules:
            return
        reason = None
        dotted = _dotted(call.func)
        if dotted in _BLOCKING_DOTTED:
            reason = f"{dotted}() blocks on the OS"
        elif isinstance(call.func, ast.Name) and call.func.id == "open":
            reason = "open() performs file I/O"
        elif isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in _BLOCKING_ATTRS:
                reason = f".{attr}() joins asynchronous work"
            elif attr == "flush" and self._sync_true(call):
                reason = ".flush(sync=True) waits on fsync"
        if reason is None:
            return
        locks = ", ".join(f"self.{name}" for name in sorted(held))
        self.findings.append(Finding(
            self.ctx.path, call.lineno, call.col_offset, "R012",
            f"{reason} while the exclusive side of {locks} is held; every "
            "reader and writer stalls behind this call — move it outside "
            "the critical section",
        ))

    @staticmethod
    def _sync_true(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "sync" and isinstance(kw.value, ast.Constant):
                return kw.value.value is True
        if call.args and isinstance(call.args[0], ast.Constant):
            return call.args[0].value is True
        return False


# ---------------------------------------------------------------- public API


def _load_contexts(paths) -> list[_FileContext]:
    from pathlib import Path

    from .linter import Linter, _parse_pragmas

    contexts: list[_FileContext] = []
    for raw in sorted(Linter._collect(paths)):
        source = Path(raw).read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(raw))
        except SyntaxError:
            continue
        pragmas, bare = _parse_pragmas(source)
        contexts.append(_FileContext(str(raw), tree, pragmas, bare,
                                     source.splitlines()))
    return contexts


def static_lock_edges(paths) -> set[tuple[str, str]]:
    """The statically provable lock-order edges under ``paths``.

    The runtime witness asserts that the union of these edges with the
    orders it observed stays acyclic — static analysis proposes, the
    test suite disposes.
    """
    analyzer = ConcurrencyAnalyzer(_load_contexts(paths))
    analyzer.run()
    return set(analyzer.lock_edges)
