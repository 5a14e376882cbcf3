"""The AST walk that finds determinism hazards in one module.

:func:`audit_module` parses nothing itself — the engine hands it a
parsed tree — and returns raw :class:`~repro.lint.rules.Violation`
records; the ``--select`` filter and the baseline are applied later by
the engine, so this module stays a pure function of (tree, policy).

Detection is deliberately *syntactic*. A type checker would know more,
but the hazards this linter exists for are exactly the ones simple
syntax betrays: a call spelled ``random.random()``, an iteration spelled
``for x in some_set``, an import spelled ``from time import time``. Two
pieces of shallow inference sharpen the D3xx rules without a type
system: per-scope tracking of names assigned from set-valued
expressions, and a built-in list of set-returning helper names
(``digest``) the visitor trusts.

Order-neutral consumption is recognised and exempted: a set iterated
inside ``sorted()``, fed into another ``set()``/``frozenset()``, or
reduced by ``len``/``min``/``max``/``sum``/``any``/``all`` cannot leak
hash order into the trajectory, so ``sorted(self.store.digest())``
lints clean while ``list(self.store.digest())`` does not.

The I-families use the same shallow machinery for the *isolation*
contract. Two extra judgements back them: per-scope tracking of
node-valued names (anything pulled out of a known node collection
like ``self.servers`` or returned by a ``node_returning`` helper) for
the I1xx reach-through rules, and a second, per-function pass that
reconciles ``send(...)`` / ``multicast(...)`` call sites against later
mutations of the same local (I2xx/I3xx) and scheduler-callback lambdas
against the names they capture (I4xx). Copy wrappers (``tuple(batch)``,
``sorted(...)``, ``frozenset(...)`` …) snapshot their argument at send
time, so payloads routed through one are exempt by construction.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.config import (
    NODE_COLLECTIONS,
    NODE_RETURNING,
    NODE_STATE,
    PAYLOAD_ATTRS,
    SET_RETURNING,
    is_simpath,
)
from repro.lint.rules import Violation

__all__ = ["audit_module"]

# D101: the ambient random-module API (module-level functions backed by
# one hidden shared Random instance). random.Random/SystemRandom are
# handled separately (D102/D103).
_AMBIENT_RANDOM = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

# D201 / D202: wall-clock reads from the time module.
_WALL_CLOCK = frozenset({"time", "time_ns"})
_WALL_TIMER = frozenset(
    {
        "clock_gettime", "clock_gettime_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
        "sleep", "thread_time", "thread_time_ns",
    }
)

# D203: wall-clock classmethods on datetime/date.
_DATETIME_READS = frozenset({"now", "utcnow", "today"})

# D103: OS-entropy draws.
_UUID_ENTROPY = frozenset({"uuid1", "uuid4"})

# D302: filesystem-order producers.
_FS_LISTING = frozenset({"listdir", "scandir", "iterdir", "glob", "iglob", "rglob"})

# Consumers that erase iteration order: anything inside their argument
# list may iterate sets freely.
_ORDER_NEUTRAL_CALLS = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum"}
)

# Consumers that *preserve* iteration order — a set flowing into one of
# these leaks hash order into sim state.
_ORDER_SENSITIVE_CALLS = frozenset({"enumerate", "iter", "list", "reversed", "tuple"})

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = frozenset(
    {"difference", "intersection", "symmetric_difference", "union"}
)

# I2xx/I3xx: methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "update",
    }
)

# Calls that snapshot their argument — a payload routed through one of
# these is decoupled from the local at send time.
_COPY_CALLS = frozenset(
    {"bytes", "dict", "frozenset", "list", "set", "sorted", "str", "tuple"}
)

# Methods that hand a payload to the network; a multicast's last argument
# is its payload, the destination collection before it stays behind.
_SEND_CALLS = frozenset({"send", "multicast"})

# I4xx: methods that defer a callback to a later simulated time.
_SCHEDULING_CALLS = frozenset({"after", "every", "schedule"})

# Literal displays/comprehensions that allocate a mutable container.
_MUTABLE_DISPLAYS = (
    ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp,
)


def audit_module(tree: ast.Module, path: str) -> List[Violation]:
    """All raw violations in one parsed module, unsorted."""
    auditor = _Auditor(path)
    auditor.scan(tree)
    return auditor.violations


class _Auditor:
    def __init__(self, path: str) -> None:
        self.path = path
        self.simpath = is_simpath(path)
        self.violations: List[Violation] = []
        # import-alias tables: local name -> canonical module name
        self.module_aliases: Dict[str, str] = {}
        # from-imported names: local name -> (module, original name)
        self.from_imports: Dict[str, tuple] = {}
        # stack of per-scope {name: is_set_valued}
        self.scopes: List[Dict[str, bool]] = [{}]
        # stack of per-scope {name: "node" | "collection"} for I1xx
        self.iso_scopes: List[Dict[str, str]] = [{}]
        # >0 while inside an order-neutral consumer's arguments
        self.neutral = 0

    # ------------------------------------------------------------- helpers

    def flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _module_of(self, node: ast.expr) -> Optional[str]:
        """Canonical module name a Name node refers to, if imported."""
        if isinstance(node, ast.Name):
            return self.module_aliases.get(node.id)
        return None

    def _set_valued(self, node: ast.expr) -> bool:
        """Syntactic judgement: does ``node`` evaluate to a set?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            origin = self.from_imports.get(node.id)
            if origin is not None:
                return False
            for scope in reversed(self.scopes):
                if node.id in scope:
                    return scope[node.id]
            return False
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in {"set", "frozenset"}:
                    return True
                if func.id in SET_RETURNING:
                    return True
                origin = self.from_imports.get(func.id)
                if origin is not None and origin[1] in SET_RETURNING:
                    return True
            if isinstance(func, ast.Attribute):
                if func.attr in {"union", "intersection", "difference",
                                 "symmetric_difference"} and self._set_valued(func.value):
                    return True
                if func.attr in SET_RETURNING:
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._set_valued(node.left) or self._set_valued(node.right)
        if isinstance(node, ast.IfExp):
            return self._set_valued(node.body) or self._set_valued(node.orelse)
        return False

    def _is_set_annotation(self, annotation: Optional[ast.expr]) -> bool:
        if annotation is None:
            return False
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            return target.attr in {"Set", "FrozenSet", "AbstractSet", "MutableSet"}
        if isinstance(target, ast.Name):
            return target.id in {
                "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
            }
        return False

    def _describe(self, node: ast.expr) -> str:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.11
            return "expression"
        return text if len(text) <= 40 else text[:37] + "..."

    # ------------------------------------------------------------ walking

    def scan(self, tree: ast.Module) -> None:
        for node in tree.body:
            self._walk(node)

    def _walk(self, node: ast.AST) -> None:
        handler = getattr(self, f"_on_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
        else:
            self._generic(node)

    def _generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    # imports ----------------------------------------------------------

    def _on_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self.module_aliases[alias.asname or root] = alias.name

    def _on_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.from_imports[local] = (module, alias.name)
            if module == "random" and alias.name in _AMBIENT_RANDOM:
                self.flag(
                    "D104",
                    node,
                    f"from random import {alias.name} pulls the shared ambient "
                    "generator into the namespace",
                )
            elif module == "time" and alias.name in (_WALL_CLOCK | _WALL_TIMER):
                self.flag(
                    "D204",
                    node,
                    f"from time import {alias.name} imports a wall-clock read",
                )
            elif module == "secrets" or (module == "os" and alias.name == "urandom"):
                self.flag(
                    "D103",
                    node,
                    f"from {module} import {alias.name} imports an OS entropy source",
                )
            elif module == "uuid" and alias.name in _UUID_ENTROPY:
                self.flag(
                    "D103",
                    node,
                    f"from uuid import {alias.name} imports an OS entropy source",
                )

    # scopes -----------------------------------------------------------

    def _on_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def _on_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node) -> None:
        scope: Dict[str, bool] = {}
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if self._is_set_annotation(arg.annotation):
                scope[arg.arg] = True
        self.scopes.append(scope)
        self.iso_scopes.append({})
        self._audit_isolation_function(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)
        self.scopes.pop()
        self.iso_scopes.pop()

    def _on_Assign(self, node: ast.Assign) -> None:
        self._walk(node.value)
        is_set = self._set_valued(node.value)
        kind = self._node_kind(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.scopes[-1][target.id] = is_set
                if kind is not None:
                    self.iso_scopes[-1][target.id] = kind
                else:
                    self.iso_scopes[-1].pop(target.id, None)
            else:
                self._walk(target)

    def _on_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._walk(node.value)
        if isinstance(node.target, ast.Name):
            self.scopes[-1][node.target.id] = self._is_set_annotation(
                node.annotation
            ) or (node.value is not None and self._set_valued(node.value))

    # expressions ------------------------------------------------------

    def _on_Attribute(self, node: ast.Attribute) -> None:
        # I1xx: node-private state read on a node that came out of a
        # directory/collection — another process, in sim terms.
        if self.simpath and node.attr in NODE_STATE:
            base = node.value
            if isinstance(base, ast.Subscript) and self._node_kind(base) == "node":
                self.flag(
                    "I102",
                    node,
                    f"{self._describe(node)} indexes into another node's "
                    f"{node.attr!r}; add a facade method on the node",
                )
            elif isinstance(base, ast.Name) and self._node_kind(base) == "node":
                self.flag(
                    "I101",
                    node,
                    f"{self._describe(node)} reaches across the node boundary "
                    f"into {node.attr!r}; state may only cross in a message",
                )
        module = self._module_of(node.value)
        if module == "random":
            if node.attr in _AMBIENT_RANDOM:
                self.flag(
                    "D101",
                    node,
                    f"random.{node.attr} uses the shared ambient generator",
                )
        elif module == "time":
            if node.attr in _WALL_CLOCK:
                self.flag("D201", node, f"time.{node.attr} reads the wall clock")
            elif node.attr in _WALL_TIMER:
                self.flag("D202", node, f"time.{node.attr} reads a wall-clock timer")
        elif module == "os" and node.attr == "urandom":
            self.flag("D103", node, "os.urandom reads OS entropy")
        elif module == "secrets":
            self.flag("D103", node, f"secrets.{node.attr} reads OS entropy")
        elif module == "uuid" and node.attr in _UUID_ENTROPY:
            self.flag("D103", node, f"uuid.{node.attr} draws OS entropy")
        self._generic(node)

    def _on_Call(self, node: ast.Call) -> None:
        func = node.func
        self._check_call_target(node, func)
        neutral_call = (
            isinstance(func, ast.Name)
            and func.id in _ORDER_NEUTRAL_CALLS
            and func.id not in self.from_imports
        )
        # Iteration-order sensitive consumers taking a set argument.
        if not neutral_call and self.neutral == 0 and self.simpath:
            sensitive = (
                isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS
            ) or (isinstance(func, ast.Attribute) and func.attr == "join")
            if sensitive:
                for arg in node.args:
                    if self._set_valued(arg):
                        self.flag(
                            "D301",
                            arg,
                            f"{self._describe(node)} materialises a set in "
                            "hash order",
                        )
        self._walk(func)
        if neutral_call:
            self.neutral += 1
        for arg in node.args:
            self._walk(arg)
        for keyword in node.keywords:
            self._walk(keyword.value)
        if neutral_call:
            self.neutral -= 1

    def _check_call_target(self, node: ast.Call, func: ast.expr) -> None:
        # Unseeded Random() / SystemRandom, by module attribute or import.
        name: Optional[str] = None
        if isinstance(func, ast.Attribute) and self._module_of(func.value) == "random":
            name = func.attr
        elif isinstance(func, ast.Name):
            origin = self.from_imports.get(func.id)
            if origin is not None and origin[0] == "random":
                name = origin[1]
        if name == "Random" and not node.args and not node.keywords:
            self.flag(
                "D102",
                node,
                "random.Random() without a seed falls back to OS entropy",
            )
        elif name == "SystemRandom":
            self.flag("D103", node, "random.SystemRandom draws OS entropy")

        # Wall-clock / entropy calls through from-imported aliases.
        if isinstance(func, ast.Name):
            origin = self.from_imports.get(func.id)
            if origin is not None:
                module, original = origin
                if module == "time" and original in _WALL_CLOCK:
                    self.flag("D201", node, f"{func.id}() reads the wall clock")
                elif module == "time" and original in _WALL_TIMER:
                    self.flag("D202", node, f"{func.id}() reads a wall-clock timer")
                elif module == "uuid" and original in _UUID_ENTROPY:
                    self.flag("D103", node, f"{func.id}() draws OS entropy")
                elif module == "os" and original == "urandom":
                    self.flag("D103", node, f"{func.id}() reads OS entropy")
                elif module == "secrets":
                    self.flag("D103", node, f"{func.id}() reads OS entropy")

        # datetime.now()/utcnow()/today().
        if isinstance(func, ast.Attribute) and func.attr in _DATETIME_READS:
            base = func.value
            is_datetime = False
            if isinstance(base, ast.Name):
                origin = self.from_imports.get(base.id)
                is_datetime = (
                    origin is not None
                    and origin[0] == "datetime"
                    and origin[1] in {"date", "datetime"}
                ) or self._module_of(base) == "datetime"
            elif isinstance(base, ast.Attribute):
                is_datetime = (
                    self._module_of(base.value) == "datetime"
                    and base.attr in {"date", "datetime"}
                )
            if is_datetime:
                self.flag(
                    "D203",
                    node,
                    f"{self._describe(func)}() reads the wall clock",
                )

        # Filesystem-order producers (outside a neutral consumer).
        if self.neutral == 0:
            listing: Optional[str] = None
            if isinstance(func, ast.Attribute) and func.attr in _FS_LISTING:
                base_module = self._module_of(func.value)
                if base_module in {"os", "glob"} or func.attr in {
                    "iterdir", "rglob",
                } or (func.attr == "glob" and base_module != "glob"):
                    listing = self._describe(func)
                elif base_module is None and func.attr in {"listdir", "iglob"}:
                    listing = self._describe(func)
            elif isinstance(func, ast.Name):
                origin = self.from_imports.get(func.id)
                if origin is not None and origin[0] in {"os", "glob"} and (
                    origin[1] in _FS_LISTING
                ):
                    listing = func.id
            if listing is not None:
                self.flag(
                    "D302",
                    node,
                    f"{listing} yields entries in filesystem order; wrap in sorted()",
                )

        # id()/hash() ordering hazards, sim-path only.
        if self.simpath and isinstance(func, ast.Name) and func.id in {"id", "hash"}:
            if func.id not in self.from_imports:
                rule = "D303" if func.id == "id" else "D304"
                self.flag(
                    rule,
                    node,
                    f"{func.id}() is process-dependent"
                    + (" (salted per run for str/bytes)" if func.id == "hash" else ""),
                )

    def _on_For(self, node: ast.For) -> None:
        if self.simpath and self.neutral == 0 and self._set_valued(node.iter):
            self.flag(
                "D301",
                node.iter,
                f"iterating {self._describe(node.iter)} visits elements in "
                "hash order",
            )
        if self.simpath and self._node_kind(node.iter) == "collection":
            for name in _names_in_target(node.target):
                self.iso_scopes[-1][name] = "node"
        self._generic(node)

    def _on_comprehension_holder(self, node) -> None:
        """Shared D301 check for list/dict/generator comprehensions.

        Set comprehensions are order-neutral by construction and handled
        separately. A generator feeding an order-neutral call is already
        exempted by the ``neutral`` counter at the call site.
        """
        if self.simpath and self.neutral == 0:
            for comp in node.generators:
                if self._set_valued(comp.iter):
                    self.flag(
                        "D301",
                        comp.iter,
                        f"comprehension over {self._describe(comp.iter)} runs in "
                        "hash order",
                    )
        self._bind_node_targets(node.generators)
        self._generic(node)

    def _on_ListComp(self, node: ast.ListComp) -> None:
        self._on_comprehension_holder(node)

    def _on_DictComp(self, node: ast.DictComp) -> None:
        self._on_comprehension_holder(node)

    def _on_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._on_comprehension_holder(node)

    def _on_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set is order-neutral all the way down.
        self._bind_node_targets(node.generators)
        self.neutral += 1
        self._generic(node)
        self.neutral -= 1

    # ------------------------------------------- I1xx: node-valued names

    def _bind_node_targets(self, generators) -> None:
        """Comprehension targets over a node collection are node-valued
        (the dht replication-level genexp is exactly this shape)."""
        if not self.simpath:
            return
        for comp in generators:
            if self._node_kind(comp.iter) == "collection":
                for name in _names_in_target(comp.target):
                    self.iso_scopes[-1][name] = "node"

    def _node_kind(self, expr: ast.expr) -> Optional[str]:
        """Syntactic judgement: ``"collection"`` for a node collection,
        ``"node"`` for one node pulled out of it, ``None`` otherwise."""
        if isinstance(expr, ast.Attribute):
            return "collection" if expr.attr in NODE_COLLECTIONS else None
        if isinstance(expr, ast.Name):
            for scope in reversed(self.iso_scopes):
                if expr.id in scope:
                    return scope[expr.id]
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            fname = None
            if isinstance(func, ast.Name):
                fname = func.id
            elif isinstance(func, ast.Attribute):
                fname = func.attr
            if fname in NODE_RETURNING:
                return "collection"
            # list(self.servers) / sorted(..., key=...) keep node identity.
            if (
                fname in {"list", "sorted", "tuple"}
                and expr.args
                and self._node_kind(expr.args[0]) == "collection"
            ):
                return "collection"
            return None
        if isinstance(expr, ast.Subscript):
            if self._node_kind(expr.value) == "collection":
                return "node"
            return None
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            # [s for s in self.servers if s.alive] is still a node
            # collection — filtered, but element-for-element the same.
            if (
                len(expr.generators) == 1
                and isinstance(expr.elt, ast.Name)
                and isinstance(expr.generators[0].target, ast.Name)
                and expr.elt.id == expr.generators[0].target.id
                and self._node_kind(expr.generators[0].iter) == "collection"
            ):
                return "collection"
            return None
        return None

    # --------------------------- I2xx/I3xx/I4xx: per-function analysis

    def _audit_isolation_function(self, node) -> None:
        """Second pass over one function body: reconcile sends against
        later mutations, handlers against what they do to ``msg``, and
        scheduler lambdas against the names they capture."""
        if not self.simpath:
            return
        # I202: a mutable default is one object shared by every call —
        # and by every message it is ever sent inside.
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.Dict, ast.List, ast.Set)):
                self.flag(
                    "I202",
                    default,
                    f"mutable default {self._describe(default)} is shared "
                    "across calls; default to None and allocate per call",
                )
        params = [
            arg.arg
            for arg in list(node.args.posonlyargs) + list(node.args.args)
            if arg.arg not in {"self", "cls"}
        ]
        handler = params[0] if params and params[0] == "msg" else None
        info = _FunctionIsolation(handler)
        for child in node.body:
            self._iso_scan(child, info, [])
        self._iso_reconcile(info)

    def _iso_scan(self, node: ast.AST, info: "_FunctionIsolation",
                  loop: List[Set[str]]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs run their own per-function pass
        if isinstance(node, ast.Assign):
            self._iso_scan(node.value, info, loop)
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if isinstance(node.value, _MUTABLE_DISPLAYS) or (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in {"dict", "list", "set"}
                ):
                    info.mutable.setdefault(name, node.lineno)
                else:
                    info.mutable.pop(name, None)  # rebound to something else
                return
            for target in node.targets:
                self._iso_mutation_target(target, info)
            return
        if isinstance(node, ast.AugAssign):
            self._iso_mutation_target(node.target, info, rebind_ok=False)
            self._iso_scan(node.value, info, loop)
            return
        if isinstance(node, ast.For):
            self._iso_scan(node.iter, info, loop)
            names = _names_in_target(node.target)
            inner = loop + [names]
            for child in node.body:
                self._iso_scan(child, info, inner)
            for child in node.orelse:
                self._iso_scan(child, info, loop)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _SEND_CALLS:
                    self._iso_send(node, info)
                elif func.attr in _SCHEDULING_CALLS:
                    self._iso_schedule(node, info, loop)
                elif func.attr in _MUTATING_METHODS:
                    root = _root_name(func.value)
                    if root is not None:
                        info.mutations.setdefault(root, []).append(node)
            for child in ast.iter_child_nodes(node):
                self._iso_scan(child, info, loop)
            return
        for child in ast.iter_child_nodes(node):
            self._iso_scan(child, info, loop)

    def _iso_mutation_target(
        self, target: ast.expr, info: "_FunctionIsolation",
        rebind_ok: bool = True,
    ) -> None:
        """An assignment *into* an object (subscript/attribute target, or
        augmented assign) mutates the root name; a plain name target only
        rebinds it."""
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _root_name(target)
            if root is not None:
                info.mutations.setdefault(root, []).append(target)
        elif isinstance(target, ast.Name) and not rebind_ok:
            info.mutations.setdefault(target.id, []).append(target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._iso_mutation_target(element, info, rebind_ok)

    def _iso_send(self, node: ast.Call, info: "_FunctionIsolation") -> None:
        names: Set[str] = set()
        refs_msg = False
        args = node.args[-1:] if node.func.attr == "multicast" else node.args
        payload = list(args) + [kw.value for kw in node.keywords]
        for arg in payload:
            if (
                info.handler is not None
                and isinstance(arg, ast.Name)
                and arg.id == info.handler
            ):
                self.flag(
                    "I203",
                    node,
                    f"re-sends the received message object {arg.id!r}; "
                    "rebuild it before forwarding",
                )
                refs_msg = True
                continue
            if self._iso_payload_names(arg, info, names):
                refs_msg = True
        info.sends.append((node.lineno, names))
        if refs_msg:
            info.forwards.append(node.lineno)

    def _iso_payload_names(
        self, expr: ast.AST, info: "_FunctionIsolation", names: Set[str]
    ) -> bool:
        """Collect local names a payload expression aliases, skipping
        copy-wrapped subtrees; flag I204 inline; return True if the
        subtree references the handler's message."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and (
            expr.func.id in _COPY_CALLS
        ):
            return False  # snapshot at send time — decoupled
        refs_msg = False
        if isinstance(expr, ast.Name):
            names.add(expr.id)
            return expr.id == info.handler
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == info.handler
        ):
            if expr.attr in PAYLOAD_ATTRS:
                self.flag(
                    "I204",
                    expr,
                    f"{self._describe(expr)} aliases the received payload "
                    "into an outbound message; snapshot or rebuild it",
                )
            return True
        for child in ast.iter_child_nodes(expr):
            if self._iso_payload_names(child, info, names):
                refs_msg = True
        return refs_msg

    def _iso_schedule(
        self, node: ast.Call, info: "_FunctionIsolation", loop: List[Set[str]]
    ) -> None:
        for arg in node.args:
            if not isinstance(arg, ast.Lambda):
                continue
            params = {
                a.arg
                for a in list(arg.args.posonlyargs)
                + list(arg.args.args)
                + list(arg.args.kwonlyargs)
            }
            captured = {
                n.id
                for n in ast.walk(arg.body)
                if isinstance(n, ast.Name) and n.id not in params
            }
            late = captured & set().union(*loop) if loop else set()
            if late:
                name = sorted(late)[0]
                self.flag(
                    "I401",
                    arg,
                    f"callback captures loop variable {name!r}; every firing "
                    f"sees the final value — rebind it as a default "
                    f"(lambda {name}={name}: ...)",
                )
            info.scheduled.append((node.lineno, arg, captured))

    def _iso_reconcile(self, info: "_FunctionIsolation") -> None:
        # I201: a mutable local referenced by a send and mutated later.
        flagged: Set[int] = set()
        for send_line, names in info.sends:
            for name in sorted(names & set(info.mutable)):
                for mutation in info.mutations.get(name, ()):  # in scan order
                    if mutation.lineno > send_line and id(mutation) not in flagged:
                        flagged.add(id(mutation))
                        self.flag(
                            "I201",
                            mutation,
                            f"{name!r} was sent at line {send_line} and is "
                            "mutated here; the network owns it once sent",
                        )
                        break
        # I301/I302: the handler mutated the message it was handed.
        if info.handler is not None:
            for mutation in info.mutations.get(info.handler, ()):
                if any(line < mutation.lineno for line in info.forwards):
                    self.flag(
                        "I301",
                        mutation,
                        f"mutates {info.handler!r} after forwarding it; the "
                        "in-flight copy races this write",
                    )
                else:
                    self.flag(
                        "I302",
                        mutation,
                        f"mutates the received message {info.handler!r}; "
                        "handlers borrow what they are handed "
                        "(copy-on-receive)",
                    )
        # I402: a scheduled lambda captured a mutable local that kept
        # changing after the scheduling call.
        for sched_line, lam, captured in info.scheduled:
            for name in sorted(captured & set(info.mutable)):
                if any(
                    m.lineno > sched_line for m in info.mutations.get(name, ())
                ):
                    self.flag(
                        "I402",
                        lam,
                        f"callback captures {name!r}, which is mutated after "
                        "scheduling; it will see the mutated value when it "
                        "fires",
                    )
                    break


class _FunctionIsolation:
    """Scratch state for one function's I2xx/I3xx/I4xx pass."""

    def __init__(self, handler: Optional[str]) -> None:
        self.handler = handler
        # local name -> lineno of the mutable-display assignment
        self.mutable: Dict[str, int] = {}
        # root name -> mutation nodes, in scan order
        self.mutations: Dict[str, List[ast.AST]] = {}
        # (lineno, local names referenced by the payload)
        self.sends: List[tuple] = []
        # send linenos whose payload references the handler's message
        self.forwards: List[int] = []
        # (lineno, lambda node, captured names)
        self.scheduled: List[tuple] = []


def _root_name(expr: ast.expr) -> Optional[str]:
    """The base Name under a Subscript/Attribute chain, if any."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _names_in_target(target: ast.expr) -> Set[str]:
    names: Set[str] = set()
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.update(_names_in_target(element))
    return names
