"""Whole-program protocol-flow analysis: the P-rule families.

Unlike the D/I visitors, which judge one file at a time, the protocol
pass runs over *all* sim-path modules of a lint run at once: it
extracts each module's protocol surface (message dataclasses, send
sites, handler registrations), links them into one
:class:`~repro.lint.protograph.ProtocolGraph`, and only then judges the
graph. The consequence is worth stating plainly: P-rule results depend
on the lint target set. Linting a single module can report a P101 dead
letter whose handler lives in a file that was not linted; the committed
policy always lints ``src`` whole.

Extraction is deliberately syntactic and covers the repo's idioms:

* **Message classes** — ``@dataclass`` classes (frozen or not) that
  participate in at least one send/registration edge, plus any
  dataclass defined in a module where another dataclass participates
  (so a dead message added to ``core/messages.py`` is still seen).
  Classes are keyed by bare name across the whole tree.
* **Send sites** — ``*.send(dst, payload)`` and
  ``network.send(src, dst, payload)`` calls, and their fan-out forms
  ``*.multicast(dsts, payload)`` / ``network.multicast(src, dsts,
  payload)``: the payload is the last argument. Payloads resolve through
  direct constructor calls, function-local variables (``advert =
  SliceAdvert(...)`` … ``node.send(t, advert)``), and helper calls
  whose ``return`` statements construct messages
  (``self._request_message(op)``, ``_with_ttl(msg, ttl)``), up to a
  small recursion depth. Unresolvable payloads (a generic forwarder
  re-sending its own parameter) are recorded on the graph's
  ``unresolved`` list — visible in the artifact, exempt from P-rules.
* **Handler registrations** — ``*.register_handler(Message, handler)``
  and ``*.unregister_handler(Message)`` calls; the registering class is
  the graph endpoint, matching the runtime coverage collector's
  per-handler-owner accounting.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.protograph import (
    MODULE_ENDPOINT,
    FieldDef,
    HandlerReg,
    HandlerUnreg,
    MessageDef,
    ProtocolGraph,
    SendSite,
)
from repro.lint.rules import Violation

__all__ = [
    "ModuleProtocol",
    "analyze_modules",
    "build_graph",
    "check_graph",
    "extract_module",
]

# Annotation tokens that make a frozen message only shallowly immutable
# (P203). Word boundaries keep frozenset/FrozenSet/Settings clean.
_MUTABLE_ANNOTATION = re.compile(
    r"\b(list|List|dict|Dict|set|Set|bytearray|deque|Deque|"
    r"defaultdict|DefaultDict|MutableMapping|MutableSequence|MutableSet)\b"
)

# Descriptor of a payload/return expression: ("ctor", name) for a call,
# ("var", name) for a bare name; None when the expression is opaque.
_Descriptor = Optional[Tuple[str, str]]


@dataclass
class _RawSend:
    descriptor: _Descriptor
    line: int
    col: int


@dataclass
class _CtorCall:
    callee: str
    n_pos: int
    keywords: Tuple[str, ...]
    has_star: bool
    line: int
    col: int


@dataclass
class _FunctionInfo:
    name: str
    endpoint: str
    path: str
    params: Tuple[str, ...]
    assigns: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    returns: List[Tuple[str, str]] = field(default_factory=list)
    raw_sends: List[_RawSend] = field(default_factory=list)
    attr_reads: List[Tuple[str, str, int, int]] = field(default_factory=list)
    top_ops: List[Tuple[str, str, int, int]] = field(default_factory=list)
    # Filled in by build_graph: message names this function's sends
    # resolve to (drives P301/P302).
    sent_messages: Set[str] = field(default_factory=set)


@dataclass
class _ClassProto:
    name: str
    line: int
    col: int
    is_dataclass: bool
    frozen: bool
    fields: List[FieldDef] = field(default_factory=list)
    attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, _FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleProtocol:
    """One module's extracted protocol surface (pre-linking)."""

    path: str
    classes: Dict[str, _ClassProto] = field(default_factory=dict)
    functions: Dict[str, _FunctionInfo] = field(default_factory=dict)
    registrations: List[HandlerReg] = field(default_factory=list)
    unregistrations: List[HandlerUnreg] = field(default_factory=list)
    ctor_calls: List[_CtorCall] = field(default_factory=list)

    def all_functions(self) -> List[_FunctionInfo]:
        out = list(self.functions.values())
        for cls in self.classes.values():
            out.extend(cls.methods.values())
        return out


# ------------------------------------------------------------- extraction


def extract_module(tree: ast.Module, path: str) -> ModuleProtocol:
    """Extract one module's message classes, sends, and registrations."""
    mp = ModuleProtocol(path=path)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            mp.classes[stmt.name] = _extract_class(stmt, mp)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mp.functions[stmt.name] = _extract_function(
                stmt, MODULE_ENDPOINT, mp
            )
    return mp


def _extract_class(node: ast.ClassDef, mp: ModuleProtocol) -> _ClassProto:
    is_dataclass, frozen = _dataclass_decorator(node)
    cls = _ClassProto(
        name=node.name,
        line=node.lineno,
        col=node.col_offset,
        is_dataclass=is_dataclass,
        frozen=frozen,
    )
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            annotation = ast.unparse(stmt.annotation)
            cls.attrs.add(stmt.target.id)
            if "ClassVar" not in annotation:
                cls.fields.append(
                    FieldDef(stmt.target.id, annotation, stmt.lineno)
                )
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    cls.attrs.add(target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.attrs.add(stmt.name)
            cls.methods[stmt.name] = _extract_function(stmt, node.name, mp)
    return cls


def _dataclass_decorator(node: ast.ClassDef) -> Tuple[bool, bool]:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = _rightmost_name(target)
        if name != "dataclass":
            continue
        frozen = False
        if isinstance(decorator, ast.Call):
            for kw in decorator.keywords:
                if kw.arg == "frozen":
                    frozen = (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    )
        return True, frozen
    return False, False


def _extract_function(
    node: ast.AST, endpoint: str, mp: ModuleProtocol
) -> _FunctionInfo:
    params = tuple(
        a.arg for a in (node.args.posonlyargs + node.args.args)
    )
    fn = _FunctionInfo(
        name=node.name, endpoint=endpoint, path=mp.path, params=params
    )
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            if len(sub.targets) == 1 and isinstance(sub.targets[0], ast.Name):
                desc = _descriptor(sub.value)
                if desc is not None:
                    fn.assigns.setdefault(sub.targets[0].id, []).append(desc)
        elif isinstance(sub, ast.Return) and sub.value is not None:
            desc = _descriptor(sub.value)
            if desc is not None:
                fn.returns.append(desc)
        elif isinstance(sub, ast.Attribute) and isinstance(
            sub.value, ast.Name
        ):
            fn.attr_reads.append(
                (sub.value.id, sub.attr, sub.lineno, sub.col_offset)
            )
        elif isinstance(sub, ast.Call):
            _extract_call(sub, fn, mp)
    # P103 looks only at the function body's top level: a register
    # followed by an unregister there shadows the handler on every path.
    for stmt in node.body:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if not isinstance(call, ast.Call):
            continue
        kind = _protocol_call_kind(call)
        if kind is None:
            continue
        message = _rightmost_name(call.args[0]) if call.args else None
        if message:
            fn.top_ops.append((kind, message, call.lineno, call.col_offset))
    return fn


def _extract_call(
    call: ast.Call, fn: _FunctionInfo, mp: ModuleProtocol
) -> None:
    kind = _protocol_call_kind(call)
    if kind == "reg" and len(call.args) >= 2:
        message = _rightmost_name(call.args[0])
        if message:
            mp.registrations.append(
                HandlerReg(
                    message=message,
                    endpoint=fn.endpoint,
                    handler=_handler_name(call.args[1]),
                    path=mp.path,
                    line=call.lineno,
                    col=call.col_offset,
                )
            )
        return
    if kind == "unreg" and call.args:
        message = _rightmost_name(call.args[0])
        if message:
            mp.unregistrations.append(
                HandlerUnreg(
                    message=message,
                    endpoint=fn.endpoint,
                    function=fn.name,
                    path=mp.path,
                    line=call.lineno,
                    col=call.col_offset,
                )
            )
        return
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("send", "multicast")
        and len(call.args) in (2, 3)
        and not any(isinstance(a, ast.Starred) for a in call.args)
    ):
        # node.send(dst, payload) or network.send(src, dst, payload);
        # multicast takes a collection of destinations in dst's place.
        fn.raw_sends.append(
            _RawSend(
                descriptor=_descriptor(call.args[-1]),
                line=call.lineno,
                col=call.col_offset,
            )
        )
        return
    callee = _rightmost_name(call.func)
    if callee:
        keywords = tuple(kw.arg for kw in call.keywords if kw.arg is not None)
        has_star = any(
            isinstance(a, ast.Starred) for a in call.args
        ) or any(kw.arg is None for kw in call.keywords)
        mp.ctor_calls.append(
            _CtorCall(
                callee=callee,
                n_pos=len(call.args),
                keywords=keywords,
                has_star=has_star,
                line=call.lineno,
                col=call.col_offset,
            )
        )


def _protocol_call_kind(call: ast.Call) -> Optional[str]:
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr == "register_handler":
        return "reg"
    if call.func.attr == "unregister_handler":
        return "unreg"
    return None


def _rightmost_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _handler_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _descriptor(node: ast.AST) -> _Descriptor:
    if isinstance(node, ast.Call):
        name = _rightmost_name(node.func)
        return ("ctor", name) if name else None
    if isinstance(node, ast.Name):
        return ("var", node.id)
    return None


# ---------------------------------------------------------------- linking


def build_graph(modules: Sequence[ModuleProtocol]) -> ProtocolGraph:
    """Link extracted modules into one resolved protocol graph."""
    graph = ProtocolGraph()
    # Dataclasses across the whole tree, keyed by bare name (collisions:
    # the lexically last definition wins — acceptable for this tree and
    # documented in the module docstring).
    candidates: Dict[str, Tuple[ModuleProtocol, _ClassProto]] = {}
    for mp in modules:
        for cls in mp.classes.values():
            if cls.is_dataclass:
                candidates[cls.name] = (mp, cls)

    for mp in modules:
        graph.registrations.extend(mp.registrations)
        graph.unregistrations.extend(mp.unregistrations)
        for fn in mp.all_functions():
            for raw in fn.raw_sends:
                resolved = sorted(
                    name
                    for name in _resolve(raw.descriptor, fn, mp, candidates)
                    if name in candidates
                )
                fn.sent_messages.update(resolved)
                if not resolved:
                    graph.unresolved.append(
                        SendSite(
                            message="",
                            endpoint=fn.endpoint,
                            function=fn.name,
                            path=mp.path,
                            line=raw.line,
                            col=raw.col,
                        )
                    )
                    continue
                for name in resolved:
                    graph.sends.append(
                        SendSite(
                            message=name,
                            endpoint=fn.endpoint,
                            function=fn.name,
                            path=mp.path,
                            line=raw.line,
                            col=raw.col,
                        )
                    )

    edged = {s.message for s in graph.sends}
    edged.update(r.message for r in graph.registrations)
    edged.update(u.message for u in graph.unregistrations)
    # Message set: every edged dataclass, plus dataclasses sharing a
    # module with an edged one (so dead code in a message module is
    # still judged, while unrelated spec/config dataclasses stay out).
    edged_paths = {
        candidates[name][0].path for name in edged if name in candidates
    }
    for name, (mp, cls) in sorted(candidates.items()):
        if name in edged or mp.path in edged_paths:
            graph.messages[name] = MessageDef(
                name=cls.name,
                path=mp.path,
                line=cls.line,
                frozen=cls.frozen,
                fields=tuple(cls.fields),
                attrs=tuple(sorted(cls.attrs)),
            )
    graph.sends.sort(key=lambda s: (s.path, s.line, s.col, s.message))
    graph.registrations.sort(key=lambda r: (r.path, r.line, r.col))
    graph.unregistrations.sort(key=lambda u: (u.path, u.line, u.col))
    graph.unresolved.sort(key=lambda s: (s.path, s.line, s.col))
    return graph


def _resolve(
    desc: _Descriptor,
    fn: _FunctionInfo,
    mp: ModuleProtocol,
    candidates: Dict[str, Tuple[ModuleProtocol, _ClassProto]],
    depth: int = 3,
) -> Set[str]:
    if desc is None or depth <= 0:
        return set()
    kind, name = desc
    if kind == "ctor":
        if name in candidates:
            return {name}
        # A helper call: same-class method first, then a module-level
        # function; its return statements name the messages it builds.
        cls = mp.classes.get(fn.endpoint)
        helper = (cls.methods.get(name) if cls is not None else None) or (
            mp.functions.get(name)
        )
        if helper is None or helper is fn:
            return set()
        out: Set[str] = set()
        for ret in helper.returns:
            out |= _resolve(ret, helper, mp, candidates, depth - 1)
        return out
    out = set()
    for assigned in fn.assigns.get(name, ()):
        out |= _resolve(assigned, fn, mp, candidates, depth - 1)
    return out


# ----------------------------------------------------------------- checks


def check_graph(
    graph: ProtocolGraph,
    modules: Sequence[ModuleProtocol],
    config: LintConfig,
) -> List[Violation]:
    """Judge a linked graph: every P-rule, violations in sorted order."""
    violations: List[Violation] = []
    seen: Set[Tuple[str, str, int, int, str]] = set()

    def emit(rule: str, path: str, line: int, col: int, message: str) -> None:
        key = (rule, path, line, col, message)
        if key not in seen:
            seen.add(key)
            violations.append(Violation(rule, path, line, col, message))

    func_index: Dict[Tuple[str, str], _FunctionInfo] = {}
    for mp in modules:
        for fn in mp.all_functions():
            func_index[(fn.endpoint, fn.name)] = fn

    sends_by_msg: Dict[str, List[SendSite]] = {}
    for site in graph.sends:
        sends_by_msg.setdefault(site.message, []).append(site)
    regs_by_msg: Dict[str, List[HandlerReg]] = {}
    for reg in graph.registrations:
        regs_by_msg.setdefault(reg.message, []).append(reg)
    unregs_by_msg: Dict[str, List[HandlerUnreg]] = {}
    for unreg in graph.unregistrations:
        unregs_by_msg.setdefault(unreg.message, []).append(unreg)

    # P101 — sent but never handled; P401 — no edges at all.
    for name, message in sorted(graph.messages.items()):
        sends = sends_by_msg.get(name, [])
        regs = regs_by_msg.get(name, [])
        unregs = unregs_by_msg.get(name, [])
        if sends and not regs:
            for site in sends:
                emit(
                    "P101",
                    site.path,
                    site.line,
                    site.col,
                    f"{name} is sent here but no handler for it is "
                    f"registered anywhere in the linted tree",
                )
        if not sends and not regs and not unregs:
            emit(
                "P401",
                message.path,
                message.line,
                0,
                f"message class {name} is never sent nor handled "
                f"anywhere in the linted tree",
            )

    # P102 — handler registered for a type nothing sends.
    for reg in graph.registrations:
        if reg.message not in graph.messages:
            continue
        if not sends_by_msg.get(reg.message):
            handler = reg.handler or "<handler>"
            emit(
                "P102",
                reg.path,
                reg.line,
                reg.col,
                f"handler {handler} registered for {reg.message}, which "
                f"nothing in the linted tree sends",
            )

    # P103 — register + unconditional unregister in one function body.
    for mp in modules:
        for fn in mp.all_functions():
            registered_at: Dict[str, int] = {}
            for kind, message, line, col in fn.top_ops:
                if kind == "reg":
                    registered_at[message] = line
                elif message in registered_at:
                    emit(
                        "P103",
                        mp.path,
                        line,
                        col,
                        f"{message} handler registered at line "
                        f"{registered_at[message]} is unconditionally "
                        f"unregistered in the same body — it can never "
                        f"fire",
                    )

    # P201 — handler reads an attribute the message does not define.
    for reg in graph.registrations:
        message = graph.messages.get(reg.message)
        fn = func_index.get((reg.endpoint, reg.handler))
        if message is None or fn is None or not fn.params:
            continue
        params = fn.params
        if params[0] in ("self", "cls"):
            params = params[1:]
        if not params:
            continue
        msg_param = params[0]
        for base, attr, line, col in fn.attr_reads:
            if base != msg_param or attr.startswith("__"):
                continue
            if attr not in message.attrs:
                fields = ", ".join(message.field_names()) or "none"
                emit(
                    "P201",
                    fn.path,
                    line,
                    col,
                    f"handler {reg.handler} reads {reg.message}.{attr}, "
                    f"which the message does not define (fields: "
                    f"{fields})",
                )

    # P202 — constructor call with unknown keyword / too many positionals.
    for mp in modules:
        for call in mp.ctor_calls:
            message = graph.messages.get(call.callee)
            if message is None or call.has_star:
                continue
            fields = message.field_names()
            if call.n_pos > len(fields):
                emit(
                    "P202",
                    mp.path,
                    call.line,
                    call.col,
                    f"{call.callee}() called with {call.n_pos} positional "
                    f"arguments but the message has {len(fields)} fields",
                )
            for kw in call.keywords:
                if kw not in fields:
                    emit(
                        "P202",
                        mp.path,
                        call.line,
                        call.col,
                        f"{call.callee}() called with unknown keyword "
                        f"{kw!r} (fields: {', '.join(fields) or 'none'})",
                    )

    # P203 — mutable field type on a frozen message class.
    for name, message in sorted(graph.messages.items()):
        if not message.frozen:
            continue
        for fld in message.fields:
            if _MUTABLE_ANNOTATION.search(fld.annotation):
                emit(
                    "P203",
                    message.path,
                    fld.line,
                    0,
                    f"frozen message {name} has mutable field "
                    f"{fld.name}: {fld.annotation}; receivers can alias "
                    f"and mutate it — snapshot with "
                    f"tuple/frozenset/Mapping",
                )

    # P301/P302 — configured request/reply pairs.
    for request, reply in sorted(config.request_reply):
        regs = regs_by_msg.get(request, [])
        if not regs:
            continue
        handler_sites = set()
        for reg in regs:
            handler_sites.add((reg.endpoint, reg.handler))
            fn = func_index.get((reg.endpoint, reg.handler))
            if fn is None:
                continue
            if reply not in fn.sent_messages:
                emit(
                    "P301",
                    reg.path,
                    reg.line,
                    reg.col,
                    f"handler {reg.handler or '<handler>'} for request "
                    f"{request} never sends the reply type {reply}",
                )
        for site in sends_by_msg.get(reply, []):
            if (site.endpoint, site.function) not in handler_sites:
                emit(
                    "P302",
                    site.path,
                    site.line,
                    site.col,
                    f"reply {reply} sent outside any handler registered "
                    f"for its request type {request}",
                )

    violations.sort(key=Violation.sort_key)
    return violations


def analyze_modules(
    modules: Sequence[ModuleProtocol], config: LintConfig
) -> Tuple[ProtocolGraph, List[Violation]]:
    """Link + check in one step — the engine's entry point."""
    graph = build_graph(modules)
    return graph, check_graph(graph, modules, config)
