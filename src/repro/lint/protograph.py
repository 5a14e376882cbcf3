"""Static protocol-graph model.

The protocol analyzer (:mod:`repro.lint.protocol`) extracts one
:class:`ProtocolGraph` per lint run: message dataclasses, send sites,
and handler (un)registrations, resolved across every sim-path module in
the linted tree. The graph is both the substrate the P-rules judge and
a first-class artifact — ``repro protocol graph`` serialises it, and the
serialisations are deterministic byte-for-byte: every collection is
emitted in sorted order, so two walks of the same tree produce identical
JSON/DOT output (the CI gate byte-compares them).

Endpoints are the classes that own protocol behaviour: a service or node
subclass that sends a message or registers a handler. Module-level
sends (rare; test fixtures mostly) use the pseudo-endpoint
``<module>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "FieldDef",
    "MessageDef",
    "SendSite",
    "HandlerReg",
    "HandlerUnreg",
    "ProtocolGraph",
]

MODULE_ENDPOINT = "<module>"


@dataclass(frozen=True)
class FieldDef:
    """One dataclass field of a message: name, annotation source text,
    and the line it is declared on (the P203 anchor)."""

    name: str
    annotation: str
    line: int


@dataclass(frozen=True)
class MessageDef:
    """One message class: a dataclass that participates in the protocol.

    ``attrs`` is every name an instance legally resolves — fields plus
    anything bound in the class body (properties, methods) — so P201
    does not flag reads of ``msg.msg_id``-style computed properties.
    """

    name: str
    path: str
    line: int
    frozen: bool
    fields: Tuple[FieldDef, ...]
    attrs: Tuple[str, ...]

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)


@dataclass(frozen=True)
class SendSite:
    """One resolved send: ``endpoint`` (class) sends ``message`` from
    ``function``."""

    message: str
    endpoint: str
    function: str
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class HandlerReg:
    """One ``register_handler(Message, handler)`` call site."""

    message: str
    endpoint: str
    handler: str
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class HandlerUnreg:
    """One ``unregister_handler(Message)`` call site."""

    message: str
    endpoint: str
    function: str
    path: str
    line: int
    col: int


@dataclass
class ProtocolGraph:
    """The whole-program message graph of one linted tree.

    ``unresolved`` lists send sites whose payload the resolver could not
    pin to a message class (a generic forwarder like ``Node.send``
    relaying its own parameter); they are reported, never silently
    dropped, so the artifact is honest about its blind spots.
    """

    messages: Dict[str, MessageDef] = field(default_factory=dict)
    sends: List[SendSite] = field(default_factory=list)
    registrations: List[HandlerReg] = field(default_factory=list)
    unregistrations: List[HandlerUnreg] = field(default_factory=list)
    unresolved: List[SendSite] = field(default_factory=list)

    # ------------------------------------------------------------ queries

    def endpoints(self) -> List[str]:
        names = {s.endpoint for s in self.sends}
        names.update(r.endpoint for r in self.registrations)
        names.update(u.endpoint for u in self.unregistrations)
        names.update(s.endpoint for s in self.unresolved)
        return sorted(names)

    def send_edges(self) -> Dict[Tuple[str, str], int]:
        """(endpoint, message) -> number of static send sites."""
        edges: Dict[Tuple[str, str], int] = {}
        for site in self.sends:
            key = (site.endpoint, site.message)
            edges[key] = edges.get(key, 0) + 1
        return edges

    def handle_edges(self) -> Dict[Tuple[str, str], List[str]]:
        """(endpoint, message) -> sorted handler names registered."""
        edges: Dict[Tuple[str, str], List[str]] = {}
        for reg in self.registrations:
            key = (reg.endpoint, reg.message)
            edges.setdefault(key, [])
            if reg.handler and reg.handler not in edges[key]:
                edges[key].append(reg.handler)
        return {key: sorted(names) for key, names in edges.items()}

    # ---------------------------------------------------------- artifacts

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready view with every collection in sorted order."""
        messages = [
            {
                "name": m.name,
                "path": m.path,
                "line": m.line,
                "frozen": m.frozen,
                "fields": [
                    {"name": f.name, "annotation": f.annotation}
                    for f in m.fields
                ],
            }
            for _, m in sorted(self.messages.items())
        ]
        sends = [
            {"from": endpoint, "message": message, "count": count}
            for (endpoint, message), count in sorted(self.send_edges().items())
        ]
        handles = [
            {"message": message, "to": endpoint, "handlers": handlers}
            for (endpoint, message), handlers in sorted(
                self.handle_edges().items()
            )
        ]
        unresolved = [
            {
                "endpoint": endpoint,
                "function": function,
                "path": path,
                "line": line,
            }
            for (path, line, endpoint, function) in sorted(
                (s.path, s.line, s.endpoint, s.function)
                for s in self.unresolved
            )
        ]
        return {
            "schema": 1,
            "messages": messages,
            "endpoints": self.endpoints(),
            "edges": {"sends": sends, "handles": handles},
            "unresolved_sends": unresolved,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        """A Graphviz digraph: endpoints are boxes, messages ellipses;
        ``endpoint -> message`` edges are sends, ``message -> endpoint``
        edges are handler registrations."""
        lines = [
            "digraph protocol {",
            "  rankdir=LR;",
            '  node [fontname="monospace"];',
        ]
        for name in sorted(self.messages):
            lines.append(f'  "msg:{name}" [label="{name}", shape=ellipse];')
        for name in self.endpoints():
            lines.append(f'  "ep:{name}" [label="{name}", shape=box];')
        for (endpoint, message), count in sorted(self.send_edges().items()):
            label = "sends" if count == 1 else f"sends x{count}"
            lines.append(
                f'  "ep:{endpoint}" -> "msg:{message}" [label="{label}"];'
            )
        for (endpoint, message), handlers in sorted(
            self.handle_edges().items()
        ):
            label = ",".join(handlers) if handlers else "handles"
            lines.append(
                f'  "msg:{message}" -> "ep:{endpoint}" [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
