"""Error taxonomy shared by all components and the wire protocol.

Every error that can cross a component boundary carries one of the
protocol error codes. Configuration errors keep a separate code; one met
while serving travels as `unavailable`.
"""

from __future__ import annotations


class MeshError(Exception):
    """Base class for all component and runtime errors."""

    code = "protocol"

    def __init__(self, message: str, *, origin: str | None = None):
        super().__init__(message)
        self.message = message
        self.origin = origin


class QuerySyntaxError(MeshError):
    """Raised by the query/view parser; carries a 1-based position."""

    code = "syntax"

    def __init__(
        self,
        message: str,
        *,
        line: int,
        column: int,
        expected: tuple[str, ...] = (),
        origin: str | None = None,
    ):
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail, origin=origin)
        self.line = line
        self.column = column
        self.expected = expected


class TypeCheckError(MeshError):
    """Schema inference failure: bad attribute, type mismatch, arity, duplicate name."""

    code = "type"


class UnknownRelationError(MeshError):
    code = "unknown_relation"


class AccessDeniedError(MeshError):
    code = "access_denied"


class UnavailableError(MeshError):
    """A source or downstream component cannot be reached."""

    code = "unavailable"


class ProtocolError(MeshError):
    code = "protocol"


class ConfigError(MeshError):
    """Invalid component or topology configuration. One raised while serving,
    such as a malformed source file, travels as `unavailable`."""

    code = "config"


class ViewCycleError(ConfigError):
    """View dependency cycle; message lists the cycle."""

    def __init__(self, cycle: list[str], *, origin: str | None = None):
        super().__init__("view dependency cycle: " + " -> ".join(cycle), origin=origin)
        self.cycle = tuple(cycle)
