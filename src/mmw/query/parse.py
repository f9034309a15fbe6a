"""Recursive-descent parser for the query and view-declaration surface.

Grammar:

    query  := SELECT items FROM qname (JOIN qname ON pair (AND pair)*)*
              (WHERE predicate)? (UNION query)?
    items  := '*' | item (',' item)*
    item   := expr (AS identifier)?
    pair   := identifier '=' identifier
    view   := CREATE VIEW identifier AS query

Tokens, matched by one regular expression: KW (a keyword, case-insensitive),
IDENT (any other word; the parser accepts only lowercase snake case), NUMBER
(ASCII digits with an optional '-' and fraction), STRING (single-quoted, ''
escapes a quote), OP (<> <= >= = < > , . * ( ) ;) and a final EOF. Spaces,
tabs, line breaks and '--' line comments separate tokens. View files hold
';'-terminated statements. Nesting is bounded by MAX_DEPTH.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, TypeVar

from mmw.errors import QuerySyntaxError
from mmw.relational import Value, is_identifier
from mmw.query.ast import (
    AttrRef,
    Comparison,
    CompareOp,
    ConcatCall,
    Expr,
    HashCall,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Predicate,
    Project,
    ProjectItem,
    QualifiedName,
    Query,
    RedactCall,
    Scan,
    Select,
    Union,
)

KEYWORDS = {
    "SELECT",
    "FROM",
    "JOIN",
    "ON",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "UNION",
    "AS",
    "CREATE",
    "VIEW",
    "TRUE",
    "FALSE",
    "NULL",
    "TIMESTAMP",
}

_COMPARE_OPS = {op.value: op for op in CompareOp}

# Most levels a parsed query tree may have, counting one per NOT, function
# call and UNION and one per link of an AND, OR or JOIN chain, and most
# parentheses that may be open at once. The rendered text of an accepted query
# puts parentheses around every AND/OR operand and NOT argument, and is accepted
# too. At this depth neither parsing that text nor a walk of the tree (render,
# infer, evaluate, plan) comes near the interpreter's recursion limit.
MAX_DEPTH = 64

T = TypeVar("T")


class Token(NamedTuple):
    type: str  # KW, IDENT, NUMBER, STRING, OP, EOF
    text: str
    line: int
    column: int


def _error(message: str, line: int, column: int, expected: tuple[str, ...] = ()) -> QuerySyntaxError:
    return QuerySyntaxError(message, line=line, column=column, expected=expected)


# One alternative per token class, tried in this order at each position. The
# (?!') keeps a literal from ending on the first quote of a '' pair, so an
# unterminated literal falls through to BAD.
_TOKEN_RE = re.compile(
    r"""(?P<SKIP>[ \t\r\n]+|--[^\n]*)
      | (?P<STRING>'(?:[^']|'')*'(?!'))
      | (?P<NUMBER>-?[0-9]+(?:\.[0-9]+)?)
      | (?P<WORD>[^\W\d]\w*)
      | (?P<OP><>|<=|>=|[=<>,.*();])
      | (?P<BAD>.)""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    multiline = "\n" in source  # else every token is on line 1
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(source):
        kind, text, start = match.lastgroup, match.group(), match.start()
        if kind != "SKIP":
            column = start - line_start + 1
            if kind == "WORD":
                word = text.upper()
                if word in KEYWORDS:
                    append(Token("KW", word, line, column))
                else:
                    append(Token("IDENT", text, line, column))
            elif kind == "STRING":
                append(Token("STRING", text[1:-1].replace("''", "'"), line, column))
            elif kind == "BAD":
                if text == "'":
                    raise _error("unterminated text literal", line, column)
                raise _error(f"unexpected character {text!r}", line, column)
            else:
                append(Token(kind, text, line, column))
        if multiline and "\n" in text:
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
    append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # tree levels above the node being parsed
        self.peak = 0  # deepest level reached since the innermost chain began
        self.parens = 0  # parentheses open

    # The hot paths read self.tokens[self.pos] in place: a parse looks at
    # the current token about a hundred times.

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type != "EOF":
            self.pos += 1
        return token

    def at_keyword(self, word: str) -> bool:
        token = self.tokens[self.pos]
        return token.type == "KW" and token.text == word

    def at_op(self, op: str) -> bool:
        token = self.tokens[self.pos]
        return token.type == "OP" and token.text == op

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.unexpected((word,))
        return self.advance()

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            raise self.unexpected((f"'{op}'",))
        return self.advance()

    def expect_identifier(self) -> Token:
        if self.tokens[self.pos].type != "IDENT":
            raise self.unexpected(("identifier",))
        token = self.advance()
        if not is_identifier(token.text):
            raise _error(
                f"invalid identifier {token.text!r} (lowercase snake case required)",
                token.line,
                token.column,
            )
        return token

    def check_depth(self, token: Token, level: int) -> None:
        """Refuse, at `token`, nesting past MAX_DEPTH before the parser recurses."""
        if level > MAX_DEPTH:
            raise _error(f"query nests deeper than the limit of {MAX_DEPTH}", token.line, token.column)

    def nested(self, token: Token, parse: Callable[..., T], *args) -> T:
        """Run parse(*args) one tree level deeper."""
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        self.check_depth(token, self.peak)
        node = parse(*args)
        self.depth -= 1
        return node

    def chain(self, keyword: str, first: Callable[[], T], link: Callable[[T], T]) -> T:
        """Parse `first (keyword link)*` into a left-deep tree. Each link puts
        everything parsed so far in the chain one level deeper."""
        outer_peak, self.peak = self.peak, self.depth
        node = first()
        while self.at_keyword(keyword):
            self.peak += 1
            node = self.nested(self.advance(), link, node)
        self.peak = max(outer_peak, self.peak)
        return node

    def literal(self, token: Token, make: Callable[[str], Value]) -> Literal:
        try:
            return Literal(make(token.text))
        except ValueError as exc:
            raise _error(str(exc), token.line, token.column) from None

    def unexpected(self, expected: tuple[str, ...]) -> QuerySyntaxError:
        token = self.tokens[self.pos]
        shown = token.text if token.type != "EOF" else "end of input"
        return _error(f"unexpected {shown!r}", token.line, token.column, expected)

    # --- query grammar ----------------------------------------------------

    def parse_query(self) -> Query:
        block = self.parse_block()
        if self.at_keyword("UNION"):
            return Union(block, self.nested(self.advance(), self.parse_query))
        return block

    def parse_block(self) -> Query:
        self.expect_keyword("SELECT")
        items = self.parse_items()
        self.expect_keyword("FROM")
        node = self.chain("JOIN", lambda: Scan(self.parse_qualified_name()), self.parse_join)
        if self.at_keyword("WHERE"):
            self.advance()
            node = Select(node, self.parse_predicate())
        return Project(node, items)

    def parse_items(self):
        if self.at_op("*"):
            self.advance()
            return None
        items = [self.parse_item()]
        while self.at_op(","):
            self.advance()
            items.append(self.parse_item())
        return items

    def parse_item(self) -> ProjectItem:
        token = self.tokens[self.pos]
        expr = self.parse_expr()
        if self.at_keyword("AS"):
            self.advance()
            name = self.expect_identifier().text
        elif isinstance(expr, AttrRef):
            name = expr.name
        else:
            raise _error(
                "select item needs an output name", token.line, token.column, ("AS",)
            )
        return ProjectItem(expr, name)

    def parse_qualified_name(self) -> QualifiedName:
        namespace = self.expect_identifier().text
        self.expect_op(".")
        relation = self.expect_identifier().text
        return QualifiedName(namespace, relation)

    def parse_join(self, left: Query) -> Join:
        right = Scan(self.parse_qualified_name())
        self.expect_keyword("ON")
        pairs = [self.parse_join_pair()]
        while self.at_keyword("AND"):
            self.advance()
            pairs.append(self.parse_join_pair())
        return Join(left, right, pairs)

    def parse_join_pair(self) -> tuple[str, str]:
        left = self.expect_identifier().text
        self.expect_op("=")
        right = self.expect_identifier().text
        return left, right

    # --- predicates ---------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        return self.chain("OR", self.parse_and, lambda left: LogicalOr(left, self.parse_and()))

    def parse_and(self) -> Predicate:
        return self.chain("AND", self.parse_unary, lambda left: LogicalAnd(left, self.parse_unary()))

    def parse_unary(self) -> Predicate:
        if self.at_keyword("NOT"):
            return LogicalNot(self.nested(self.advance(), self.parse_unary))
        if self.at_op("("):
            self.parens += 1
            self.check_depth(self.advance(), self.parens)
            inner = self.parse_predicate()
            self.parens -= 1
            self.expect_op(")")
            return inner
        left = self.parse_expr()
        token = self.tokens[self.pos]
        if token.type != "OP" or token.text not in _COMPARE_OPS:
            raise self.unexpected(tuple(sorted(_COMPARE_OPS)))
        self.advance()
        right = self.parse_expr()
        return Comparison(left, _COMPARE_OPS[token.text], right)

    # --- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        token = self.tokens[self.pos]
        if token.type == "NUMBER":
            self.advance()
            if "." in token.text:
                return self.literal(token, Value.decimal)
            return self.literal(token, lambda text: Value.integer(int(text)))
        if token.type == "STRING":
            self.advance()
            return Literal(Value.text(token.text))
        if token.type == "KW":
            if token.text == "TRUE":
                self.advance()
                return Literal(Value.boolean(True))
            if token.text == "FALSE":
                self.advance()
                return Literal(Value.boolean(False))
            if token.text == "NULL":
                self.advance()
                return Literal(Value.null())
            if token.text == "TIMESTAMP":
                self.advance()
                text_token = self.tokens[self.pos]
                if text_token.type != "STRING":
                    raise self.unexpected(("text literal",))
                self.advance()
                return self.literal(text_token, Value.timestamp)
            raise self.unexpected(("expression",))
        if token.type == "IDENT":
            name_token = self.expect_identifier()
            if self.at_op("("):
                return self.nested(self.tokens[self.pos], self.parse_call, name_token)
            return AttrRef(name_token.text)
        raise self.unexpected(("expression",))

    def parse_call(self, name_token: Token) -> Expr:
        name = name_token.text
        self.expect_op("(")
        if name == "hash":
            arg = self.parse_expr()
            self.expect_op(")")
            return HashCall(arg)
        if name == "redact":
            self.expect_op(")")
            return RedactCall()
        if name == "concat":
            left = self.parse_expr()
            self.expect_op(",")
            right = self.parse_expr()
            self.expect_op(")")
            return ConcatCall(left, right)
        raise _error(
            f"unknown function {name!r}",
            name_token.line,
            name_token.column,
            ("hash", "redact", "concat"),
        )

    # --- view declarations ------------------------------------------------------

    def parse_view_statement(self) -> tuple[str, Query]:
        self.expect_keyword("CREATE")
        self.expect_keyword("VIEW")
        name = self.expect_identifier().text
        self.expect_keyword("AS")
        return name, self.parse_query()

    def at_end(self) -> bool:
        return self.tokens[self.pos].type == "EOF"

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.unexpected(("end of input",))


def parse_query(text: str) -> Query:
    parser = _Parser(tokenize(text))
    query = parser.parse_query()
    parser.expect_end()
    return query


def parse_view_statements(text: str) -> list[tuple[str, Query]]:
    """Parse a view-declaration source: ';'-terminated CREATE VIEW statements."""
    parser = _Parser(tokenize(text))
    statements: list[tuple[str, Query]] = []
    while not parser.at_end():
        statements.append(parser.parse_view_statement())
        if parser.at_op(";"):
            parser.advance()
        elif not parser.at_end():
            raise parser.unexpected(("';'",))
    return statements
