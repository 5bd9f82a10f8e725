"""Tokenizer, parser and emitter for the SQLite SELECT dialect.

Covers the query shapes that appear in text-to-SQL benchmarks: joins,
subqueries, CTEs, compound selects, CASE/CAST/EXISTS/IN/BETWEEN/LIKE,
aggregate calls and arithmetic.  DML and DDL are out of scope; the
pipeline only ever produces and repairs SELECT statements.

Two properties the rest of the package relies on:

* identifiers keep their original spelling and quote style, so rewrites
  touch only what they mean to touch;
* `emit` produces a canonical single-line form that reparses to an equal
  tree, which makes rewrite passes idempotent when compared as strings.

Keywords are matched case-insensitively and contextually, so reserved
words used as plain names (a table literally called "table") still parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union

from .errors import SqlSyntaxError

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT"}

# Binary operators below comparison, by how tightly they bind.
_ARITHMETIC = {"+": 0, "-": 0, "*": 1, "/": 1, "%": 1, "||": 2}
_COMPARISONS = {"=", "==", "!=", "<>", "<", "<=", ">", ">="}
# Words that may continue a comparison after its left operand.
_POSTFIX_WORDS = {"IS", "NOT", "IN", "LIKE", "GLOB", "BETWEEN"}

# Words that terminate an implicit alias position.
_CLAUSE_WORDS = {
    "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "ON", "USING",
    "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "NATURAL", "UNION",
    "INTERSECT", "EXCEPT", "AS", "SELECT", "FROM", "WITH", "SET", "WINDOW",
    "AND", "OR", "NOT", "IN", "IS", "LIKE", "GLOB", "BETWEEN", "ESCAPE",
    "ASC", "DESC", "WHEN", "THEN", "ELSE", "END", "COLLATE",
}

# -- tokens ---------------------------------------------------------------


# One alternative per token kind, tried in this order, after any blanks.
# A quoted token may not end where its quote is doubled; `bad` is an
# opening that found no close, `odd` a character that starts no token.
_TOKEN = re.compile(
    r"""\s*(?:(?P<skip>--[^\n]*|/\*.*?\*/)
    |(?P<string>'(?:[^']|'')*'(?!'))
    |(?P<qident>"(?:[^"]|"")*"(?!")|`(?:[^`]|``)*`(?!`)|\[[^\]]*\])
    |(?P<bad>/\*|['"`[])
    |(?P<number>0[xX][0-9a-fA-F]+|(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)
    |(?P<word>[^\W\d][\w$]*)
    |(?P<op><=|>=|<>|!=|==|\|\||[-+*/%<>=])
    |(?P<punct>[(),.;])
    |(?P<odd>.)|\Z)""",
    re.VERBOSE | re.DOTALL,
)
_UNTERMINATED = {"/*": "unterminated block comment", "[": "unterminated [identifier]"}


@dataclass(slots=True)
class Token:
    type: str  # word | number | string | qident | op | punct | eof
    text: str
    pos: int  # where the token starts; for string and qident, where it ends
    quote: str = ""  # for qident: ` " or [
    upper: str = ""  # for word: the text upper-cased


def _stand_ins(sql: str) -> dict[int, str]:
    """Same-length stand-ins for the characters the pattern would misclass.

    Words start with a letter and numbers are made of digits, as
    `isalpha` and `isdigit` say; the pattern's classes follow `isalnum`
    and `isdecimal`.  They differ only on numerics that are not decimal
    digits and not letters: a digit of those reads as a decimal digit
    that is not hex ('\u0660'), any other as '$', which may continue a
    word and starts nothing.
    """
    return {
        ord(ch): "\u0660" if ch.isdigit() else "$"
        for ch in set(sql)
        if ch.isnumeric() and not ch.isdecimal() and not ch.isalpha()
    }


def tokenize(sql: str) -> list[Token]:
    text = sql if sql.isascii() else sql.translate(_stand_ins(sql))
    tokens: list[Token] = []
    for found in _TOKEN.finditer(text):
        kind = found.lastgroup
        if kind == "word":
            start, end = found.span(kind)
            word = sql[start:end]
            tokens.append(Token("word", word, start, "", word.upper()))
        elif kind in ("number", "op", "punct"):
            start, end = found.span(kind)
            tokens.append(Token(kind, sql[start:end], start))
        elif kind == "string":
            start, end = found.span(kind)
            tokens.append(Token("string", sql[start + 1 : end - 1].replace("''", "'"), end))
        elif kind == "qident":
            start, end = found.span(kind)
            quote, inner = sql[start], sql[start + 1 : end - 1]
            if quote != "[":
                inner = inner.replace(quote + quote, quote)
            tokens.append(Token("qident", inner, end, quote))
        elif kind == "odd":
            pos = found.start(kind)
            raise SqlSyntaxError(f"unexpected character {sql[pos]!r}", position=pos)
        elif kind == "bad":
            pos = found.start(kind)
            opening = sql[pos : pos + 2] if sql[pos] == "/" else sql[pos]
            message = _UNTERMINATED.get(opening, f"unterminated {opening}...{opening} literal")
            raise SqlSyntaxError(message, position=pos)
    tokens.append(Token("eof", "", len(sql)))
    return tokens


# -- AST ------------------------------------------------------------------


class Node:
    """Base class; children are discovered through dataclass fields."""

    # The fields that can hold nodes, in declaration order; set per class
    # below from the dataclass fields.
    _child_fields: tuple[str, ...] = ()

    def children(self) -> list["Node"]:
        out = []
        for name in self._child_fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        out.append(item)
                    elif isinstance(item, tuple):
                        out.extend(sub for sub in item if isinstance(sub, Node))
        return out


@dataclass
class NumberLit(Node):
    text: str


@dataclass
class StringLit(Node):
    value: str


@dataclass
class NullLit(Node):
    pass


@dataclass
class ColumnRef(Node):
    table: Optional[str]
    column: str
    table_quote: str = ""
    column_quote: str = ""


@dataclass
class Star(Node):
    table: Optional[str] = None
    table_quote: str = ""


@dataclass
class FuncCall(Node):
    name: str
    args: list = field(default_factory=list)
    distinct: bool = False
    star: bool = False


@dataclass
class Binary(Node):
    op: str
    left: Node
    right: Node


@dataclass
class Unary(Node):
    op: str
    operand: Node


@dataclass
class Paren(Node):
    expr: Node


@dataclass
class InExpr(Node):
    expr: Node
    items: Union[list, "Subquery"]
    negated: bool = False


@dataclass
class Between(Node):
    expr: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass
class IsNull(Node):
    expr: Node
    negated: bool = False


@dataclass
class Like(Node):
    op: str  # LIKE | GLOB
    expr: Node
    pattern: Node
    negated: bool = False
    escape: Optional[Node] = None


@dataclass
class Case(Node):
    operand: Optional[Node]
    whens: list  # [(condition, result), ...]
    else_: Optional[Node] = None


@dataclass
class Cast(Node):
    expr: Node
    type_name: str = "TEXT"


@dataclass
class Exists(Node):
    select: "Statement" = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class Subquery(Node):
    select: "Statement" = None  # type: ignore[assignment]


@dataclass
class SelectItem(Node):
    expr: Node
    alias: Optional[str] = None
    alias_quote: str = ""


@dataclass
class TableRef(Node):
    name: str
    alias: Optional[str] = None
    name_quote: str = ""
    alias_quote: str = ""


@dataclass
class SubquerySource(Node):
    select: "Statement" = None  # type: ignore[assignment]
    alias: Optional[str] = None
    alias_quote: str = ""


@dataclass
class Join(Node):
    join_type: str  # INNER | LEFT | CROSS | COMMA
    source: Node
    on: Optional[Node] = None
    using: Optional[list] = None  # list of (name, quote)


@dataclass
class OrderTerm(Node):
    expr: Node
    direction: Optional[str] = None  # ASC | DESC | None


@dataclass
class Cte(Node):
    name: str
    columns: list  # [(name, quote), ...]
    select: "Statement" = None  # type: ignore[assignment]


@dataclass
class Select(Node):
    distinct: bool = False
    items: list = field(default_factory=list)
    from_: Optional[Node] = None
    joins: list = field(default_factory=list)
    where: Optional[Node] = None
    group_by: list = field(default_factory=list)
    having: Optional[Node] = None
    order_by: list = field(default_factory=list)
    limit: Optional[Node] = None
    offset: Optional[Node] = None
    ctes: list = field(default_factory=list)


@dataclass
class Compound(Node):
    selects: list = field(default_factory=list)
    ops: list = field(default_factory=list)  # between consecutive selects
    order_by: list = field(default_factory=list)
    limit: Optional[Node] = None
    offset: Optional[Node] = None
    ctes: list = field(default_factory=list)


Statement = Union[Select, Compound]

# Text and flag fields never hold a node.
_LEAF_TYPES = {"str", "bool", "Optional[str]"}
for _cls in Node.__subclasses__():
    _cls._child_fields = tuple(f.name for f in fields(_cls) if f.type not in _LEAF_TYPES)

_SCOPES = (Subquery, Exists, SubquerySource, Cte)


def walk(node: Node, local: bool = False) -> Iterator[Node]:
    """Yield `node` and every descendant, subqueries included, in preorder.

    A node's children are read when the walk resumes after yielding it,
    so a caller may rewrite the node it was just given.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if node._child_fields and not (local and isinstance(node, _SCOPES)):
            stack.extend(reversed(node.children()))


def walk_local(node: Node) -> Iterator[Node]:
    """Like `walk` but does not descend into nested select scopes."""
    return walk(node, local=True)


def is_aggregate_call(node: Node) -> bool:
    return isinstance(node, FuncCall) and node.name.upper() in AGGREGATE_FUNCTIONS


def contains_aggregate(expr: Node) -> bool:
    """True if the expression aggregates in its own scope."""
    return any(is_aggregate_call(n) for n in walk_local(expr))


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        # Two more eof tokens, so `peek` may look two past the end.
        self.tokens = tokenize(sql)
        self.tokens += self.tokens[-1:] * 2
        self.i = 0

    # token helpers

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.i + offset]

    def advance(self) -> Token:
        token = self.tokens[self.i]
        if token.type != "eof":
            self.i += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, position=self.peek().pos)

    def at_word(self, *words: str) -> bool:
        # Only a word token has upper-cased text to match.
        return self.tokens[self.i].upper in words

    def take_word(self, *words: str) -> bool:
        if self.tokens[self.i].upper in words:
            self.i += 1
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.take_word(word):
            raise self.error(f"expected {word}, found {self.peek().text!r}")

    def at_punct(self, ch: str) -> bool:
        token = self.tokens[self.i]
        return token.type == "punct" and token.text == ch

    def take_punct(self, ch: str) -> bool:
        token = self.tokens[self.i]
        if token.type == "punct" and token.text == ch:
            self.i += 1
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.take_punct(ch):
            raise self.error(f"expected {ch!r}, found {self.peek().text!r}")

    def at_op(self, *ops: str) -> bool:
        token = self.tokens[self.i]
        return token.type == "op" and token.text in ops

    # identifiers

    def identifier(self) -> tuple[str, str]:
        token = self.peek()
        if token.type == "word":
            self.advance()
            return token.text, ""
        if token.type == "qident":
            self.advance()
            return token.text, token.quote
        raise self.error(f"expected identifier, found {token.text!r}")

    def _implicit_alias_ok(self) -> bool:
        token = self.peek()
        if token.type == "qident":
            return True
        return token.type == "word" and token.upper not in _CLAUSE_WORDS

    # statements

    def parse_statement(self) -> Statement:
        ctes: list[Cte] = []
        if self.take_word("WITH"):
            self.take_word("RECURSIVE")
            while True:
                name, _quote = self.identifier()
                columns: list[tuple[str, str]] = []
                if self.take_punct("("):
                    while True:
                        columns.append(self.identifier())
                        if not self.take_punct(","):
                            break
                    self.expect_punct(")")
                self.expect_word("AS")
                self.expect_punct("(")
                body = self.parse_statement()
                self.expect_punct(")")
                ctes.append(Cte(name=name, columns=columns, select=body))
                if not self.take_punct(","):
                    break
        selects = [self.parse_core()]
        ops: list[str] = []
        while self.at_word("UNION", "INTERSECT", "EXCEPT"):
            op = self.advance().upper
            if op == "UNION" and self.take_word("ALL"):
                op = "UNION ALL"
            ops.append(op)
            selects.append(self.parse_core())
        order_by, limit, offset = self.parse_order_limit()
        if len(selects) == 1:
            first = selects[0]
            first.order_by = order_by
            first.limit = limit
            first.offset = offset
            first.ctes = ctes
            return first
        return Compound(
            selects=selects, ops=ops, order_by=order_by,
            limit=limit, offset=offset, ctes=ctes,
        )

    def parse_core(self) -> Select:
        self.expect_word("SELECT")
        distinct = False
        if self.take_word("DISTINCT"):
            distinct = True
        else:
            self.take_word("ALL")
        items = [self.parse_select_item()]
        while self.take_punct(","):
            items.append(self.parse_select_item())
        from_: Optional[Node] = None
        joins: list[Join] = []
        if self.take_word("FROM"):
            from_ = self.parse_source()
            while True:
                if self.take_punct(","):
                    joins.append(Join("COMMA", self.parse_source()))
                    continue
                join_type = self._peek_join_type()
                if join_type is None:
                    break
                source = self.parse_source()
                on: Optional[Node] = None
                using: Optional[list] = None
                if self.take_word("ON"):
                    on = self.parse_expr()
                elif self.take_word("USING"):
                    self.expect_punct("(")
                    using = [self.identifier()]
                    while self.take_punct(","):
                        using.append(self.identifier())
                    self.expect_punct(")")
                joins.append(Join(join_type, source, on=on, using=using))
        where = self.parse_expr() if self.take_word("WHERE") else None
        group_by: list[Node] = []
        if self.take_word("GROUP"):
            self.expect_word("BY")
            group_by.append(self.parse_expr())
            while self.take_punct(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.take_word("HAVING") else None
        return Select(
            distinct=distinct,
            items=items,
            from_=from_,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
        )

    def _peek_join_type(self) -> Optional[str]:
        if self.take_word("JOIN"):
            return "INNER"
        if self.at_word("INNER") and self.peek(1).text.upper() == "JOIN":
            self.advance()
            self.advance()
            return "INNER"
        if self.at_word("CROSS") and self.peek(1).text.upper() == "JOIN":
            self.advance()
            self.advance()
            return "CROSS"
        for direction in ("LEFT", "RIGHT", "FULL"):
            if self.at_word(direction):
                nxt = self.peek(1).text.upper()
                if nxt == "JOIN":
                    self.advance()
                    self.advance()
                    return direction
                if nxt == "OUTER" and self.peek(2).text.upper() == "JOIN":
                    self.advance()
                    self.advance()
                    self.advance()
                    return direction
        return None

    def parse_order_limit(self):
        order_by: list[OrderTerm] = []
        if self.take_word("ORDER"):
            self.expect_word("BY")
            while True:
                expr = self.parse_expr()
                direction = None
                if self.take_word("ASC"):
                    direction = "ASC"
                elif self.take_word("DESC"):
                    direction = "DESC"
                order_by.append(OrderTerm(expr=expr, direction=direction))
                if not self.take_punct(","):
                    break
        limit = offset = None
        if self.take_word("LIMIT"):
            limit = self.parse_expr()
            if self.take_word("OFFSET"):
                offset = self.parse_expr()
            elif self.take_punct(","):
                # LIMIT skip, count
                offset = limit
                limit = self.parse_expr()
        return order_by, limit, offset

    def parse_select_item(self) -> SelectItem:
        if self.at_op("*"):
            self.advance()
            return SelectItem(expr=Star())
        expr = self.parse_expr()
        alias = None
        alias_quote = ""
        if self.take_word("AS"):
            alias, alias_quote = self.identifier()
        elif self._implicit_alias_ok():
            alias, alias_quote = self.identifier()
        return SelectItem(expr=expr, alias=alias, alias_quote=alias_quote)

    def parse_source(self) -> Node:
        if self.take_punct("("):
            if self.at_word("SELECT", "WITH"):
                sub = self.parse_statement()
                self.expect_punct(")")
                alias = None
                alias_quote = ""
                if self.take_word("AS"):
                    alias, alias_quote = self.identifier()
                elif self._implicit_alias_ok():
                    alias, alias_quote = self.identifier()
                return SubquerySource(select=sub, alias=alias, alias_quote=alias_quote)
            raise self.error("expected SELECT in parenthesized FROM source")
        name, quote = self.identifier()
        alias = None
        alias_quote = ""
        if self.take_word("AS"):
            alias, alias_quote = self.identifier()
        elif self._implicit_alias_ok():
            alias, alias_quote = self.identifier()
        return TableRef(name=name, alias=alias, name_quote=quote, alias_quote=alias_quote)

    # expressions

    def parse_expr(self) -> Node:
        return self.parse_or()

    def parse_or(self) -> Node:
        left = self.parse_and()
        while self.take_word("OR"):
            left = Binary("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Node:
        left = self.parse_not()
        while self.take_word("AND"):
            left = Binary("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Node:
        if self.at_word("NOT") and self.peek(1).text.upper() not in (
            "IN", "LIKE", "GLOB", "BETWEEN", "NULL",
        ):
            self.advance()
            return Unary("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Node:
        left = self.parse_arithmetic()
        while True:
            token = self.tokens[self.i]
            if token.type == "op" and token.text in _COMPARISONS:
                op = self.advance().text
                if op == "==":
                    op = "="
                left = Binary(op, left, self.parse_arithmetic())
                continue
            if token.upper not in _POSTFIX_WORDS:
                return left
            if self.at_word("IS"):
                self.advance()
                negated = self.take_word("NOT")
                if self.take_word("NULL"):
                    left = IsNull(expr=left, negated=negated)
                else:
                    left = Binary("IS NOT" if negated else "IS", left, self.parse_arithmetic())
                continue
            negated = False
            if self.at_word("NOT") and self.peek(1).text.upper() in (
                "IN", "LIKE", "GLOB", "BETWEEN",
            ):
                self.advance()
                negated = True
            if self.take_word("IN"):
                left = self._parse_in(left, negated)
                continue
            if self.at_word("LIKE", "GLOB"):
                op = self.advance().upper
                pattern = self.parse_arithmetic()
                escape = None
                if self.take_word("ESCAPE"):
                    escape = self.parse_arithmetic()
                left = Like(op=op, expr=left, pattern=pattern, negated=negated, escape=escape)
                continue
            if self.take_word("BETWEEN"):
                low = self.parse_arithmetic()
                self.expect_word("AND")
                high = self.parse_arithmetic()
                left = Between(expr=left, low=low, high=high, negated=negated)
                continue
            if negated:
                raise self.error("dangling NOT")
            return left

    def _parse_in(self, left: Node, negated: bool) -> InExpr:
        self.expect_punct("(")
        if self.at_word("SELECT", "WITH"):
            sub = self.parse_statement()
            self.expect_punct(")")
            return InExpr(expr=left, items=Subquery(select=sub), negated=negated)
        items: list[Node] = []
        if not self.at_punct(")"):
            items.append(self.parse_expr())
            while self.take_punct(","):
                items.append(self.parse_expr())
        self.expect_punct(")")
        return InExpr(expr=left, items=items, negated=negated)

    def parse_arithmetic(self, level: int = 0) -> Node:
        """Arithmetic and concatenation: operators of `level` and tighter,
        each level left-associative (precedence climbing)."""
        left = self.parse_unary()
        while True:
            token = self.tokens[self.i]
            tighter = _ARITHMETIC.get(token.text, -1) if token.type == "op" else -1
            if tighter < level:
                return left
            self.i += 1
            left = Binary(token.text, left, self.parse_arithmetic(tighter + 1))

    def parse_unary(self) -> Node:
        if self.at_op("-", "+"):
            op = self.advance().text
            return Unary(op, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Node:
        token = self.peek()
        if token.type == "punct" and token.text == "(":
            self.advance()
            if self.at_word("SELECT", "WITH"):
                sub = self.parse_statement()
                self.expect_punct(")")
                return Subquery(select=sub)
            expr = self.parse_expr()
            self.expect_punct(")")
            return Paren(expr=expr)
        if token.type == "string":
            self.advance()
            return StringLit(value=token.text)
        if token.type == "number":
            self.advance()
            return NumberLit(text=token.text)
        if token.type == "qident":
            self.advance()
            return self._column_tail(token.text, token.quote)
        if token.type == "word":
            upper = token.upper
            if upper == "NULL":
                self.advance()
                return NullLit()
            if upper == "NOT":
                # SQLite reads a NOT here, before NULL or after an operator,
                # as a prefix; read as a column it would be emitted wrong.
                raise self.error("NOT where an operand is expected")
            if upper == "CASE":
                return self._parse_case()
            if upper == "CAST":
                return self._parse_cast()
            if upper == "EXISTS":
                self.advance()
                self.expect_punct("(")
                sub = self.parse_statement()
                self.expect_punct(")")
                return Exists(select=sub)
            if self.peek(1).type == "punct" and self.peek(1).text == "(":
                return self._parse_func(token.text)
            self.advance()
            return self._column_tail(token.text, "")
        raise self.error(f"unexpected token {token.text!r}")

    def _column_tail(self, name: str, quote: str) -> Node:
        if self.take_punct("."):
            if self.at_op("*"):
                self.advance()
                return Star(table=name, table_quote=quote)
            column, column_quote = self.identifier()
            return ColumnRef(
                table=name, column=column, table_quote=quote, column_quote=column_quote
            )
        return ColumnRef(table=None, column=name, column_quote=quote)

    def _parse_func(self, name: str) -> FuncCall:
        self.advance()  # name
        self.advance()  # (
        distinct = self.take_word("DISTINCT")
        if self.at_op("*"):
            self.advance()
            self.expect_punct(")")
            return FuncCall(name=name, star=True)
        args: list[Node] = []
        if not self.at_punct(")"):
            args.append(self.parse_expr())
            while self.take_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
        return FuncCall(name=name, args=args, distinct=distinct)

    def _parse_case(self) -> Case:
        self.expect_word("CASE")
        operand = None
        if not self.at_word("WHEN"):
            operand = self.parse_expr()
        whens: list[tuple[Node, Node]] = []
        while self.take_word("WHEN"):
            condition = self.parse_expr()
            self.expect_word("THEN")
            whens.append((condition, self.parse_expr()))
        if not whens:
            raise self.error("CASE without WHEN")
        else_ = None
        if self.take_word("ELSE"):
            else_ = self.parse_expr()
        self.expect_word("END")
        return Case(operand=operand, whens=whens, else_=else_)

    def _parse_cast(self) -> Cast:
        self.expect_word("CAST")
        self.expect_punct("(")
        expr = self.parse_expr()
        self.expect_word("AS")
        words = [self.identifier()[0]]
        while self.peek().type == "word" and not self.at_punct(")"):
            words.append(self.advance().text)
        if self.take_punct("("):
            # precision suffix like VARCHAR(20); keep it textual
            precision = []
            while not self.at_punct(")"):
                precision.append(self.advance().text)
            self.expect_punct(")")
            words[-1] += "(" + ", ".join(precision) + ")"
        self.expect_punct(")")
        return Cast(expr=expr, type_name=" ".join(words))


def parse_select(sql: str) -> Statement:
    """Parse one SELECT statement (trailing semicolon tolerated)."""
    parser = _Parser(sql)
    statement = parser.parse_statement()
    parser.take_punct(";")
    if parser.peek().type != "eof":
        raise parser.error(f"trailing input {parser.peek().text!r}")
    return statement


# -- emitter --------------------------------------------------------------


def _quote_text(name: str, quote: str) -> str:
    if quote == "`":
        return "`" + name.replace("`", "``") + "`"
    if quote == '"':
        return '"' + name.replace('"', '""') + '"'
    if quote == "[":
        return "[" + name + "]"
    return name


def emit(node: Node) -> str:
    """Canonical single-line SQL for a parsed tree."""
    return _emit(node)


def _emit(node: Node) -> str:
    # The commonest nodes first.
    if isinstance(node, ColumnRef):
        column = _quote_text(node.column, node.column_quote)
        if node.table is None:
            return column
        return _quote_text(node.table, node.table_quote) + "." + column
    if isinstance(node, Binary):
        return f"{_emit(node.left)} {node.op} {_emit(node.right)}"
    if isinstance(node, StringLit):
        return "'" + node.value.replace("'", "''") + "'"
    if isinstance(node, NumberLit):
        return node.text
    if isinstance(node, SelectItem):
        out = _emit(node.expr)
        if node.alias:
            out += f" AS {_quote_text(node.alias, node.alias_quote)}"
        return out
    if isinstance(node, TableRef):
        out = _quote_text(node.name, node.name_quote)
        if node.alias:
            out += f" AS {_quote_text(node.alias, node.alias_quote)}"
        return out
    if isinstance(node, Join):
        source = _emit(node.source)
        if node.join_type == "COMMA":
            return f", {source}"
        out = f"{node.join_type} JOIN {source}"
        if node.on is not None:
            out += f" ON {_emit(node.on)}"
        elif node.using:
            names = ", ".join(_quote_text(n, q) for n, q in node.using)
            out += f" USING ({names})"
        return out
    if isinstance(node, FuncCall):
        if node.star:
            return f"{node.name}(*)"
        inner = ", ".join(_emit(a) for a in node.args)
        if node.distinct:
            inner = "DISTINCT " + inner
        return f"{node.name}({inner})"
    if isinstance(node, Select):
        return _emit_select(node)
    if isinstance(node, OrderTerm):
        out = _emit(node.expr)
        if node.direction:
            out += f" {node.direction}"
        return out
    if isinstance(node, NullLit):
        return "NULL"
    if isinstance(node, Star):
        if node.table is None:
            return "*"
        return _quote_text(node.table, node.table_quote) + ".*"
    if isinstance(node, Unary):
        if node.op.upper() == "NOT":
            return f"NOT {_emit(node.operand)}"
        operand = _emit(node.operand)
        # "- -a" glued would read "--a", which starts a comment.
        gap = " " if operand.startswith(("-", "+")) else ""
        return f"{node.op}{gap}{operand}"
    if isinstance(node, Paren):
        return f"({_emit(node.expr)})"
    if isinstance(node, InExpr):
        keyword = "NOT IN" if node.negated else "IN"
        if isinstance(node.items, Subquery):
            return f"{_emit(node.expr)} {keyword} {_emit(node.items)}"
        inner = ", ".join(_emit(item) for item in node.items)
        return f"{_emit(node.expr)} {keyword} ({inner})"
    if isinstance(node, Between):
        keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
        return f"{_emit(node.expr)} {keyword} {_emit(node.low)} AND {_emit(node.high)}"
    if isinstance(node, IsNull):
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{_emit(node.expr)} {keyword}"
    if isinstance(node, Like):
        keyword = f"NOT {node.op}" if node.negated else node.op
        out = f"{_emit(node.expr)} {keyword} {_emit(node.pattern)}"
        if node.escape is not None:
            out += f" ESCAPE {_emit(node.escape)}"
        return out
    if isinstance(node, Case):
        parts = ["CASE"]
        if node.operand is not None:
            parts.append(_emit(node.operand))
        for condition, result in node.whens:
            parts.append(f"WHEN {_emit(condition)} THEN {_emit(result)}")
        if node.else_ is not None:
            parts.append(f"ELSE {_emit(node.else_)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, Cast):
        return f"CAST({_emit(node.expr)} AS {node.type_name})"
    if isinstance(node, Exists):
        keyword = "NOT EXISTS" if node.negated else "EXISTS"
        return f"{keyword} ({_emit(node.select)})"
    if isinstance(node, Subquery):
        return f"({_emit(node.select)})"
    if isinstance(node, SubquerySource):
        out = f"({_emit(node.select)})"
        if node.alias:
            out += f" AS {_quote_text(node.alias, node.alias_quote)}"
        return out
    if isinstance(node, Cte):
        out = _quote_text(node.name, "")
        if node.columns:
            out += "(" + ", ".join(_quote_text(n, q) for n, q in node.columns) + ")"
        return f"{out} AS ({_emit(node.select)})"
    if isinstance(node, Compound):
        return _emit_compound(node)
    raise TypeError(f"cannot emit node of type {type(node).__name__}")


def _emit_select(node: Select) -> str:
    parts: list[str] = []
    if node.ctes:
        parts.append("WITH " + ", ".join(_emit(c) for c in node.ctes))
    head = "SELECT DISTINCT" if node.distinct else "SELECT"
    parts.append(head + " " + ", ".join(_emit(item) for item in node.items))
    if node.from_ is not None:
        clause = "FROM " + _emit(node.from_)
        for join in node.joins:
            rendered = _emit(join)
            clause += rendered if rendered.startswith(",") else " " + rendered
        parts.append(clause)
    if node.where is not None:
        parts.append("WHERE " + _emit(node.where))
    if node.group_by:
        parts.append("GROUP BY " + ", ".join(_emit(g) for g in node.group_by))
    if node.having is not None:
        parts.append("HAVING " + _emit(node.having))
    parts.append(_emit_order_limit(node.order_by, node.limit, node.offset))
    return " ".join(p for p in parts if p)


def _emit_compound(node: Compound) -> str:
    parts: list[str] = []
    if node.ctes:
        parts.append("WITH " + ", ".join(_emit(c) for c in node.ctes))
    body = _emit(node.selects[0])
    for op, select in zip(node.ops, node.selects[1:]):
        body += f" {op} {_emit(select)}"
    parts.append(body)
    parts.append(_emit_order_limit(node.order_by, node.limit, node.offset))
    return " ".join(p for p in parts if p)


def _emit_order_limit(order_by, limit, offset) -> str:
    parts = []
    if order_by:
        parts.append("ORDER BY " + ", ".join(_emit(t) for t in order_by))
    if limit is not None:
        clause = "LIMIT " + _emit(limit)
        if offset is not None:
            clause += " OFFSET " + _emit(offset)
        parts.append(clause)
    return " ".join(parts)
