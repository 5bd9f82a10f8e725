"""Consistency alignment: AST rewrites applied to every generated SQL.

Generated SQL drifts from the question and the database in three
recurring ways, each with its own rewrite pass:

* `agent_align` reconciles string literals with what the database
  actually stores ('John' when the cell says 'JOHN'), moving a predicate
  to a sibling column when only that column holds the value;
* `function_align` repairs aggregate misuse: an aggregate in ORDER BY
  with no GROUP BY, aggregates nested inside aggregates, and joins that
  contribute nothing to the result;
* `style_align` nudges the query toward the answer style the benchmarks
  grade: ORDER BY + LIMIT instead of bare MAX/MIN, and NULL guards on
  ranking columns so LIMIT never picks a NULL row.

All passes edit the tree in place and are idempotent: re-running
`align_all` on its own output returns it unchanged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from .schema import SchemaCatalog, TableDef
from .sql_ast import (
    Binary,
    ColumnRef,
    Compound,
    FuncCall,
    IsNull,
    Join,
    Like,
    Node,
    NumberLit,
    OrderTerm,
    Paren,
    Select,
    SelectItem,
    SqlSyntaxError,
    Star,
    StringLit,
    Statement,
    TableRef,
    contains_aggregate,
    emit,
    is_aggregate_call,
    parse_select,
    walk,
    walk_local,
)
from .value_index import RetrievalConfig, ValueIndex


@dataclass
class AlignmentContext:
    catalog: SchemaCatalog
    index: Optional[ValueIndex] = None
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)


@dataclass
class AlignmentOutcome:
    sql_in: str
    sql_out: str
    changed: bool
    flags: list[str]


# -- scope helpers --------------------------------------------------------


def _sources(select: Select) -> list[Node]:
    head = [] if select.from_ is None else [select.from_]
    return head + [join.source for join in select.joins]


def _scope_tables(select: Select, catalog: SchemaCatalog, count=None) -> dict[str, TableDef]:
    """Map every usable prefix (alias or table name, lowered) to its table,
    in the first `count` sources only when given, as an ON clause sees them."""
    scope: dict[str, TableDef] = {}
    seen: set[str] = set()
    for source in _sources(select)[:count]:
        if isinstance(source, TableRef):
            prefix = (source.alias or source.name).casefold()
            table = catalog.resolve_table(source.name)
            if prefix in seen:
                scope.pop(prefix, None)  # a prefix two sources share names neither
            elif table is not None:
                scope[prefix] = table
            seen.add(prefix)
    return scope


def _local_exprs(select: Select) -> list[Node]:
    """Expression roots belonging to this select's own scope."""
    ons = [join.on for join in select.joins]
    roots = (*select.items, *ons, select.where, *select.group_by, select.having, *select.order_by)
    return [root for root in roots if root is not None]


def _resolve_ref(
    ref: ColumnRef, scope: dict[str, TableDef], catalog: SchemaCatalog
) -> Optional[tuple[TableDef, str]]:
    """Resolve a column reference against the select's FROM scope."""
    if ref.table is not None:
        table = scope.get(ref.table.casefold())
        if table is None:
            # A prefix can also name a table not aliased in scope maps
            # (correlated outer reference); fall back to the catalog.
            table = catalog.resolve_table(ref.table)
        if table is None:
            return None
        col = table.column(ref.column)
        return (table, col.name) if col is not None else None
    matches = [(t, col.name) for t in _distinct_tables(scope) if (col := t.column(ref.column))]
    return matches[0] if len(matches) == 1 else None


def _distinct_tables(scope: dict[str, TableDef]) -> list[TableDef]:
    # The catalog holds one object per table, so identity tells them apart.
    return list({id(t): t for t in scope.values()}.values())


def _selects(statement: Statement) -> list[Select]:
    """Every Select node in the tree, outermost first."""
    return [node for node in walk(statement) if isinstance(node, Select)]


# -- agent alignment ------------------------------------------------------


def _string_predicates(select: Select) -> list[tuple[Node, ColumnRef, StringLit]]:
    """(root, column, literal) for `col = 'text'` and wildcard-free LIKE."""
    out = []
    for root in _local_exprs(select):
        for node in walk_local(root):
            if isinstance(node, Binary) and node.op == "=":
                for ref, literal in ((node.left, node.right), (node.right, node.left)):
                    if isinstance(ref, ColumnRef) and isinstance(literal, StringLit):
                        out.append((root, ref, literal))
            elif (
                isinstance(node, Like)
                and node.op == "LIKE"
                and not node.negated
                and isinstance(node.expr, ColumnRef)
                and isinstance(node.pattern, StringLit)
                and "%" not in node.pattern.value
                and "_" not in node.pattern.value
            ):
                out.append((root, node.expr, node.pattern))
    return out


def _same_column_value(
    ctx: AlignmentContext, table: str, column: str, literal: str
) -> Optional[str]:
    """The column's stored spelling of `literal`: exact, then case-blind, then nearest.

    A case-blind match wins before the similarity search, because a
    stored single word can tie with the true cell there ('York' for
    'new york' when 'New York' is stored too).
    """
    spelling = ctx.index.stored_spelling(table, column, literal)
    if spelling is not None:
        return spelling
    hits = ctx.index.search_values(literal, ctx.retrieval, restrict=(table, column))
    return hits[0].text if hits else None


def agent_align(statement: Statement, ctx: AlignmentContext, selects=None) -> list[str]:
    """Rewrite string predicates to match stored cell spellings."""
    if ctx.index is None:
        return []
    flags: list[str] = []
    for select in selects or _selects(statement):
        scope = _scope_tables(select, ctx.catalog)
        for root, ref, literal in _string_predicates(select):
            resolved = _resolve_ref(ref, scope, ctx.catalog)
            if resolved is None:
                continue
            table, column = resolved[0].name, resolved[1]
            replacement = _same_column_value(ctx, table, column, literal.value)
            if replacement is not None:
                if replacement != literal.value:
                    flags.append(
                        f"value_replaced:{table}.{column}:"
                        f"{literal.value!r}->{replacement!r}"
                    )
                    literal.value = replacement
                continue
            # The value lives somewhere else: remap the column only when
            # the other table already participates in this FROM clause,
            # and in an ON clause, joins before it.
            visible = scope
            for count, join in enumerate(select.joins, start=2):
                if join.on is root:
                    visible = _scope_tables(select, ctx.catalog, count)
            for hit in ctx.index.search_values(literal.value, ctx.retrieval):
                prefix = _prefix_for_table(visible, ctx.catalog.resolve_table(hit.table))
                if prefix is None:
                    continue
                flags.append(
                    f"column_remapped:{table}.{column}->"
                    f"{hit.table}.{hit.column}:{hit.text!r}"
                )
                ref.table = prefix
                ref.table_quote = ""
                ref.column = hit.column
                ref.column_quote = ""
                literal.value = hit.text
                break
            else:
                flags.append(f"value_unmatched:{table}.{column}:{literal.value!r}")
    return flags


def _prefix_for_table(scope: dict[str, TableDef], table: Optional[TableDef]) -> Optional[str]:
    for prefix, candidate in scope.items():
        if candidate is table:
            # Prefer the alias spelling actually used in FROM.
            return prefix if prefix != table.name.casefold() else table.name
    return None


# -- function alignment ---------------------------------------------------


def _group_by_targets(select: Select) -> list[ColumnRef]:
    """Plain column refs among select items, for an introduced GROUP BY."""
    items = select.items
    return [i.expr for i in items if isinstance(i, SelectItem) and isinstance(i.expr, ColumnRef)]


def function_align(statement: Statement, ctx: AlignmentContext, selects=None) -> list[str]:
    """Repair aggregate misuse and drop joins that change nothing."""
    flags: list[str] = []
    # Innermost first: a join a subquery drops is no longer a use of the
    # outer table when the outer select is checked.
    for select in reversed(selects or _selects(statement)):
        flags.extend(_fix_order_by_aggregate(select))
        flags.extend(_fix_nested_aggregates(select))
        flags.extend(_drop_redundant_joins(select, ctx.catalog))
    return flags


def _fix_order_by_aggregate(select: Select) -> list[str]:
    if select.group_by or not select.order_by:
        return []
    if not any(contains_aggregate(term.expr) for term in select.order_by):
        return []
    targets = _group_by_targets(select)
    if not targets:
        return []
    flags = []
    for term in select.order_by:
        if (
            is_aggregate_call(term.expr)
            and len(term.expr.args) == 1
            # A bare number in ORDER BY names a result column.
            and not isinstance(term.expr.args[0], NumberLit)
        ):
            inner = term.expr.args[0]
            flags.append(f"order_aggregate_unwrapped:{term.expr.name.upper()}")
            term.expr = inner
    if not flags:
        return []
    select.group_by = [copy.deepcopy(ref) for ref in targets]
    flags.append("group_by_introduced")
    return flags


def _fix_nested_aggregates(select: Select) -> list[str]:
    flags = []
    changed = True
    while changed:
        changed = False
        for root in _local_exprs(select):
            for node in walk_local(root):
                if not is_aggregate_call(node) or len(node.args) != 1:
                    continue
                inner = node.args[0]
                if is_aggregate_call(inner):
                    # Keep the inner call; the outer wrapper cannot
                    # legally apply twice in one scope.
                    flags.append(
                        f"nested_aggregate_unwrapped:"
                        f"{node.name.upper()}({inner.name.upper()})"
                    )
                    node.name = inner.name
                    node.distinct = inner.distinct
                    node.star = inner.star
                    node.args = inner.args
                    changed = True
    return flags


def _join_fk_pair(
    join: Join, scope: dict[str, TableDef], catalog: SchemaCatalog
) -> Optional[tuple[TableDef, str, TableDef]]:
    """(kept table, kept fk column, removed table).

    Returns the orientation in which `join.source` is the referenced,
    unique side of a declared foreign key, or None.
    """
    if not isinstance(join.source, TableRef) or join.on is None:
        return None
    removed = catalog.resolve_table(join.source.name)
    if removed is None:
        return None
    on = join.on
    while isinstance(on, Paren):
        on = on.expr
    if not (
        isinstance(on, Binary)
        and on.op == "="
        and isinstance(on.left, ColumnRef)
        and isinstance(on.right, ColumnRef)
    ):
        return None
    left = _resolve_ref(on.left, scope, catalog)
    right = _resolve_ref(on.right, scope, catalog)
    if left is None or right is None:
        return None
    # The catalog holds one object per table and per column, so identity
    # compares names.
    if left[0] is removed and right[0] is not removed:
        (kept_table, kept_col), removed_col = right, left[1]
    elif right[0] is removed and left[0] is not removed:
        (kept_table, kept_col), removed_col = left, right[1]
    else:
        return None
    key = removed.column(removed_col)
    if len(removed.primary_key) != 1 or removed.column(removed.primary_key[0]) is not key:
        return None
    for remote in kept_table.references(kept_col):
        rt, _, rc = remote.partition(".")
        if catalog.resolve_table(rt) is removed and removed.column(rc) is key:
            return kept_table, kept_col, removed
    return None


def _drop_redundant_joins(select: Select, catalog: SchemaCatalog) -> list[str]:
    flags = []
    changed = True
    while changed:
        changed = False
        scope = _scope_tables(select, catalog)
        for join in list(select.joins):
            if join.join_type not in ("INNER", "LEFT"):
                continue
            pair = _join_fk_pair(join, scope, catalog)
            if pair is None:
                continue
            kept_table, kept_col, removed = pair
            if join.join_type == "INNER":
                col = kept_table.column(kept_col)
                if col is None or not col.not_null:
                    continue
            prefix = join.source.alias or join.source.name
            if _table_referenced_elsewhere(select, join, prefix, removed):
                continue
            select.joins.remove(join)
            flags.append(f"redundant_join_removed:{removed.name}")
            changed = True
            break
    return flags


def _table_referenced_elsewhere(select: Select, join: Join, prefix: str, removed: TableDef) -> bool:
    prefix = prefix.casefold()
    for root in [r for r in _local_exprs(select) if r is not join.on]:
        # Subqueries count too: a correlated one may name the table, and
        # a bare name or star there is taken as a use of it.
        for node in walk(root):
            if not isinstance(node, (Star, ColumnRef)):
                continue
            if node.table is not None:
                if node.table.casefold() == prefix:
                    return True
            # A bare column that exists on the removed table may bind to
            # it, even where another table in scope has the name too.
            elif isinstance(node, Star) or removed.column(node.column) is not None:
                return True
    return False


# -- style alignment ------------------------------------------------------


def style_align(statement: Statement, ctx: AlignmentContext, selects=None) -> list[str]:
    """Prefer ORDER BY + LIMIT to bare MAX/MIN, and guard ranking columns."""
    flags: list[str] = []
    for select in selects or _selects(statement):
        flags.extend(_rewrite_minmax_to_limit(select, statement, ctx.catalog))
        flags.extend(_guard_order_columns(select, ctx.catalog))
    return flags


def _binds_locally(ref: ColumnRef, select: Select, catalog: SchemaCatalog) -> bool:
    """True where `ref` names a column of a catalog table in this select's FROM."""
    scope = _scope_tables(select, catalog)
    tables = scope.values() if ref.table is None else [scope.get(ref.table.casefold())]
    return any(table is not None and table.column(ref.column) for table in tables)


def _rewrite_minmax_to_limit(
    select: Select, statement: Statement, catalog: SchemaCatalog
) -> list[str]:
    if (
        len(select.items) != 1
        or select.distinct
        or select.group_by
        or select.having is not None
        or select.order_by
        or select.limit is not None
        or select.from_ is None
    ):
        return []
    item = select.items[0]
    expr = item.expr
    if not (
        is_aggregate_call(expr)
        and expr.name.upper() in ("MAX", "MIN")
        and not expr.star
        and not expr.distinct
        and len(expr.args) == 1
        and isinstance(expr.args[0], ColumnRef)
        # MAX of an outer column aggregates the outer select, and a
        # subquery or CTE source cannot be checked.
        and _binds_locally(expr.args[0], select, catalog)
    ):
        return []
    compounds = (node for node in walk(statement) if isinstance(node, Compound))
    if any(member is select for node in compounds for member in node.selects):
        return []  # a compound's member may not have its own ORDER BY or LIMIT
    column = expr.args[0]
    direction = "DESC" if expr.name.upper() == "MAX" else "ASC"
    item.expr = column
    select.order_by = [OrderTerm(expr=copy.deepcopy(column), direction=direction)]
    select.limit = NumberLit("1")
    return [f"minmax_rewritten:{direction}"]


def _conjuncts(expr: Optional[Node]) -> list[Node]:
    if expr is None:
        return []
    while isinstance(expr, Paren):
        expr = expr.expr
    if isinstance(expr, Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _has_null_guard(select: Select, column: str) -> bool:
    return any(
        isinstance(c, IsNull) and c.negated and isinstance(c.expr, ColumnRef)
        and c.expr.column.casefold() == column.casefold()
        for c in _conjuncts(select.where)
    )


def _guard_order_columns(select: Select, catalog: SchemaCatalog) -> list[str]:
    if not select.order_by or select.limit is None:
        return []
    scope = _scope_tables(select, catalog)
    flags = []
    guarded: set[tuple[str, str]] = set()
    for term in select.order_by:
        if not isinstance(term.expr, ColumnRef):
            continue
        resolved = _resolve_ref(term.expr, scope, catalog)
        if resolved is None:
            continue
        table, column_name = resolved
        if term.expr.table is None and (
            # A bare name is guarded only where it names a column of one
            # source, and no subquery or CTE source may hold it.
            len(scope) < len(_sources(select))
            or sum(t.column(column_name) is not None for t in scope.values()) > 1
        ):
            continue
        column = table.column(column_name)
        if column is None or column.not_null:
            continue
        key = (table.name.casefold(), column_name.casefold())
        if key in guarded or _has_null_guard(select, column_name):
            continue
        guard = IsNull(expr=copy.deepcopy(term.expr), negated=True)
        if select.where is None:
            select.where = guard
        else:
            old = select.where
            if isinstance(old, Binary) and old.op == "OR":
                old = Paren(expr=old)
            select.where = Binary("AND", old, guard)
        guarded.add(key)
        flags.append(f"null_guard_added:{table.name}.{column_name}")
    return flags


# -- driver ---------------------------------------------------------------


def align_statement(sql: str, ctx: AlignmentContext) -> AlignmentOutcome:
    """Parse, run all three passes, emit canonically.

    SQL the parser cannot read is returned untouched with an
    "unparseable" flag; alignment never turns working SQL into broken
    SQL just because it could not be analyzed.
    """
    try:
        statement = parse_select(sql)
    except SqlSyntaxError:
        return AlignmentOutcome(sql_in=sql, sql_out=sql, changed=False, flags=["unparseable"])
    # One list serves all three passes, because no pass adds or removes a
    # select: they rewrite literals and names, put a column, part of an
    # expression or a new predicate on a column where an expression was,
    # and drop only joins whose ON compares two columns.
    selects = _selects(statement)
    flags = (
        agent_align(statement, ctx, selects)
        + function_align(statement, ctx, selects)
        + style_align(statement, ctx, selects)
    )
    sql_out = emit(statement)
    return AlignmentOutcome(sql_in=sql, sql_out=sql_out, changed=sql_out != sql, flags=flags)


def align_all(sql: str, ctx: AlignmentContext) -> str:
    return align_statement(sql, ctx).sql_out
