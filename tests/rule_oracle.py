"""MemoryChecker and FlowControlChecker as they ran before the rules kept
state across ``visit`` and ``leave`` calls, and IdentifierChecker as it ran
before it keyed the table's variables by scope, kept as the references the
rules are compared against.

Each checker here walks a subtree again inside ``visit``: MemoryChecker
the body of each function, without descending into local classes, and
FlowControlChecker the body of each loop, without descending into nested
loops and switches. MemoryChecker looks the name an assignment stores to up
from the innermost block or ``for`` scope around the assignment, as the
rule does. IdentifierChecker tests every pair of variables with the same normalised name
for ancestry in both directions and gives the finding to the deeper one, or
to the later one of a pair in one scope. All three keep the rules' ids, so
their findings compare equal.
"""

from __future__ import annotations

from cglint.core import Rule
from cglint.rules import cpp
from cglint.rules.cpp import _BREAKABLE, _is_nonlocal_target, _normalize, _sub, _var_label


class FlowControlChecker(Rule):
    descriptor = cpp.FlowControlChecker.descriptor._replace(
        subscriptions=_sub("GotoStmt", "LabelStmt", "WhileStmt", "DoStmt", "ForStmt"),
    )

    def visit(self, node, ctx):
        if node.kind == "GotoStmt":
            ctx.report(node.span, "'goto' statement used.")
        elif node.kind == "LabelStmt":
            ctx.report(node.span, "Label %r declared." % node.attr("name"))
        elif node.children:
            # a do statement's body comes before its condition
            body = node.children[0 if node.kind == "DoStmt" else -1]
            for brk in _direct_breaks(body):
                ctx.report(brk.span, "'break' used to leave a loop.")


def _direct_breaks(node):
    """Break statements whose nearest enclosing breakable is the caller."""
    found = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.kind == "BreakStmt":
            found.append(current)
            continue
        if current.kind in _BREAKABLE:
            continue
        stack.extend(reversed(current.children))
    return found


class MemoryChecker(Rule):
    descriptor = cpp.MemoryChecker.descriptor._replace(
        subscriptions=_sub("FunctionDef", "Constructor", "Destructor"),
    )

    def visit(self, node, ctx):
        body = next((c for c in node.children if c.kind == "CompoundStmt"), None)
        if body is None:
            return
        allocs = {}  # variable name -> (is array allocation, span)
        deletes = {}  # variable name -> set of array flags
        escaped = set()

        for sub, scope in _function_body_nodes(body, ctx.table):
            if sub.kind == "VarDecl":
                new_expr = next((c for c in sub.children if c.kind == "NewExpr"), None)
                if new_expr is not None:
                    allocs[sub.attr("name")] = (new_expr.attr("array", False), sub.span)
            elif sub.kind == "AssignExpr" and len(sub.children) == 2:
                lhs, rhs = sub.children
                if rhs.kind == "NewExpr" and lhs.kind == "IdentExpr":
                    allocs.setdefault(lhs.attr("name"), (rhs.attr("array", False), sub.span))
                if rhs.kind == "IdentExpr" and _is_nonlocal_target(lhs, scope):
                    escaped.add(rhs.attr("name"))
            elif sub.kind == "DeleteExpr" and sub.children:
                operand = sub.children[0]
                if operand.kind == "IdentExpr":
                    deletes.setdefault(operand.attr("name"), set()).add(sub.attr("array", False))
            elif sub.kind == "ReturnStmt" and sub.children:
                value = sub.children[0]
                if value.kind == "IdentExpr":
                    escaped.add(value.attr("name"))

        for name, (is_array, span) in allocs.items():
            if name in escaped:
                continue
            freed = deletes.get(name)
            if not freed:
                ctx.report(span, "Variable %r is allocated with new but never freed." % name)
            elif is_array not in freed:
                ctx.report(
                    span,
                    "Variable %r is freed with the wrong delete form "
                    "(new[] pairs with delete[])." % name,
                )


def _function_body_nodes(body, table):
    """Each node of ``body`` in pre-order, with the scope of its innermost
    enclosing block or ``for`` statement (its own, for those); local class
    definitions are not descended into."""
    stack = [(body, None)]
    while stack:
        node, scope = stack.pop()
        if node.kind in ("CompoundStmt", "ForStmt"):
            scope = table.scope_of(node)
        yield node, scope
        for child in reversed(node.children):
            if child.kind != "ClassDef":
                stack.append((child, scope))


class IdentifierChecker(Rule):
    descriptor = cpp.IdentifierChecker.descriptor

    def finish(self, ctx):
        variables = ctx.table.variables
        keys = [_normalize(v.name) for v in variables]
        buckets = {}  # normalised name -> indices into variables, ascending
        for j, key in enumerate(keys):
            buckets.setdefault(key, []).append(j)
        for i, inner in enumerate(variables):
            for j in buckets[keys[i]]:
                if i == j:
                    continue
                other = variables[j]
                if not (_encloses(inner.scope, other.scope) or _encloses(other.scope, inner.scope)):
                    continue
                if not _reports_here(inner, other, i, j):
                    continue
                similar = '"%s : %s"' % (other.name, other.declared_type)
                if other.is_member:
                    similar = "instance variable " + similar
                ctx.report(
                    inner.decl_span,
                    '%s "%s" is named similar to %s.'
                    % (_var_label(inner), inner.name, similar),
                )


def _encloses(outer, scope):
    """True iff ``outer`` is ``scope`` or one of its ancestors."""
    while scope is not None:
        if scope is outer:
            return True
        scope = scope.parent
    return False


def _depth(scope):
    depth = 0
    while scope is not None:
        depth += 1
        scope = scope.parent
    return depth


def _reports_here(inner, other, i, j):
    """The finding goes to the inner binding; to the later one on ties."""
    d_inner, d_other = _depth(inner.scope), _depth(other.scope)
    if d_inner != d_other:
        return d_inner > d_other
    return i > j


ORACLES = {cls.descriptor.id: cls for cls in (FlowControlChecker, IdentifierChecker, MemoryChecker)}
