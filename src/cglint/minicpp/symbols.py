"""Symbol workflow for the C++ subset: builds the full scope tree and the
class/function/variable bindings that rules query.

A namespace, a class that is not a forward declaration, a function,
constructor or destructor, a compound statement and a ``for`` statement
each open a scope, recorded in the table against the node (the blocks of a
namespace share one); a class, a function, a named variable or parameter, a
typedef and a named enum each declare a binding, recorded against its node
(a class's declarations share one). Expressions are not walked.
"""

from __future__ import annotations

from ..symtab import (
    ClassBinding,
    FunctionBinding,
    ScopeKind,
    Specifier,
    SymbolTable,
    TypeBinding,
    VariableBinding,
)

_ACCESS = {
    "public": Specifier.PUBLIC,
    "protected": Specifier.PROTECTED,
    "private": Specifier.PRIVATE,
}

# Expression subtrees hold only expressions and declare nothing, so the walk
# stops at them. Operator chains are not limited by the parser's nesting
# count, so walking into one could exceed the interpreter's recursion limit.
_EXPRESSIONS = frozenset((
    "AssignExpr", "BinaryExpr", "UnaryExpr", "CallExpr", "MemberExpr",
    "NewExpr", "DeleteExpr", "ParenExpr", "IdentExpr", "Literal",
))


def build_minicpp_symbols(unit):
    table = SymbolTable()
    _walk_children(unit, table, table.global_scope)
    return table


def _walk_children(node, table, scope):
    for child in node.children:
        _walk(child, table, scope)


def _walk(node, table, scope):
    kind = node.kind
    if kind in _EXPRESSIONS:
        return
    if kind == "NamespaceDef":
        inner = table.open_scope(ScopeKind.NAMESPACE, node.attr("name"), scope, node)
        _walk_children(node, table, inner)
    elif kind == "ClassDef":
        _walk_class(node, table, scope)
    elif kind in ("FunctionDef", "Constructor", "Destructor"):
        _walk_function(node, table, scope, access=None)
    elif kind == "CompoundStmt":
        _walk_children(node, table, table.open_scope(ScopeKind.BLOCK, None, scope, node))
    elif kind == "ForStmt":
        # the loop header introduces its own scope for the index variable
        inner = table.open_scope(ScopeKind.BLOCK, None, scope, node)
        for child in node.children:
            if child.kind == "VarDecl":
                _declare_variable(child, table, inner, is_loop_index=True)
            else:
                _walk(child, table, inner)
    elif kind == "VarDecl":
        _declare_variable(node, table, scope)
    elif kind in ("TypedefDecl", "EnumDef"):
        # an enum's enumerators hold only expressions
        if node.attr("name"):
            table.declare(scope, TypeBinding(node.attr("name")), node)
    else:
        _walk_children(node, table, scope)


def _declare_variable(node, table, scope, **flags):
    """Declare a VarDecl or ParamDecl; an unnamed parameter is not declared.
    The node's children are expressions, which declare nothing."""
    binding = VariableBinding(
        name=node.attr("name"),
        declared_type=node.attr("type"),
        has_initializer=node.attr("has_init", False),
        is_member=scope.kind is ScopeKind.CLASS,
        decl_span=node.span,
        **flags,
    )
    if binding.name:
        table.declare(scope, binding, node)
    return binding


def _walk_class(node, table, scope):
    binding = scope.lookup_local(node.attr("name"))
    if not isinstance(binding, ClassBinding):
        binding = ClassBinding(name=node.attr("name"))
    table.declare(scope, binding, node)
    if node.attr("forward"):
        return
    binding.scope = table.open_scope(ScopeKind.CLASS, binding.name, scope, node)

    access = Specifier.PRIVATE  # class members default to private
    for member in node.children:
        if member.kind == "BaseSpec":
            base = scope.lookup(member.attr("name"))
            if not isinstance(base, ClassBinding):
                base = None
            binding.bases.append(
                (base, _ACCESS[member.attr("access")], member.attr("name"))
            )
        elif member.kind == "AccessSection":
            access = _ACCESS[member.attr("access")]
        elif member.kind in ("FunctionDef", "Constructor", "Destructor"):
            binding.functions.append(_walk_function(member, table, binding.scope, access))
        elif member.kind == "VarDecl":
            binding.data_members.append(_declare_variable(member, table, binding.scope))
        else:
            _walk(member, table, binding.scope)


def _walk_function(node, table, scope, access):
    specifiers = set()
    if access is not None:
        specifiers.add(access)
    if node.attr("virtual"):
        specifiers.add(Specifier.VIRTUAL)
    if node.attr("pure"):
        specifiers.update((Specifier.VIRTUAL, Specifier.PURE_VIRTUAL))
    if node.attr("static"):
        specifiers.add(Specifier.STATIC)

    params = [c for c in node.children if c.kind == "ParamDecl"]
    body = next((c for c in node.children if c.kind == "CompoundStmt"), None)
    binding = FunctionBinding(
        name=node.attr("name"),
        specifiers=specifiers,
        parameter_types=[p.attr("type") for p in params],
        return_type=node.attr("return_type"),
        is_constructor=node.kind == "Constructor",
        is_destructor=node.kind == "Destructor",
    )
    table.declare(scope, binding, node)
    fn_scope = table.open_scope(ScopeKind.FUNCTION, binding.name, scope, node)
    for param in params:
        _declare_variable(param, table, fn_scope, is_parameter=True)
    if body is not None:
        _walk(body, table, fn_scope)
    return binding
