"""The 18 guideline checkers for the C++ subset.

Each checker listens on the unit's one walk: it is notified of its node kinds
in pre-order and, if it defines ``leave``, after their subtrees. It may use
the symbol table; node shapes it does not recognize yield no finding.
"""

from __future__ import annotations

import re

from ..core import Rule
from ..model import Criticality, Priority, RuleDescriptor
from ..symtab import ClassBinding, ScopeKind, Specifier, VariableBinding, equal_signature

_LOWER_CAMEL = re.compile(r"[a-z][a-zA-Z0-9]*")
_UPPER_CAMEL = re.compile(r"[A-Z][a-zA-Z0-9]*")

_LOOPS = ("WhileStmt", "DoStmt", "ForStmt")
_BREAKABLE = _LOOPS + ("SwitchStmt",)
_FUNCTIONS = ("FunctionDef", "Constructor", "Destructor")
_SCOPES = ("CompoundStmt", "ForStmt", "SwitchStmt")  # the statements that open a scope


def _sub(*kinds):
    return tuple(("minicpp", k) for k in kinds)


def _op_span(node):
    """The span of a parsed binary or assignment node's operator token, the
    one after its left operand's last; a hand-built node's own span."""
    tokens = node.tokens
    if tokens is None:
        return node.span
    op = node.children[0].last + 1
    return tokens.span(op, op)


def _condition_of(node):
    children = node.children
    if not children:
        return None
    if node.kind in ("IfStmt", "WhileStmt", "SwitchStmt"):
        return children[0]
    if node.kind == "DoStmt":
        return children[-1]
    if node.kind == "ForStmt" and node.attr("has_cond"):
        index = len(children) - 2  # body is last
        if node.attr("has_step"):
            index -= 1
        if 0 <= index < len(children):
            return children[index]
    return None


class ConstructorChecker(Rule):
    descriptor = RuleDescriptor(
        id="ConstructorChecker",
        title="Constructor order checker",
        description="Checks that members are ordered: constructors, destructor, other methods.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("ClassDef"),
    )

    _RANK = {"Constructor": 0, "Destructor": 1, "FunctionDef": 2}

    def visit(self, node, ctx):
        max_rank = -1
        for member in node.children:
            rank = self._RANK.get(member.kind)
            if rank is None:
                continue
            if rank < max_rank:
                ctx.report(
                    member.span,
                    "Member %r of class %r is declared out of order "
                    "(expected constructors, then destructor, then other methods)."
                    % (member.attr("name"), node.attr("name")),
                )
            else:
                max_rank = rank


class DestructorChecker(Rule):
    descriptor = RuleDescriptor(
        id="DestructorChecker",
        title="Virtual destructor checker",
        description="Checks that polymorphic and derived classes declare a virtual destructor.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.MEDIUM,
        subscriptions=_sub("ClassDef"),
    )

    def visit(self, node, ctx):
        has_base = any(c.kind == "BaseSpec" for c in node.children)
        has_virtual = any(
            c.kind == "FunctionDef"
            and (c.attr("virtual") or c.attr("pure"))
            for c in node.children
        )
        if not (has_base or has_virtual):
            return
        dtor = next((c for c in node.children if c.kind == "Destructor"), None)
        if dtor is None or not dtor.attr("virtual"):
            ctx.report(
                node.span,
                "Class %r must declare a virtual destructor." % node.attr("name"),
            )


class EnumChecker(Rule):
    descriptor = RuleDescriptor(
        id="EnumChecker",
        title="Enum declaration checker",
        description="Checks that enums are named and initialize all enumerators or none.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("EnumDef"),
    )

    def visit(self, node, ctx):
        if not node.attr("name"):
            ctx.report(node.span, "Anonymous enum declaration.")
        inits = [e.attr("has_init") for e in node.children if e.kind == "Enumerator"]
        if inits and any(inits) and not all(inits):
            ctx.report(
                node.span,
                "Enum %r mixes initialized and uninitialized enumerators."
                % node.attr("name"),
            )


class ExpressionChecker(Rule):
    descriptor = RuleDescriptor(
        id="ExpressionChecker",
        title="Logical expression checker",
        description="Checks for '&&' and '||' mixed without parentheses.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.MEDIUM,
        subscriptions=_sub("BinaryExpr"),
    )

    def visit(self, node, ctx):
        op = node.attr("operator")
        if op not in ("&&", "||"):
            return
        for child in node.children:
            if (
                child.kind == "BinaryExpr"
                and child.attr("operator") in ("&&", "||")
                and child.attr("operator") != op
            ):
                ctx.report(
                    _op_span(node),
                    "Mixed '&&' and '||' without parentheses.",
                )
                return


class ExpressionAssignmentChecker(Rule):
    descriptor = RuleDescriptor(
        id="ExpressionAssignmentChecker",
        title="Assignment in condition checker",
        description="Checks for assignments inside selection and loop conditions.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.HIGH,
        subscriptions=_sub("IfStmt", "WhileStmt", "DoStmt", "ForStmt", "SwitchStmt"),
    )

    def visit(self, node, ctx):
        condition = _condition_of(node)
        if condition is None:
            return
        for sub in condition.walk():
            if sub.kind == "AssignExpr":
                ctx.report(
                    _op_span(sub),
                    "Assignment inside a condition expression.",
                )


class FlowControlChecker(Rule):
    descriptor = RuleDescriptor(
        id="FlowControlChecker",
        title="Flow control checker",
        description="Checks for gotos, labels, and breaks used to leave loops.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.MEDIUM,
        subscriptions=_sub("GotoStmt", "LabelStmt", "BreakStmt", *_BREAKABLE),
    )

    def __init__(self):
        self._breakables = []  # kinds of the enclosing loops and switches, innermost last

    def visit(self, node, ctx):
        if node.kind == "GotoStmt":
            ctx.report(node.span, "'goto' statement used.")
        elif node.kind == "LabelStmt":
            ctx.report(node.span, "Label %r declared." % node.attr("name"))
        elif node.kind != "BreakStmt":
            self._breakables.append(node.kind)
        elif self._breakables and self._breakables[-1] in _LOOPS:
            ctx.report(node.span, "'break' used to leave a loop.")

    def leave(self, node, ctx):
        if node.kind in _BREAKABLE:
            self._breakables.pop()


class FunctionChecker(Rule):
    descriptor = RuleDescriptor(
        id="FunctionChecker",
        title="Function usage checker",
        description="Checks function length and parameter count.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("FunctionDef"),
        default_properties=(("maxLines", "100", "int"), ("maxParams", "6", "int")),
    )

    def visit(self, node, ctx):
        name = node.attr("name")
        body = next((c for c in node.children if c.kind == "CompoundStmt"), None)
        if body is not None:
            lines = body.span.end_row - body.span.row + 1
            max_lines = ctx.prop("maxLines")
            if lines > max_lines:
                ctx.report(
                    node.span,
                    "Function %r has %d body lines (maximum is %d)."
                    % (name, lines, max_lines),
                )
        params = sum(1 for c in node.children if c.kind == "ParamDecl")
        max_params = ctx.prop("maxParams")
        if params > max_params:
            ctx.report(
                node.span,
                "Function %r has %d parameters (maximum is %d)."
                % (name, params, max_params),
            )


class IdentifierChecker(Rule):
    descriptor = RuleDescriptor(
        id="IdentifierChecker",
        title="Naming conventions checker",
        description="Checks whether identifier naming is unique.",
        reference="MISRA AV Rule 48",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
    )

    def finish(self, ctx):
        """Each variable is reported once per variable of the same normalised
        name declared earlier in its own scope or anywhere in an enclosing one."""
        by_key = {}  # (scope, normalised name) -> the variables declared there, in order
        for var in ctx.table.variables:
            by_key.setdefault((var.scope, _normalize(var.name)), []).append(var)
        for (scope, key), here in by_key.items():
            outer, up = [], scope.parent
            while up is not None:
                outer += by_key.get((up, key), ())
                up = up.parent
            for n, inner in enumerate(here):
                for other in here[:n] + outer:
                    similar = '"%s : %s"' % (other.name, other.declared_type)
                    if other.is_member:
                        similar = "instance variable " + similar
                    ctx.report(
                        inner.decl_span,
                        '%s "%s" is named similar to %s.'
                        % (_var_label(inner), inner.name, similar),
                    )


def _normalize(name):
    return name.lower().replace("_", "")


def _var_label(binding):
    if binding.is_member:
        return "Instance Variable"
    if binding.is_parameter:
        return "Parameter"
    return "Local Variable"


class IfChecker(Rule):
    descriptor = RuleDescriptor(
        id="IfChecker",
        title="If-brace checker",
        description="Checks that if and else branches are brace-enclosed.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("IfStmt"),
    )

    def visit(self, node, ctx):
        for label, branch in zip(("If", "Else"), node.children[1:]):
            # several unbraced declarators share a CompoundStmt that starts where they do
            braced = branch.kind == "CompoundStmt" and not (
                branch.children and branch.children[0].span[1:3] == branch.span[1:3]
            )
            if not braced and not (label == "Else" and branch.kind == "IfStmt"):  # else-if is exempt
                ctx.report(branch.span, "%s branch without braces." % label)


class InitializedVariableChecker(Rule):
    descriptor = RuleDescriptor(
        id="InitializedVariableChecker",
        title="Variable initialization checker",
        description="Checks that local variables are initialized at declaration.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.MEDIUM,
        subscriptions=_sub("VarDecl"),
    )

    def visit(self, node, ctx):
        binding = ctx.table.binding_of(node)
        if binding is None or binding.scope is None:
            return
        if binding.is_member or binding.is_parameter:
            return
        if binding.scope.kind not in (ScopeKind.FUNCTION, ScopeKind.BLOCK):
            return
        if not binding.has_initializer:
            ctx.report(
                node.span,
                "Local variable %r is not initialized." % binding.name,
            )


class InterfaceChecker(Rule):
    descriptor = RuleDescriptor(
        id="InterfaceChecker",
        title="Interface Checker",
        description="Checks for correct interface usage.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.LOW,
        subscriptions=_sub("ClassDef"),
        default_properties=(("CloseAPI", "true", "bool"),),
    )

    def visit(self, node, ctx):
        binding = ctx.table.binding_of(node)
        if node.attr("forward") or not isinstance(binding, ClassBinding):
            return
        if binding.has_only_interface_methods():
            return
        interfaces = [
            base
            for base in binding.inherited_classes()
            if base.has_only_interface_methods()
        ]
        if not ctx.prop("CloseAPI") and not interfaces:
            return
        declared = []
        for base in interfaces:
            if binding.specifier_of_inherited(base) is Specifier.PUBLIC:
                declared.extend(
                    fn
                    for fn in base.functions
                    if fn.has_specifier(Specifier.PUBLIC)
                )
        for fn in binding.functions:
            if not fn.has_specifier(Specifier.PUBLIC):
                continue
            if fn.is_constructor or fn.is_destructor:
                continue
            if fn.has_specifier(Specifier.STATIC):
                continue
            if any(equal_signature(fn, d) for d in declared):
                continue
            ctx.report(
                node.span,
                "Class %s has public functions not declared in interfaces: %s"
                % (binding.name, fn.signature()),
            )


class MemoryChecker(Rule):
    descriptor = RuleDescriptor(
        id="MemoryChecker",
        title="Memory handling checker",
        description="Checks that memory allocated with new is freed in the same function.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.HIGH,
        subscriptions=_sub(*_FUNCTIONS, "ClassDef", *_SCOPES, "VarDecl", "AssignExpr", "DeleteExpr", "ReturnStmt"),
    )

    def __init__(self):
        self._frames = [None]  # a _Frame per enclosing function, innermost last; None outside them and per class

    def visit(self, node, ctx):
        kind, frame = node.kind, self._frames[-1]
        if kind in _FUNCTIONS:
            self._frames.append(_Frame(ctx.table.scope_of(node)))
        elif kind == "ClassDef":
            self._frames.append(None)  # its members belong to no function around it
        elif frame is None:
            return
        elif kind in _SCOPES:
            frame.scopes.append(ctx.table.scope_of(node))
        elif kind == "VarDecl":
            new_expr = next((c for c in node.children if c.kind == "NewExpr"), None)
            if new_expr is not None:
                frame.allocs[node.attr("name")] = (new_expr.attr("array", False), node.span)
        elif kind == "AssignExpr" and len(node.children) == 2:
            lhs, rhs = node.children
            if rhs.kind == "NewExpr" and lhs.kind == "IdentExpr":
                frame.allocs.setdefault(lhs.attr("name"), (rhs.attr("array", False), node.span))
            if rhs.kind == "IdentExpr" and _is_nonlocal_target(lhs, frame.scopes[-1]):
                frame.escaped.add(rhs.attr("name"))
        elif kind == "DeleteExpr" and node.children:
            operand = node.children[0]
            if operand.kind == "IdentExpr":
                frame.deletes.setdefault(operand.attr("name"), set()).add(node.attr("array", False))
        elif kind == "ReturnStmt" and node.children:
            value = node.children[0]
            if value.kind == "IdentExpr":
                frame.escaped.add(value.attr("name"))

    def leave(self, node, ctx):
        if node.kind == "ClassDef":
            self._frames.pop()
        elif node.kind in _SCOPES and self._frames[-1] is not None:
            self._frames[-1].scopes.pop()
        elif node.kind in _FUNCTIONS:
            frame = self._frames.pop()
            for name, (is_array, span) in frame.allocs.items():
                if name in frame.escaped:
                    continue
                freed = frame.deletes.get(name)
                if not freed:
                    ctx.report(span, "Variable %r is allocated with new but never freed." % name)
                elif is_array not in freed:
                    ctx.report(span, "Variable %r is freed with the wrong delete form (new[] pairs with delete[])." % name)


class _Frame:
    """What one function allocates with new, deletes, and lets escape."""

    def __init__(self, scope):
        self.allocs = {}  # variable name -> (is array allocation, span)
        self.deletes = {}  # variable name -> set of array flags
        self.escaped = set()
        self.scopes = [scope]  # the innermost block or for scope last


def _is_nonlocal_target(lhs, scope):
    """True iff assigning to ``lhs``, its name looked up from the innermost
    ``scope``, stores outside the function: a member, a parameter, or a
    variable declared at global or namespace scope."""
    if lhs.kind == "MemberExpr":
        return True
    if lhs.kind != "IdentExpr":
        return False
    binding = scope.lookup(lhs.attr("name"))
    if not isinstance(binding, VariableBinding):
        return False
    if binding.is_member or binding.is_parameter:
        return True
    return binding.scope.kind in (ScopeKind.GLOBAL, ScopeKind.NAMESPACE)


class NamingConventionChecker(Rule):
    descriptor = RuleDescriptor(
        id="NamingConventionChecker",
        title="Naming convention checker",
        description="Checks class, variable, and function naming conventions.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("ClassDef", "VarDecl", "FunctionDef"),
        default_properties=(("hungarianPrefixes", "sz,psz,lp,dw,p_,i_,b_", "list"),),
    )

    def visit(self, node, ctx):
        name = node.attr("name")
        if not name:
            return
        if node.kind == "ClassDef":
            if not _UPPER_CAMEL.fullmatch(name):
                ctx.report(
                    node.span, "Class %r is not named in UpperCamelCase." % name
                )
        elif node.kind == "FunctionDef":
            if not _LOWER_CAMEL.fullmatch(name):
                ctx.report(
                    node.span, "Function %r is not named in lowerCamelCase." % name
                )
        else:
            if not _LOWER_CAMEL.fullmatch(name):
                ctx.report(
                    node.span, "Variable %r is not named in lowerCamelCase." % name
                )
            for prefix in ctx.prop("hungarianPrefixes"):
                rest = name[len(prefix) :]
                if name.startswith(prefix) and rest and (
                    prefix.endswith("_") or rest[0].isupper()
                ):
                    ctx.report(
                        node.span,
                        "Variable %r uses the Hungarian prefix %r." % (name, prefix),
                    )
                    break


class NamespaceChecker(Rule):
    descriptor = RuleDescriptor(
        id="NamespaceChecker",
        title="Namespace usage checker",
        description="Checks for global using-directives and declarations outside namespaces.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("TranslationUnit"),
    )

    def visit(self, node, ctx):
        for child in node.children:
            if child.kind == "UsingDirective":
                ctx.report(
                    child.span,
                    "'using namespace %s' at global scope." % child.attr("name"),
                )
            elif child.kind == "ClassDef":
                ctx.report(
                    child.span,
                    "Class %r declared outside any namespace." % child.attr("name"),
                )
            elif child.kind == "FunctionDef" and child.attr("name") != "main":
                ctx.report(
                    child.span,
                    "Function %r declared outside any namespace."
                    % child.attr("name"),
                )


class SingleLetterVariableChecker(Rule):
    descriptor = RuleDescriptor(
        id="SingleLetterVariableChecker",
        title="Single-letter variable checker",
        description="Checks for variable names consisting of a single letter.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("VarDecl"),
        default_properties=(("allowLoopIndices", "true", "bool"),),
    )

    def visit(self, node, ctx):
        name = node.attr("name")
        if len(name) != 1:
            return
        binding = ctx.table.binding_of(node)
        if (
            binding is not None
            and binding.is_loop_index
            and ctx.prop("allowLoopIndices")
        ):
            return
        ctx.report(node.span, "Variable %r has a single-letter name." % name)


class SwitchChecker(Rule):
    descriptor = RuleDescriptor(
        id="SwitchChecker",
        title="Switch-brace checker",
        description="Checks switch statements for braces, default clauses, and fallthrough.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.MEDIUM,
        subscriptions=_sub("SwitchStmt"),
    )

    def visit(self, node, ctx):
        clauses = [
            c for c in node.children if c.kind in ("CaseClause", "DefaultClause")
        ]
        if not any(c.kind == "DefaultClause" for c in clauses):
            ctx.report(node.span, "Switch statement has no default clause.")
        for clause in clauses:
            body = clause.children[1:] if clause.kind == "CaseClause" else clause.children
            if not body:
                continue
            if len(body) != 1 or body[0].kind != "CompoundStmt":
                ctx.report(clause.span, "Switch clause body without braces.")
                last = body[-1]
            else:
                if not body[0].children:
                    continue
                last = body[0].children[-1]
            if last.kind not in ("BreakStmt", "ReturnStmt"):
                ctx.report(
                    clause.span, "Switch clause falls through (no break or return)."
                )


class SymbolOrderChecker(Rule):
    descriptor = RuleDescriptor(
        id="SymbolOrderChecker",
        title="Declaration order checker",
        description="Checks that block-local declarations precede other statements.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("CompoundStmt"),
    )

    _DECLS = ("VarDecl", "TypedefDecl", "EnumDef", "ClassDef")

    def visit(self, node, ctx):
        seen_statement = False
        for child in node.children:
            if child.kind in self._DECLS:
                if seen_statement and child.kind == "VarDecl":
                    ctx.report(
                        child.span,
                        "Declaration of %r after the first statement of the block."
                        % child.attr("name"),
                    )
            else:
                seen_statement = True


class TypeDefChecker(Rule):
    descriptor = RuleDescriptor(
        id="TypeDefChecker",
        title="Typedef naming checker",
        description="Checks that typedef names match the configured pattern.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=_sub("TypedefDecl"),
        default_properties=(("pattern", ".*_t", "regex"),),
    )

    def visit(self, node, ctx):
        name = node.attr("name")
        if not name:
            return
        pattern = ctx.prop("pattern")
        if not pattern.fullmatch(name):
            ctx.report(
                node.span,
                "Typedef %r does not match the pattern %r." % (name, pattern.pattern),
            )


CPP_RULES = (
    ConstructorChecker,
    DestructorChecker,
    EnumChecker,
    ExpressionChecker,
    ExpressionAssignmentChecker,
    FlowControlChecker,
    FunctionChecker,
    IdentifierChecker,
    IfChecker,
    InitializedVariableChecker,
    InterfaceChecker,
    MemoryChecker,
    NamingConventionChecker,
    NamespaceChecker,
    SingleLetterVariableChecker,
    SwitchChecker,
    SymbolOrderChecker,
    TypeDefChecker,
)
