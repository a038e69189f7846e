"""Scoped symbol table over the syntax graph.

Holds the bindings queried by rules (class/function/variable/type). Each
unit gets one table, built from the finished AST by the builder named in
its language's ``pipeline.FRONTENDS`` entry, and read-only once built. The
table indexes nodes by id only where a builder opens a scope or declares a
binding, so ``scope_of`` and ``binding_of`` answer for those nodes alone.
``variables`` lists every declared variable, each named and in its scope,
in declaration order. Scopes compare and hash by identity, so rules can
key facts by scope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .model import Diagnostic


class ScopeKind(enum.Enum):
    GLOBAL = "GLOBAL"
    NAMESPACE = "NAMESPACE"
    CLASS = "CLASS"
    FUNCTION = "FUNCTION"
    BLOCK = "BLOCK"


class Specifier(enum.Enum):
    PUBLIC = "PUBLIC"
    PROTECTED = "PROTECTED"
    PRIVATE = "PRIVATE"
    VIRTUAL = "VIRTUAL"
    PURE_VIRTUAL = "PURE_VIRTUAL"
    STATIC = "STATIC"


class Scope:
    def __init__(self, kind, name=None, parent=None):
        self.kind = kind
        self.name = name
        self.parent = parent
        self.declarations = []
        self.children = []
        self._by_name = {}  # name -> the first binding declared under it

    def declare(self, binding):
        self.declarations.append(binding)
        self._by_name.setdefault(binding.name, binding)
        binding.scope = self

    def lookup_local(self, name):
        return self._by_name.get(name)

    def lookup(self, name):
        scope = self
        while scope is not None:
            binding = scope.lookup_local(name)
            if binding is not None:
                return binding
            scope = scope.parent
        return None


@dataclass
class TypeBinding:
    """A plain type name: an enum or a typedef."""

    name: str
    scope: Scope = None


@dataclass
class VariableBinding:
    name: str
    declared_type: str = ""
    scope: Scope = None
    has_initializer: bool = False
    is_member: bool = False
    is_parameter: bool = False
    is_loop_index: bool = False
    decl_span: object = None


@dataclass
class FunctionBinding:
    name: str
    specifiers: set = field(default_factory=set)
    parameter_types: list = field(default_factory=list)
    return_type: str = ""
    is_constructor: bool = False
    is_destructor: bool = False
    scope: Scope = None

    def has_specifier(self, spec):
        return spec in self.specifiers

    def signature(self):
        """Render as ``name : RETURNTYPE`` (return type upper-cased)."""
        return "%s : %s" % (self.name, self.return_type.upper())


def equal_signature(f, g):
    return (
        f.name == g.name
        and _norm_types(f.parameter_types) == _norm_types(g.parameter_types)
        and _norm(f.return_type) == _norm(g.return_type)
    )


def _norm(type_name):
    return " ".join(type_name.split())


def _norm_types(types):
    return [_norm(t) for t in types]


@dataclass
class ClassBinding:
    name: str
    scope: Scope = None  # the CLASS scope this binding owns
    bases: list = field(default_factory=list)  # (ClassBinding | None, Specifier, name)
    functions: list = field(default_factory=list)
    data_members: list = field(default_factory=list)

    def inherited_classes(self):
        return [base for base, _access, _name in self.bases if base is not None]

    def specifier_of_inherited(self, inherited):
        for base, access, _name in self.bases:
            if base is inherited:
                return access
        return None

    def has_only_interface_methods(self):
        """True iff there are no data members and every member function is
        pure virtual; the destructor is exempt."""
        if self.data_members:
            return False
        for fn in self.functions:
            if fn.is_destructor:
                continue
            if not fn.has_specifier(Specifier.PURE_VIRTUAL):
                return False
        return True


class SymbolTable:
    """Per-unit scope tree, plus the scope each node opens and the binding
    each node declares."""

    def __init__(self):
        self.global_scope = Scope(ScopeKind.GLOBAL)
        self.diagnostics = []
        self._scope_by_node = {}
        self._binding_by_node = {}
        self.variables = []

    def open_scope(self, kind, name, parent, node):
        """A new child scope of ``parent``, opened by ``node``."""
        scope = Scope(kind, name=name, parent=parent)
        parent.children.append(scope)
        self._scope_by_node[node.node_id] = scope
        return scope

    def declare(self, scope, binding, node):
        """Declare ``binding`` in ``scope`` as the binding of ``node``; a
        name already declared there adds a non-fatal diagnostic."""
        if binding.name and scope.lookup_local(binding.name) is not None:
            self.diagnostics.append(
                Diagnostic(node.span, "duplicate declaration of %r" % binding.name, fatal=False)
            )
        scope.declare(binding)
        if isinstance(binding, VariableBinding):
            self.variables.append(binding)
        self._binding_by_node[node.node_id] = binding
        return binding

    def scope_of(self, node):
        """The scope ``node`` opens; GLOBAL for a node that opens none."""
        return self._scope_by_node.get(node.node_id, self.global_scope)

    def binding_of(self, node):
        """The binding ``node`` declares; None for a node that declares none."""
        return self._binding_by_node.get(node.node_id)

