"""Scoped symbol table over the syntax graph.

Holds the bindings queried by rules (class/function/variable/type). Each
unit gets one table, which its language's parser fills as it parses and
asks for type names, and which is read-only once the parse returns. The
table indexes nodes by id only where the parser opens a scope or declares a
binding, so ``scope_of`` and ``binding_of`` answer for those nodes alone.
``variables`` lists every declared variable, each named and in its scope,
in declaration order. A variable binding holds its name, its scope and its
declaring node; its scope's kind says whether it is a data member
(CLASS), a parameter (FUNCTION) or a variable, and the node holds the
rest. Scopes and bindings are plain classes, bindings slotted; both compare
and hash by identity, so rules can key facts by them.

``Scope.open`` makes every child scope; a namespace opened again continues
its first scope. ``Scope.lookup`` also takes a qualified ``A::B::T``, which
reaches no function scope. A plain name, or a qualified name's first part,
that misses in a scope is looked for in the namespaces its ``using
namespace`` directives name (not in theirs) before the scope around it. A
name declared twice in one scope is a non-fatal diagnostic unless both are
functions (overloads, a constructor and a destructor, a prototype and its
definition); a class's declarations, forward or not, share one binding.

A table owns its scope tree: each scope holds its children and its
bindings, while a scope's ``parent`` and a binding's ``scope`` are weak
references. So a table holds no reference cycle and is freed with its unit,
without the cyclic garbage collector, which ``pipeline`` pauses for each
unit; a scope or binding read after its table is gone has lost them.
"""

from __future__ import annotations

import enum
import weakref

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


def _ref(scope):
    return None if scope is None else weakref.ref(scope)


class Scope:
    def __init__(self, kind, name=None, parent=None):
        self.kind = kind
        self.name = name
        self._parent = _ref(parent)
        self.declarations = []
        self.children = []
        self._by_name = {}  # name -> the first binding declared under it
        self._scopes = {}  # name -> the first namespace or class scope opened under it
        self.used = ()  # the namespace scopes named by this scope's using directives

    @property
    def parent(self):
        """The enclosing scope; None for the global scope."""
        return None if self._parent is None else self._parent()

    def open(self, kind, name=None):
        """The child scope a ``kind`` construct named ``name`` opens here."""
        scope = self._scopes.get(name)
        if kind is ScopeKind.NAMESPACE and scope is not None and scope.kind is kind:
            return scope  # a reopened namespace
        scope = Scope(kind, name, self)
        self.children.append(scope)
        if kind is ScopeKind.NAMESPACE or kind is ScopeKind.CLASS:  # not a function
            self._scopes.setdefault(name, scope)
        return scope

    def declare(self, binding):
        self.declarations.append(binding)
        self._by_name.setdefault(binding.name, binding)
        binding.scope = self

    def lookup_local(self, name):
        return self._by_name.get(name)

    def _outward(self):
        """Where a name used here is looked for, in order: this scope and the
        namespaces its ``used`` names (not theirs), then the same for its parent."""
        scope = self
        while scope is not None:
            yield scope
            yield from scope.used
            scope = scope.parent

    def lookup(self, name):
        """The binding ``name`` names here or outward, or None: a plain name
        is the first ``lookup_local`` hit ``_outward``, and ``A::B::T`` is
        ``T`` in ``lookup_scope(["A", "B"])``."""
        *path, name = name.split("::")
        if path:
            scope = self.lookup_scope(path)
            return None if scope is None else scope.lookup_local(name)
        for scope in self._outward():
            binding = scope.lookup_local(name)
            if binding is not None:
                return binding
        return None

    def lookup_scope(self, path):
        """The scope the names ``path`` lead to: the ``B`` of the first
        ``A`` opened in a scope ``_outward`` for ``["A", "B"]``, or None."""
        first, *rest = path
        scope = next((reached._scopes[first] for reached in self._outward() if first in reached._scopes), None)
        for part in rest:
            if scope is None:
                return None
            scope = scope._scopes.get(part)
        return scope


class Binding:
    """What a declaration binds its name to. ``scope`` is the scope it is
    declared in (for a ``ClassBinding``, the CLASS scope it owns)."""

    __slots__ = ("_scope",)

    @property
    def scope(self):
        return None if self._scope is None else self._scope()

    @scope.setter
    def scope(self, scope):
        self._scope = _ref(scope)


class TypeBinding(Binding):
    """A plain type name: an enum or a typedef."""

    __slots__ = ("name",)

    def __init__(self, name, scope=None):
        self.name = name
        self.scope = scope


class VariableBinding(Binding):
    """A variable, data member or parameter. Its scope's kind says which:
    CLASS for a data member, FUNCTION for a parameter, any other for a
    variable. ``node`` is the node that declares it, which holds its type,
    its initializer flag and its span; None for a binding declared by hand."""

    __slots__ = ("name", "node", "is_loop_index")

    def __init__(self, name, node=None):
        self.name = name
        self.node = node
        self.scope = None
        self.is_loop_index = False


class FunctionBinding(Binding):
    __slots__ = ("name", "specifiers", "parameter_types", "return_type", "is_constructor", "is_destructor")

    def __init__(self, name, specifiers=None, parameter_types=None, return_type="", is_constructor=False,
                 is_destructor=False, scope=None):
        self.name = name
        self.specifiers = set() if specifiers is None else specifiers
        self.parameter_types = [] if parameter_types is None else parameter_types
        self.return_type = return_type
        self.is_constructor = is_constructor
        self.is_destructor = is_destructor
        self.scope = scope

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


class ClassBinding(Binding):
    __slots__ = ("name", "bases", "functions", "data_members")

    def __init__(self, name, scope=None, bases=None, functions=None, data_members=None):
        self.name = name
        self.scope = scope  # the CLASS scope this binding owns
        self.bases = [] if bases is None else bases  # (ClassBinding | None, Specifier, name)
        self.functions = [] if functions is None else functions
        self.data_members = [] if data_members is None else data_members

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

    def declare(self, scope, binding):
        """Declare ``binding`` in ``scope`` unless it is declared there
        already. True iff another binding of its name was declared there
        first and the two are not both functions: a duplicate, which
        ``record`` reports."""
        first = scope.lookup_local(binding.name)
        if first is binding:
            return False
        scope.declare(binding)
        if isinstance(binding, VariableBinding):
            self.variables.append(binding)
        return first is not None and not (isinstance(first, FunctionBinding) and isinstance(binding, FunctionBinding))

    def record(self, node, scope=None, binding=None, duplicate=False):
        """Record ``scope`` as the scope ``node`` opens and ``binding`` as
        the binding it declares, reported at ``node`` if a ``duplicate``;
        returns ``node``."""
        if scope is not None:
            self._scope_by_node[node.node_id] = scope
        if binding is not None:
            self._binding_by_node[node.node_id] = binding
            if duplicate:
                self.diagnostics.append(
                    Diagnostic(node.span, "duplicate declaration of %r" % binding.name, fatal=False)
                )
        return node

    def scope_of(self, node):
        """The scope ``node`` opens; GLOBAL for a node that opens none."""
        return self._scope_by_node.get(node.node_id, self.global_scope)

    def binding_of(self, node):
        """The binding ``node`` declares; None for a node that declares none."""
        return self._binding_by_node.get(node.node_id)
