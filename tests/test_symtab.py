import pytest
from conftest import analyze_cpp, analyze_seq

from cglint.symtab import (
    ClassBinding,
    FunctionBinding,
    Scope,
    ScopeKind,
    Specifier,
    TypeBinding,
    VariableBinding,
    equal_signature,
)


def find(unit, kind, **attrs):
    for node in unit.walk():
        if node.kind == kind and all(node.attr(k) == v for k, v in attrs.items()):
            return node
    raise AssertionError("no %s with %r" % (kind, attrs))


def classes(root):
    """The class bindings of the global scope, in declaration order."""
    return [b for b in root.symbols.global_scope.declarations if isinstance(b, ClassBinding)]


INTERFACE_SOURCE = """
class Function {
public:
  virtual double eval() = 0;
  virtual double derive() = 0;
  virtual ~Function();
};
class Polynomial : public Function {
public:
  double eval();
  double derive();
};
"""


def test_class_bindings_and_bases():
    root = analyze_cpp(INTERFACE_SOURCE)
    names = [c.name for c in classes(root)]
    assert names == ["Function", "Polynomial"]
    poly = classes(root)[1]
    bases = poly.inherited_classes()
    assert [b.name for b in bases] == ["Function"]
    assert poly.specifier_of_inherited(bases[0]) is Specifier.PUBLIC


def test_interface_query():
    root = analyze_cpp(INTERFACE_SOURCE)
    function, poly = classes(root)
    assert function.has_only_interface_methods()
    assert not poly.has_only_interface_methods()


def test_data_member_defeats_interface():
    root = analyze_cpp("class I { public: virtual void f() = 0; int state; };")
    assert not classes(root)[0].has_only_interface_methods()


def test_destructor_exempt_from_interface_test():
    root = analyze_cpp("class I { public: virtual ~I(); virtual void f() = 0; };")
    assert classes(root)[0].has_only_interface_methods()


def test_signature_rendering():
    root = analyze_cpp(INTERFACE_SOURCE)
    function = classes(root)[0]
    sigs = sorted(fn.signature() for fn in function.functions if not fn.is_destructor)
    assert sigs == ["derive : DOUBLE", "eval : DOUBLE"]


def test_equal_signature_whitespace_insensitive():
    f = FunctionBinding("f", parameter_types=["const  char *"], return_type="unsigned   int")
    g = FunctionBinding("f", parameter_types=["const char *"], return_type="unsigned int")
    h = FunctionBinding("f", parameter_types=["char *"], return_type="unsigned int")
    assert equal_signature(f, g)
    assert equal_signature(g, f)
    assert not equal_signature(f, h)
    assert not equal_signature(f, FunctionBinding("g", parameter_types=["const char *"], return_type="unsigned int"))


def test_scope_tree_shape():
    root = analyze_cpp(
        "namespace app { class C { public: void m() { int local = 0; } }; }"
    )
    table = root.symbols
    g = table.global_scope
    assert g.kind is ScopeKind.GLOBAL
    ns = g.children[0]
    assert (ns.kind, ns.name) == (ScopeKind.NAMESPACE, "app")
    cls = ns.children[0]
    assert (cls.kind, cls.name) == (ScopeKind.CLASS, "C")
    fn = cls.children[0]
    assert fn.kind is ScopeKind.FUNCTION
    block = fn.children[0]
    assert block.kind is ScopeKind.BLOCK
    assert block.lookup_local("local") is not None


def test_scope_of_nodes():
    root = analyze_cpp("class C { public: void m() { int local = 0; } };")
    table = root.symbols
    local = find(root.ast, "VarDecl", name="local")
    scope = table.binding_of(local).scope
    assert scope.kind is ScopeKind.BLOCK
    assert scope is table.scope_of(find(root.ast, "CompoundStmt"))
    cls = find(root.ast, "ClassDef", name="C")
    assert table.scope_of(cls).kind is ScopeKind.CLASS


def test_lookup_walks_outward():
    root = analyze_cpp("int shared = 0;\nvoid f() { int inner = shared; }")
    table = root.symbols
    fn_scope = table.global_scope.children[0]
    block = fn_scope.children[0]
    binding = block.lookup("shared")
    assert isinstance(binding, VariableBinding)
    assert binding.scope is table.global_scope


def test_long_operator_chain_binds_to_its_block():
    root = analyze_cpp("int f() { return %s; }" % "+".join(["1"] * 3000))
    table = root.symbols
    deepest = find(root.ast, "ReturnStmt")
    while deepest.children:
        deepest = deepest.children[0]
    assert deepest.kind == "Literal"
    body = find(root.ast, "CompoundStmt")
    assert table.scope_of(body).kind is ScopeKind.BLOCK


def test_duplicate_declaration_diagnostic():
    root = analyze_cpp("int twice = 0;\nint twice = 1;")
    messages = [d.message for d in root.diagnostics]
    assert any("duplicate" in m for m in messages)
    assert not root.has_fatal_error()


def test_switch_body_has_its_own_scope():
    root = analyze_cpp("int f(int c) { switch (c) { case 1: typedef int T; } T * x; }")
    switch = find(root.ast, "SwitchStmt")
    scope = root.symbols.scope_of(switch)
    assert scope.kind is ScopeKind.BLOCK and scope.parent is root.symbols.scope_of(find(root.ast, "CompoundStmt"))
    assert [b.name for b in scope.declarations] == ["T"]
    assert find(root.ast, "CompoundStmt").children[-1].kind == "ExprStmt"


def test_using_directive_applies_to_parser_and_table():
    root = analyze_cpp(
        "namespace n { class C { }; }\nusing namespace n;\nvoid f() { C * p; }\nclass D : public C { };"
    )
    assert find(root.ast, "VarDecl", name="p").attr("type") == "C*"
    c, d = root.symbols.global_scope.children[0].lookup_local("C"), classes(root)[0]
    assert d.bases == [(c, Specifier.PUBLIC, "C")]


def test_using_directive_serves_qualified_names():
    root = analyze_cpp(
        "namespace a { namespace b { class C { }; } }\nusing namespace a;\nusing namespace b;\n"
        "class D : public b::C { };\nclass E : public C { };"
    )
    table = root.symbols
    a = table.global_scope.children[0]
    b = a.children[0]
    assert table.global_scope.used == (a, b)
    c = b.lookup_local("C")
    assert [cls.bases for cls in classes(root)] == [[(c, Specifier.PUBLIC, "b::C")], [(c, Specifier.PUBLIC, "C")]]


def test_duplicate_diagnostics_in_document_order():
    """A function is declared before its body, though its node is made
    after; its duplicate still comes first."""
    root = analyze_cpp("int f; void f() { int x; int x; }")
    assert [(d.span[1:3], d.message) for d in root.diagnostics] == [
        ((1, 8), "duplicate declaration of 'f'"),
        ((1, 26), "duplicate declaration of 'x'"),
    ]


@pytest.mark.parametrize("source", [
    "class A { public: A(); ~A(); };",
    "void f(int a);\nvoid f(char c);",
    "void f();\nvoid f() { }",
    "class A;\nclass A { };",
    "class A { };\nclass A;",
    "namespace n { class A; }\nnamespace n { class A { }; }",
])
def test_legal_redeclarations_are_not_duplicates(source):
    assert analyze_cpp(source).diagnostics == []


def test_forward_declarations_share_the_class_binding():
    root = analyze_cpp("class A;\nclass A { int m; };\nclass A;")
    table = root.symbols
    nodes = [n for n in root.ast.walk() if n.kind == "ClassDef"]
    binding = table.binding_of(nodes[0])
    assert [table.binding_of(n) for n in nodes] == [binding] * 3
    assert classes(root) == [binding]
    assert binding.scope is table.scope_of(nodes[1])
    assert binding.scope.lookup_local("m") in binding.data_members


def test_a_class_defined_twice_gets_a_binding_per_body():
    """A second body of a class defined in the same scope is a duplicate,
    with a binding and a scope of its own, so no binding collects two
    bodies; a later forward declaration, and a name lookup, still find the
    first."""
    root = analyze_cpp("class A { int m; };\nclass A { int n; void f(); };\nclass A;")
    table = root.symbols
    first, second, forward = [n for n in root.ast.walk() if n.kind == "ClassDef"]
    assert [(d.span[1:3], d.message, d.fatal) for d in root.diagnostics] == [
        ((2, 1), "duplicate declaration of 'A'", False)
    ]
    a, b = table.binding_of(first), table.binding_of(second)
    assert classes(root) == [a, b]
    assert table.binding_of(forward) is a and table.global_scope.lookup_local("A") is a
    assert ([v.name for v in a.data_members], a.functions) == (["m"], [])
    assert ([v.name for v in b.data_members], [f.name for f in b.functions]) == (["n"], ["f"])
    assert (a.scope, b.scope) == (table.scope_of(first), table.scope_of(second))
    assert a.scope is not b.scope and a.scope is table.global_scope.lookup_scope(["A"])


def test_reopened_namespace_continues_its_scope():
    root = analyze_cpp("namespace n { int a = 0; }\nnamespace m { }\nnamespace n { int b = 0; }")
    table = root.symbols
    first, other, again = [table.scope_of(n) for n in root.ast.children]
    assert first is again and first is not other
    assert table.global_scope.children == [first, other]
    assert [v.scope for v in table.variables] == [first, first]


def test_class_scopes_are_never_continued():
    top = Scope(ScopeKind.GLOBAL)
    first = top.open(ScopeKind.CLASS, "C")
    second = top.open(ScopeKind.CLASS, "C")
    assert first is not second and top.children == [first, second]
    first.declare(TypeBinding("T"))
    assert top.lookup("C::T") is not None  # the first class scope of a name is found


def test_qualified_lookup():
    top = Scope(ScopeKind.GLOBAL)
    a = top.open(ScopeKind.NAMESPACE, "A")
    b = a.open(ScopeKind.CLASS, "B")
    t = TypeBinding("T")
    b.declare(t)
    a.declare(TypeBinding("U"))
    inner_a = top.open(ScopeKind.NAMESPACE, "N").open(ScopeKind.NAMESPACE, "A")
    fn = top.open(ScopeKind.FUNCTION, "f")
    fn.declare(TypeBinding("V"))
    block = fn.open(ScopeKind.BLOCK)
    assert top.lookup("A::B::T") is t
    assert block.lookup("A::B::T") is t  # ``A`` is found outward
    assert b.lookup("B::T") is t  # from inside ``B``, its name is found in ``A``
    assert top.lookup("A::U") is a.lookup_local("U")
    assert block.lookup("T") is None  # a plain name does not descend
    assert inner_a.lookup("A::B::T") is None  # the innermost ``A`` has no ``B``
    assert inner_a.lookup("A::U") is None
    for missing in ("A::T", "A::B::U", "A::C::T", "B::T", "X::T", "f::V"):
        assert top.lookup(missing) is None, missing


def test_member_and_parameter_flags():
    """A variable binding's scope kind says what it is, and its node holds
    the rest."""
    root = analyze_cpp(
        "class C { public: int field; void m(int arg) { int local = 1; } };"
    )
    table = root.symbols
    by_name = {v.name: v for v in table.variables}
    kinds = {name: (v.scope.kind, v.node.kind) for name, v in by_name.items()}
    assert kinds == {
        "field": (ScopeKind.CLASS, "VarDecl"),
        "arg": (ScopeKind.FUNCTION, "ParamDecl"),
        "local": (ScopeKind.BLOCK, "VarDecl"),
    }
    for name, binding in by_name.items():
        assert table.binding_of(binding.node) is binding
        assert binding.node.attr("name") == name
        assert binding.node.attr("type") == "int"
    assert by_name["local"].node.attr("has_init")
    assert not by_name["field"].node.attr("has_init")
    assert table.binding_of(find(root.ast, "ClassDef", name="C")).data_members == [by_name["field"]]


def test_loop_index_flag():
    root = analyze_cpp("void f() { for (int i = 0; i < 3; i = i + 1) { } }")
    by_name = {v.name: v for v in root.symbols.variables}
    assert by_name["i"].is_loop_index


def test_function_specifiers():
    root = analyze_cpp(
        "class C { public: virtual void a() = 0; static int b(); private: void c(); };"
    )
    cls = classes(root)[0]
    specs = {fn.name: fn.specifiers for fn in cls.functions}
    assert Specifier.PURE_VIRTUAL in specs["a"]
    assert Specifier.VIRTUAL in specs["a"]
    assert Specifier.PUBLIC in specs["a"]
    assert Specifier.STATIC in specs["b"]
    assert Specifier.PRIVATE in specs["c"]


def test_default_access_is_private():
    root = analyze_cpp("class C { void hidden(); };")
    fn = classes(root)[0].functions[0]
    assert Specifier.PRIVATE in fn.specifiers


def test_seqdiag_objects_become_bindings():
    root = analyze_seq(
        "sequencediagram d {\n  object a:A;\n  object b:B;\n  { a -> b : m(); }\n}\n"
    )
    names = [v.name for v in root.symbols.variables]
    assert names == ["a", "b"]
    assert all(v.scope is root.symbols.global_scope for v in root.symbols.variables)


def test_forward_class_declares_without_scope():
    root = analyze_cpp("class Later;")
    table = root.symbols
    node = find(root.ast, "ClassDef", name="Later")
    binding = table.binding_of(node)
    assert isinstance(binding, ClassBinding)
    assert binding.scope is table.global_scope
    assert table.scope_of(node) is table.global_scope
    assert table.global_scope.children == []


def test_unresolved_base_is_none():
    root = analyze_cpp("class Known { };\nclass D : public Missing, private Known { };")
    known, derived = classes(root)
    assert derived.bases == [
        (None, Specifier.PUBLIC, "Missing"),
        (known, Specifier.PRIVATE, "Known"),
    ]
    assert derived.inherited_classes() == [known]


def test_class_nested_in_class():
    root = analyze_cpp("class Outer { class Inner { int m; }; };")
    table = root.symbols
    outer = table.scope_of(find(root.ast, "ClassDef", name="Outer"))
    inner = table.scope_of(find(root.ast, "ClassDef", name="Inner"))
    assert (inner.kind, inner.name, inner.parent) == (ScopeKind.CLASS, "Inner", outer)
    assert isinstance(outer.lookup_local("Inner"), ClassBinding)
    assert table.binding_of(find(root.ast, "ClassDef", name="Inner")).data_members == [inner.lookup_local("m")]


def test_declarators_of_a_branch_share_a_block():
    root = analyze_cpp("void f(bool c) { if (c) int a, b; }")
    table = root.symbols
    branch = find(root.ast, "IfStmt").children[1]
    assert branch.kind == "CompoundStmt"
    assert [(n.kind, n.attr("name")) for n in branch.children] == [("VarDecl", "a"), ("VarDecl", "b")]
    block = table.scope_of(branch)
    assert block.kind is ScopeKind.BLOCK
    assert block.parent is table.scope_of(find(root.ast, "CompoundStmt"))
    assert [table.binding_of(n).scope for n in branch.children] == [block, block]


def test_scopes_have_identity_semantics():
    """Scopes with equal fields are distinct dict keys, each equal only to itself."""
    parent = Scope(ScopeKind.GLOBAL)
    a, b = Scope(ScopeKind.BLOCK, parent=parent), Scope(ScopeKind.BLOCK, parent=parent)
    keys = {a: "a", b: "b"}
    assert keys[a] == "a" and keys[b] == "b"
    assert a == a and b == b and a != b
