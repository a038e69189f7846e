import sys

import pytest

from conftest import analyze_cpp, find_all, fixture_path, token_tuples

from cglint.errors import ParseError
from cglint.minicpp import NODE_KINDS, lex, parse
from cglint.model import AstNode, SourceSpan
from cglint.scan import NO_ATTRIBUTES
from cglint.rules.cpp import _op_span


def parse_src(source):
    return parse(lex(source, "test.cpp"))


def kinds(node):
    return [c.kind for c in node.children]


def test_empty_input():
    unit = parse_src("")
    assert unit.kind == "TranslationUnit"
    assert unit.children == []


def test_enum_golden():
    unit = parse_src("enum Color { RED, GREEN };")
    enum = unit.children[0]
    assert enum.kind == "EnumDef"
    assert enum.attr("name") == "Color"
    assert kinds(enum) == ["Enumerator", "Enumerator"]
    assert [e.attr("name") for e in enum.children] == ["RED", "GREEN"]
    assert [e.attr("has_init") for e in enum.children] == [False, False]


def test_class_with_base_and_destructor():
    unit = parse_src("class C : public I { public: virtual ~C(); };")
    cls = unit.children[0]
    assert cls.kind == "ClassDef"
    base = cls.children[0]
    assert (base.kind, base.attr("access"), base.attr("name")) == (
        "BaseSpec",
        "public",
        "I",
    )
    dtor = cls.children[2]
    assert (dtor.kind, dtor.attr("virtual")) == ("Destructor", True)


def test_pure_virtual_method():
    unit = parse_src("class A { public: virtual double derive() = 0; };")
    fn = unit.children[0].children[1]
    assert fn.kind == "FunctionDef"
    assert fn.attr("pure") is True
    assert fn.attr("virtual") is True
    assert fn.attr("return_type") == "double"


def test_constructor_recognized():
    unit = parse_src("class A { public: A(); ~A(); void f(); };")
    member_kinds = kinds(unit.children[0])
    assert member_kinds == ["AccessSection", "Constructor", "Destructor", "FunctionDef"]


def test_node_ids_unique():
    unit = parse_src("class A { public: void f() { int x = 0; } }; int main() { return 0; }")
    ids = [n.node_id for n in unit.walk()]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize(
    "source",
    [
        "void f(int a = 1 + 2) {}",
        "class A { public: A(int x) : v(x + 1) {} int v; };",
    ],
    ids=["default_argument", "ctor_initializer"],
)
def test_node_ids_are_one_to_n(source):
    """The nodes of a dropped default argument or ctor-initializer leave no
    gap in the ids."""
    ids = sorted(n.node_id for n in parse_src(source).walk())
    assert ids == list(range(1, len(ids) + 1))


FLAGS = (
    "virtual", "pure", "static", "const", "forward", "has_init", "has_else",
    "has_cond", "has_step", "array", "postfix",
)

FLAG_SOURCE = """class Fwd;
class Base {
public:
  Base(int x) : v(x + 1) {}
  virtual ~Base() {}
  virtual int size() const = 0;
  static int count();
  void plain(int a = 2 * 3);
  int v;
};
enum Plain { A, B };
enum Init { C = 1, D = 2 };
void f(int n) {
  int arr[4];
  int i = 0;
  int* p = new int[n];
  delete[] p;
  int* q = new int(1);
  delete q;
  for (;;) { break; }
  for (i = 0; i < n; i++) { }
  if (n) { i += 1; } else { i = 2; }
  if (n) { }
}
"""

NO_FN_FLAGS = {"virtual": False, "static": False, "const": False, "pure": False}


def typed_attributes(unit):
    """``(kind, name, flags)`` of each node with a flag and ``(kind,
    operator, row, col)`` of each operator node, in walk order, the
    operator's position as ``_op_span`` derives it from the tokens; every
    flag is a bool, and that span covers the operator's text on one row."""
    found = []
    for node in unit.walk():
        flags = {k: v for k, v in node.attributes.items() if k in FLAGS}
        assert all(type(v) is bool for v in flags.values()), (node.kind, flags)
        if flags:
            found.append((node.kind, node.attr("name"), flags))
        if node.kind in ("BinaryExpr", "AssignExpr"):
            op = _op_span(node)
            assert (op.end_row, op.end_col - op.col + 1) == (op.row, len(node.attr("operator"))), (node.kind, op)
            found.append((node.kind, node.attr("operator"), op.row, op.col))
    return found


def test_attribute_types_on_every_flag():
    assert typed_attributes(parse_src(FLAG_SOURCE)) == [
        ("ClassDef", "Fwd", {"forward": True}),
        ("Destructor", "Base", {"virtual": True, "pure": False}),
        ("FunctionDef", "size", {"virtual": True, "static": False, "const": True, "pure": True}),
        ("FunctionDef", "count", dict(NO_FN_FLAGS, static=True)),
        ("FunctionDef", "plain", NO_FN_FLAGS),
        ("VarDecl", "v", {"has_init": False}),
        ("Enumerator", "A", {"has_init": False}),
        ("Enumerator", "B", {"has_init": False}),
        ("Enumerator", "C", {"has_init": True}),
        ("Enumerator", "D", {"has_init": True}),
        ("FunctionDef", "f", NO_FN_FLAGS),
        ("VarDecl", "arr", {"array": True, "has_init": False}),
        ("VarDecl", "i", {"has_init": True}),
        ("VarDecl", "p", {"has_init": True}),
        ("NewExpr", "", {"array": True}),
        ("DeleteExpr", "", {"array": True}),
        ("VarDecl", "q", {"has_init": True}),
        ("NewExpr", "", {"array": False}),
        ("DeleteExpr", "", {"array": False}),
        ("ForStmt", "", {"has_init": False, "has_cond": False, "has_step": False}),
        ("ForStmt", "", {"has_init": True, "has_cond": True, "has_step": True}),
        ("AssignExpr", "=", 21, 10),
        ("BinaryExpr", "<", 21, 17),
        ("UnaryExpr", "", {"postfix": True}),
        ("IfStmt", "", {"has_else": True}),
        ("AssignExpr", "+=", 22, 14),
        ("AssignExpr", "=", 22, 31),
        ("IfStmt", "", {"has_else": False}),
    ]


def test_attribute_types_on_example_fixture():
    with open(fixture_path("ExampleImpl.cpp"), encoding="utf-8") as handle:
        unit = parse_src(handle.read())
    assert typed_attributes(unit) == [
        ("VarDecl", "ll", {"has_init": True}),
        ("FunctionDef", "derive", NO_FN_FLAGS),
        ("FunctionDef", "compute", NO_FN_FLAGS),
        ("VarDecl", "ll", {"has_init": True}),
        ("VarDecl", "total", {"has_init": True}),
        ("BinaryExpr", "+", 16, 22),
        ("IfStmt", "", {"has_else": False}),
        ("BinaryExpr", ">", 17, 17),
        ("AssignExpr", "=", 18, 19),
        ("BinaryExpr", "+", 18, 27),
        ("VarDecl", "arraySize", {"has_init": True}),
        ("VarDecl", "other", {"has_init": True}),
        ("VarDecl", "tempint", {"has_init": True}),
        ("VarDecl", "tempint", {"has_init": False}),
    ]


def test_all_kinds_in_catalog():
    source = """
    namespace n {
      using namespace std;
      class B {};
      class A : public B {
      public:
        A();
        ~A();
        virtual void m() = 0;
        int field;
      };
      enum E { X = 1 };
      typedef int size_t;
      int f(int p) {
        int* q = new int[3];
        delete [] q;
        int v = (p + 1) * 2;
        v += p.x;
        if (v > 0 && v < 9 || !v) { v--; } else { v = f(v); }
        switch (v) { case 1: { break; } default: { } }
        for (int i = 0; i < 3; i = i + 1) { continue; }
        while (v) { break; }
        do { goto end; } while (false);
        end: ;
        return v;
      }
    }
    """
    unit = parse_src(source)
    seen = {n.kind for n in unit.walk()}
    assert seen <= set(NODE_KINDS)
    # everything in the published catalog is constructible
    missing = set(NODE_KINDS) - seen - {"DoStmt"}
    assert "DoStmt" in seen
    assert missing == set(), missing


PARSE_ERRORS = [
    ("class_without_name", "class { int x; };", "expected identifier, found '{'", 1, 7),
    ("unterminated_namespace", "namespace n { int a;", "unterminated namespace 'n'", 1, 20),
    ("unterminated_class", "class A { int a;", "unterminated class 'A'", 1, 16),
    ("unterminated_block", "void f() { int a;", "unterminated block", 1, 17),
    ("unterminated_switch_body", "void f() { switch (x) { case 1: a;", "unterminated switch body", 1, 34),
    ("switch_item", "void f() { switch (x) { a; } }", "expected 'case' or 'default'", 1, 25),
    ("statement_at_end", "void f() { if (x)", "expected statement, found end of input", 1, 17),
    ("type_at_end", "static const", "expected type, found end of input", 1, 12),
    ("type_keyword_at_end", "static", "expected type, found end of input", 1, 6),
    ("parameter_at_end", "void f(", "expected type, found end of input", 1, 7),
    ("parameter_after_comma_at_end", "void f(int a,", "expected type, found end of input", 1, 13),
    ("new_at_end", "void f() { x = new", "expected type, found end of input", 1, 18),
    ("expression_at_end", "void f() { x = ", "expected expression, found end of input", 1, 14),
    ("trailing_argument_comma", "void f() { f(1,); }", "expected expression, found ')'", 1, 16),
    ("trailing_parameter_comma", "void f(int a,) {}", "expected type, found ')'", 1, 14),
    ("top_level_virtual", "virtual void f();", "expected type, found 'virtual'", 1, 1),
    ("member_using", "class A { using namespace n; };", "expected type, found 'using'", 1, 11),
    ("static_constructor", "class A { static A(); };", "expected identifier, found '('", 1, 19),
    ("local_function", "void f() { int g(); }", "expected ';', found '('", 1, 17),
    ("using_trailing_scope", "using namespace a::;", "expected identifier, found ';'", 1, 20),
    # a qualified name that names no type starts an expression, which stops at ``::``
    ("unknown_scope", "namespace n { class C { }; }\nvoid f() { m::C * x; }", "expected ';', found '::'", 2, 13),
    ("unknown_inner_scope", "namespace n { namespace m { } }\nvoid f() { n::k::C * x; }", "expected ';', found '::'", 2, 13),
    ("unknown_type_in_scope", "namespace n { class C { }; }\nvoid f() { n::D * x; }", "expected ';', found '::'", 2, 13),
    ("class_at_end", "class", "expected identifier, found end of input", 1, 5),
    ("namespace_at_end", "namespace", "expected identifier, found end of input", 1, 9),
    ("declarator_at_end", "int", "expected identifier, found end of input", 1, 3),
]


@pytest.mark.parametrize(
    "source,message,row,col", [case[1:] for case in PARSE_ERRORS], ids=[case[0] for case in PARSE_ERRORS]
)
def test_parse_error_is_fatal_with_position(source, message, row, col):
    with pytest.raises(ParseError) as exc:
        parse_src(source)
    assert (exc.value.span.row, exc.value.span.col) == (row, col)
    assert str(exc.value) == "test.cpp:%d:%d: %s" % (row, col, message)


def _nested(head, level, leaf, tail, levels=200):
    """``head``, then ``level`` on a line of its own ``levels`` times, then
    ``leaf``, the closing ``tail`` of each level, and the end of ``head``'s
    block; the first level is on row 2."""
    return "%s %s%s%s;\n}\n" % (head, (level + "\n") * levels, leaf, tail * levels)


# name, source, the row and column where the nesting limit fires
NESTING_LIMITS = [
    ("parentheses", _nested("int f() {\n  return", "(", "1", ")"), 65, 1),
    ("prefix_minus", _nested("int f() {\n  return", "-", "1", ""), 127, 1),
    ("prefix_minus_to_the_leaf", _nested("int f() {\n  return", "-", "x", "", levels=125), 127, 1),
    ("nested_calls", _nested("int f() {\n  return", "f(", "1", ")"), 65, 1),
    ("member_and_postfix_chains", _nested("int f() {\n  return", "(p->q->r++ + s.t--->u +", "1", ")"), 64, 2),
    ("new_array", _nested("void f() {\n ", "new int[", "1", "]"), 65, 1),
    ("delete", _nested("void f() {\n ", "delete", "p", ""), 127, 1),
    ("binary_chain", _nested("int f() {\n  return", "(a || b && c | d ^ e & f == g < h << i + j *", "1", ")"), 64, 2),
]


@pytest.mark.parametrize(
    "source,row,col", [case[1:] for case in NESTING_LIMITS], ids=[case[0] for case in NESTING_LIMITS]
)
def test_nesting_limit_fires_at_the_same_token(source, row, col):
    """Each ``parse_assign`` and ``parse_unary`` frame of an expression
    counts one level of nesting, so the limit fires at the token pinned
    for each form."""
    with pytest.raises(ParseError, match="nesting deeper than 128 levels") as exc:
        parse_src(source)
    assert (exc.value.span.row, exc.value.span.col) == (row, col)


def test_dropped_nodes_leave_no_positions_behind():
    """A default argument's and an initializer's nodes are made and dropped,
    and their ids are given again to the nodes made next, which take their
    own first and last tokens."""
    source = (
        "class A {\n"
        "  int m, n;\n"
        "  A(int a = 1 + 2) : m(a * 3), n(4) { int x = m; }\n"
        "  void g(int b = f(5)) { n = b; }\n"
        "};\n"
    )
    unit = parse_src(source)
    spans = [(node.node_id, node.kind, tuple(node.span[1:])) for node in unit.walk()]
    assert sorted(spans) == [
        (1, "VarDecl", (2, 3, 2, 7)),
        (2, "VarDecl", (2, 10, 2, 10)),
        (3, "ParamDecl", (3, 5, 3, 17)),
        (4, "IdentExpr", (3, 47, 3, 47)),
        (5, "VarDecl", (3, 39, 3, 47)),
        (6, "CompoundStmt", (3, 37, 3, 50)),
        (7, "Constructor", (3, 3, 3, 50)),
        (8, "ParamDecl", (4, 10, 4, 21)),
        (9, "IdentExpr", (4, 26, 4, 26)),
        (10, "IdentExpr", (4, 30, 4, 30)),
        (11, "AssignExpr", (4, 26, 4, 30)),
        (12, "ExprStmt", (4, 26, 4, 31)),
        (13, "CompoundStmt", (4, 24, 4, 33)),
        (14, "FunctionDef", (4, 3, 4, 33)),
        (15, "ClassDef", (1, 1, 5, 2)),
        (16, "TranslationUnit", (1, 1, 5, 2)),
    ]
    assert tuple(_op_span(find_all(unit, "AssignExpr")[0])[1:]) == (4, 28, 4, 28)


def outline(node):
    """``Kind`` or ``Kind:name``, then the outlines of the children in
    parentheses."""
    label = node.kind + (":" + node.attr("name") if node.attr("name") else "")
    if not node.children:
        return label
    return "%s(%s)" % (label, " ".join(outline(child) for child in node.children))


GRAMMAR = [
    ("using_qualified", "using namespace a::b;", "UsingDirective:a::b"),
    (
        "qualified_bases",
        "namespace ns { class A { }; } class B : public ns::A, C { };",
        "NamespaceDef:ns(ClassDef:A) ClassDef:B(BaseSpec:ns::A BaseSpec:C)",
    ),
    (
        "enum_and_typedef_members",
        "class A { enum E { X }; typedef int T; T t; E e; };",
        "ClassDef:A(EnumDef:E(Enumerator:X) TypedefDecl:T VarDecl:t VarDecl:e)",
    ),
    ("void_parameters", "int f(void); int g(void) { }", "FunctionDef:f FunctionDef:g(CompoundStmt)"),
    (
        "initializer_arguments",
        "class A { A(int x) : a(x, 1), b(x, 2, 3) { } int a, b; };",
        "ClassDef:A(Constructor:A(ParamDecl:x CompoundStmt) VarDecl:a VarDecl:b)",
    ),
    (
        "new_arguments",
        "class T { }; void f() { new T(1, 2); }",
        "ClassDef:T FunctionDef:f(CompoundStmt(ExprStmt(NewExpr(Literal Literal))))",
    ),
    (
        "call_arguments",
        "void f() { g(1, 2, h()); }",
        "FunctionDef:f(CompoundStmt(ExprStmt(CallExpr(IdentExpr:g Literal Literal CallExpr(IdentExpr:h)))))",
    ),
    # each declarator of a namespace-level declaration is a child of the
    # namespace, as in a class or a block
    (
        "top_level_declarators",
        "int a, *b; namespace n { int c, d[2]; }",
        "VarDecl:a VarDecl:b NamespaceDef:n(VarDecl:c VarDecl:d(Literal))",
    ),
]


@pytest.mark.parametrize(
    "source,expected", [case[1:] for case in GRAMMAR], ids=[case[0] for case in GRAMMAR]
)
def test_grammar_outline(source, expected):
    assert " ".join(outline(child) for child in parse_src(source).children) == expected


def test_top_level_static_function():
    unit = parse_src("static void f() {} void g(); namespace n { static int h(); }")
    assert [fn.attr("static") for fn in find_all(unit, "FunctionDef")] == [True, False, True]


@pytest.mark.parametrize("body", ["A() { typedef int T; }", "~A() { typedef int T; }", "void g() { typedef int T; }"])
def test_body_types_stay_in_body(body):
    """A type declared in a function, constructor or destructor body is not
    a type in the rest of its class."""
    unit = parse_src("class A { %s void f() { T * x; } };" % body)
    stmt = find_all(unit, "FunctionDef")[-1].children[0].children[0]
    assert stmt.kind == "ExprStmt"


@pytest.mark.parametrize("source", [
    "class T {}; void f(int T) { T * x; }",
    "class T {}; namespace n { void T(); void f() { T * x; } }",
    "class T {}; class A { int T; void f() { T * x; } };",
])
def test_non_types_hide_types(source):
    [body] = [n for n in find_all(parse_src(source), "FunctionDef") if n.attr("name") == "f"][0].children[-1:]
    assert kinds(body) == ["ExprStmt"]


def test_constructor_name_is_a_type_in_member_bodies():
    unit = parse_src("class C { public: C(); void g() { C * p = 0; } };")
    assert [decl.attr("name") for decl in find_all(unit, "VarDecl")] == ["p"]


@pytest.mark.parametrize("body", [
    "if (c) int a = 1;", "if (c) ; else int a = 1;", "while (c) int a = 1;",
    "do int a = 1; while (c);", "for (;;) int a = 1;", "if (c) typedef int a;",
])
def test_unbraced_declaration_body_is_wrapped(body):
    """An unbraced body that declares gets a CompoundStmt spanning its
    declaration, as several declarators do."""
    unit = parse_src("void f() { %s }" % body)
    [compound] = [n for n in find_all(unit, "CompoundStmt") if n.children and n.children[0].attr("name") == "a"]
    assert compound.span == compound.children[0].span


def test_outer_types_seen_in_nested_blocks():
    unit = parse_src("typedef int T; void f() { typedef int U; { if (c) { T * x; U * y; } } }")
    assert [decl.attr("name") for decl in find_all(unit, "VarDecl")] == ["x", "y"]


def test_preprocessed_line_markers_skipped():
    unit = parse_src('# 1 "orig.cpp"\nint x = 0;\n')
    assert unit.children[0].kind == "VarDecl"
    assert unit.children[0].span.row == 2


class TestDisambiguation:
    """Hand-labeled statement classification fixtures."""

    CASES = [
        ("class T {};", "T * x;", "VarDecl"),
        ("int a; int b;", "a * b;", "ExprStmt"),
        ("typedef int I;", "I i = 0;", "VarDecl"),
        ("class T {};", "T x;", "VarDecl"),
        ("typedef int myint_t;", "myint_t value = 3;", "VarDecl"),
        ("int a; int b;", "a = b;", "ExprStmt"),
        ("enum E { X };", "E e;", "VarDecl"),
        ("class T {};", "T & r = t;", "VarDecl"),
        ("int t;", "t + 1;", "ExprStmt"),
        ("int call();", "call();", "ExprStmt"),
        ("class T {};", "T ** pp;", "VarDecl"),
        ("int a;", "a;", "ExprStmt"),
        ("namespace n { class C { }; }", "n::C * p;", "VarDecl"),
        ("namespace n { typedef int T; }", "n::T t = 0;", "VarDecl"),
        ("class A { public: class B { }; };", "A::B * p;", "VarDecl"),
        ("namespace n { namespace m { enum E { X }; } }", "n::m::E e;", "VarDecl"),
        ("", "const int c = 0;", "VarDecl"),
        ("", "int const c = 0;", "VarDecl"),
        ("int i;", "++i;", "ExprStmt"),
        ("int* p;", "*p = 0;", "ExprStmt"),
        ("int i;", "(i);", "ExprStmt"),
        # a type declared in a braced block is not a type after the block
        ("", "{ typedef int T; } T * x;", "ExprStmt"),
        ("", "{ { } class T { }; } T * x;", "ExprStmt"),
        ("", "{ enum T { X }; } T * x;", "ExprStmt"),
        ("", "if (c) { typedef int T; } T * x;", "ExprStmt"),
        ("", "if (c) { } else { class T { }; } T * x;", "ExprStmt"),
        ("", "while (c) { typedef int T; } T * x;", "ExprStmt"),
        ("", "do { enum T { X }; } while (c); T * x;", "ExprStmt"),
        ("", "for (;;) { typedef int T; } T * x;", "ExprStmt"),
        # nor after an unbraced body or a switch
        ("", "if (c) typedef int T; T * x;", "ExprStmt"),
        ("", "if (c) ; else class T { }; T * x;", "ExprStmt"),
        ("", "while (c) typedef int T; T * x;", "ExprStmt"),
        ("", "do class T { }; while (c); T * x;", "ExprStmt"),
        ("", "for (;;) typedef int T; T * x;", "ExprStmt"),
        ("", "switch (c) { case 1: typedef int T; } T * x;", "ExprStmt"),
        ("", "switch (c) { default: class T { }; } T * x;", "ExprStmt"),
        # a variable, a parameter or a function hides a type
        ("class T {};", "int T; T * x;", "ExprStmt"),
        ("class T {};", "{ int T; } T * x;", "VarDecl"),
        # a using directive makes a namespace's names visible where it is
        ("namespace n { class C { }; }\nusing namespace n;", "C * p;", "VarDecl"),
        ("namespace n { class C { }; }", "using namespace n; C * p;", "VarDecl"),
        ("namespace n { class C { }; }", "{ using namespace n; } C * p;", "ExprStmt"),
        ("namespace n { class C { }; }", "if (c) using namespace n; C * p;", "ExprStmt"),
        ("namespace n { namespace m { class C { }; } }\nusing namespace n::m;", "C * p;", "VarDecl"),
        # it serves a qualified name's first part, and another directive's name
        ("namespace a { namespace b { class C {}; } } using namespace a;", "b::C * x;", "VarDecl"),
        ("namespace a { namespace b { class C {}; } } using namespace a; using namespace b;", "C * x;", "VarDecl"),
        # but it is not transitive
        ("namespace a { namespace b { class C {}; } using namespace b; } using namespace a;", "C * x;", "ExprStmt"),
    ]

    @pytest.mark.parametrize("prelude,stmt,expected", CASES)
    def test_statement_kind(self, prelude, stmt, expected):
        source = "%s\nvoid wrapper() {\n%s\n}\n" % (prelude, stmt)
        unit = parse_src(source)
        body = [c for c in unit.walk() if c.kind == "CompoundStmt"][0]
        stmts = [c for c in body.children if c.kind in ("VarDecl", "ExprStmt")]
        assert stmts, "statement not found"
        assert stmts[-1].kind == expected


def span_slice(text, span):
    lines = text.splitlines()
    if span.row == span.end_row:
        return lines[span.row - 1][span.col - 1 : span.end_col]
    parts = [lines[span.row - 1][span.col - 1 :]]
    parts.extend(lines[r] for r in range(span.row, span.end_row - 1))
    parts.append(lines[span.end_row - 1][: span.end_col])
    return "\n".join(parts)


SPAN_SOURCE = """class T {};
int counter = 0;
void run(int p) {
  int x = p + 1;
  if (x > 2) { counter = x; }
  T * instance;
}
"""


def test_span_fidelity():
    """The source slice of every node re-lexes to the node's tokens."""
    unit = parse_src(SPAN_SOURCE)
    all_tokens = token_tuples(lex(SPAN_SOURCE, "test.cpp"))
    for node in unit.walk():
        covered = [
            text
            for _kind, text, row, col in all_tokens
            if (node.span.row, node.span.col)
            <= (row, col)
            and (row, col + len(text) - 1)
            <= (node.span.end_row, node.span.end_col)
        ]
        sliced = span_slice(SPAN_SOURCE, node.span)
        relexed = token_tuples(lex(sliced, "slice.cpp"))
        assert [text for _kind, text, _row, _col in relexed] == covered, node.kind


def test_node_spans_decode_once():
    """A parsed node decodes its span on its first read from its unit's
    token columns and keeps it, owning no token index itself, and a leaf
    shares the empty tuple; a hand-built node keeps the span it was given."""
    assert not {"first", "last"} & set(AstNode.__slots__)
    unit = parse_src(SPAN_SOURCE)
    for node in unit.walk():
        assert node.span is node.span
        assert node.children or node.children == ()
    span = SourceSpan("test.cpp", 2, 3, 2, 5)
    node = AstNode("minicpp", "IdentExpr", span, {"name": "abc"})
    assert node.span is span
    assert node.children == []


def test_leaf_spans_in_token_order():
    unit = parse_src(SPAN_SOURCE)
    leaves = [n for n in unit.walk() if not n.children]
    positions = [(n.span.row, n.span.col) for n in leaves]
    assert positions == sorted(positions)


def test_analyze_cpp_helper_builds_symbols():
    root = analyze_cpp("class A { public: void f(); };")
    assert root.symbols is not None
    assert root.ast.kind == "TranslationUnit"


def test_parsed_nodes_share_read_only_attributes():
    """The IdentExprs of one name in a unit share one read-only mapping, as
    do its equal literals and operators and its nodes without attributes;
    no unit shares a mapping of attributes with another, and a hand-built
    node keeps its own dict."""
    source = "void f(int a) { a = a + 1; a = a - 1; }"
    unit, other = parse_src(source), parse_src(source)
    idents = find_all(unit, "IdentExpr")
    assert [node.attr("name") for node in idents] == ["a"] * 4
    assert len({id(node.attributes) for node in idents}) == 1
    literals = find_all(unit, "Literal")
    assert literals[0].attributes is literals[1].attributes
    assigns = find_all(unit, "AssignExpr")
    assert assigns[0].attributes is assigns[1].attributes
    statements = find_all(unit, "ExprStmt")
    assert statements[0].attributes is statements[1].attributes is NO_ATTRIBUTES
    for node in (idents[0], literals[0], assigns[0], statements[0]):
        with pytest.raises(TypeError):
            node.attributes["name"] = "b"
    assert [node.attr("name") for node in idents] == ["a"] * 4
    shared = {id(node.attributes) for node in unit.walk() if node.attributes}
    assert shared.isdisjoint(id(node.attributes) for node in other.walk() if node.attributes)
    built = [AstNode("minicpp", "IdentExpr", SourceSpan.point("x.cpp", 1, 1)) for _ in range(2)]
    built[0].attributes["name"] = "a"
    assert (built[0].attributes, built[1].attributes) == ({"name": "a"}, {})


CALLS_PER_TOKEN = 6.0  # Python calls the parse of grammar.cpp may make per token


def test_parse_calls_per_token():
    """The parse of the grammar fixture makes at most ``CALLS_PER_TOKEN``
    Python calls per token, counted by a profile function: a count, unlike
    a time, does not drift with the host. The profile function in place
    before is put back."""
    with open(fixture_path("grammar.cpp"), encoding="utf-8") as handle:
        tokens = lex(handle.read(), "grammar.cpp")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        parse(tokens)
    finally:
        sys.setprofile(previous)
    per_token = calls / len(tokens)
    assert per_token <= CALLS_PER_TOKEN, "the parse made %.2f Python calls per token" % per_token
