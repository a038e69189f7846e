import pytest

from conftest import analyze_cpp

from cglint.errors import ParseError
from cglint.minicpp import NODE_KINDS, lex, parse


def parse_src(source):
    return parse(lex(source, "test.cpp"), file="test.cpp")


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
    assert [e.attr("has_init") for e in enum.children] == ["false", "false"]


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
    assert (dtor.kind, dtor.attr("virtual")) == ("Destructor", "true")


def test_pure_virtual_method():
    unit = parse_src("class A { public: virtual double derive() = 0; };")
    fn = unit.children[0].children[1]
    assert fn.kind == "FunctionDef"
    assert fn.attr("pure") == "true"
    assert fn.attr("virtual") == "true"
    assert fn.attr("return_type") == "double"


def test_constructor_recognized():
    unit = parse_src("class A { public: A(); ~A(); void f(); };")
    member_kinds = kinds(unit.children[0])
    assert member_kinds == ["AccessSection", "Constructor", "Destructor", "FunctionDef"]


def test_node_ids_unique():
    unit = parse_src("class A { public: void f() { int x = 0; } }; int main() { return 0; }")
    ids = [n.node_id for n in unit.walk()]
    assert len(ids) == len(set(ids))


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


def test_parse_error_is_fatal_with_position():
    with pytest.raises(ParseError) as exc:
        parse_src("class { int x; };")
    assert exc.value.span.row == 1


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
    all_tokens = lex(SPAN_SOURCE, "test.cpp")
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
        relexed = lex(sliced, "slice.cpp")
        assert [text for _kind, text, _row, _col in relexed] == covered, node.kind


def test_leaf_spans_in_token_order():
    unit = parse_src(SPAN_SOURCE)
    leaves = [n for n in unit.walk() if not n.children]
    positions = [(n.span.row, n.span.col) for n in leaves]
    assert positions == sorted(positions)


def test_analyze_cpp_helper_builds_symbols():
    root = analyze_cpp("class A { public: void f(); };")
    assert root.symbols is not None
    assert root.ast.kind == "TranslationUnit"
