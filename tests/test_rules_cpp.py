"""One positive and one negative fixture for each of the 18 C++ checkers."""

import pytest
from conftest import analyze_cpp, find_all, run_rule, run_rules


def messages(findings):
    return [f.message for f in findings]


class TestConstructorChecker:
    def test_out_of_order(self):
        findings = run_rule(
            "ConstructorChecker",
            "class C { public: void m(); C(); ~C(); };",
        )
        assert len(findings) == 2
        assert "out of order" in findings[0].message

    def test_ordered(self):
        findings = run_rule(
            "ConstructorChecker",
            "class C { public: C(); ~C(); void m(); };",
        )
        assert findings == []


class TestDestructorChecker:
    def test_derived_without_virtual_dtor(self):
        src = "class B { public: virtual ~B(); };\nclass D : public B { public: ~D(); };"
        findings = run_rule("DestructorChecker", src)
        assert messages(findings) == ["Class 'D' must declare a virtual destructor."]

    def test_polymorphic_without_dtor(self):
        findings = run_rule(
            "DestructorChecker", "class C { public: virtual void m(); };"
        )
        assert len(findings) == 1

    def test_virtual_dtor_present(self):
        findings = run_rule(
            "DestructorChecker",
            "class C { public: virtual void m(); virtual ~C(); };",
        )
        assert findings == []

    def test_plain_class_needs_nothing(self):
        assert run_rule("DestructorChecker", "class C { public: void m(); };") == []


class TestEnumChecker:
    def test_mixed_initializers(self):
        findings = run_rule("EnumChecker", "enum E { A = 1, B };")
        assert "mixes initialized" in findings[0].message

    def test_all_or_none(self):
        assert run_rule("EnumChecker", "enum E { A = 1, B = 2 };") == []
        assert run_rule("EnumChecker", "enum E { A, B };") == []


class TestExpressionChecker:
    def test_mixed_without_parens(self):
        findings = run_rule(
            "ExpressionChecker",
            "void f() { bool r = true; if (r && r || r) { r = false; } }",
        )
        assert messages(findings) == ["Mixed '&&' and '||' without parentheses."]

    def test_parenthesized_is_fine(self):
        findings = run_rule(
            "ExpressionChecker",
            "void f() { bool r = true; if ((r && r) || r) { r = false; } }",
        )
        assert findings == []

    def test_homogeneous_chain_is_fine(self):
        findings = run_rule(
            "ExpressionChecker",
            "void f() { bool r = true; if (r && r && r) { r = false; } }",
        )
        assert findings == []


class TestExpressionAssignmentChecker:
    def test_assignment_in_if(self):
        findings = run_rule(
            "ExpressionAssignmentChecker",
            "void f() { int x = 0; if (x = 1) { x = 2; } }",
        )
        assert messages(findings) == ["Assignment inside a condition expression."]

    def test_assignment_in_while_and_for(self):
        findings = run_rule(
            "ExpressionAssignmentChecker",
            "void f() { int x = 0; while (x = 1) { }\nfor (int i = 0; i = 1; i = i + 1) { } }",
        )
        assert len(findings) == 2

    def test_comparison_is_fine(self):
        findings = run_rule(
            "ExpressionAssignmentChecker",
            "void f() { int x = 0; if (x == 1) { x = 2; } }",
        )
        assert findings == []

    def test_finding_points_at_operator(self):
        findings = run_rule(
            "ExpressionAssignmentChecker",
            "void f() {\n  int x = 0;\n  if (x = 1) { }\n}",
        )
        assert (findings[0].span.row, findings[0].span.col) == (3, 9)


class TestFlowControlChecker:
    def test_goto_and_label(self):
        findings = run_rule(
            "FlowControlChecker",
            "void f() { goto out;\nout: ; }",
        )
        assert any("goto" in m for m in messages(findings))
        assert any("Label" in m for m in messages(findings))

    def test_break_in_loop(self):
        findings = run_rule(
            "FlowControlChecker",
            "void f() { while (true) { break; } }",
        )
        assert messages(findings) == ["'break' used to leave a loop."]

    def test_break_in_nested_switch_not_charged_to_loop(self):
        findings = run_rule(
            "FlowControlChecker",
            "void f() { int x = 0; while (true) { switch (x) { default: { break; } } } }",
        )
        assert findings == []

    def test_break_in_do_body(self):
        findings = run_rule("FlowControlChecker", "void f(int x) { do { break; } while (x); }")
        assert messages(findings) == ["'break' used to leave a loop."]
        assert (findings[0].span.row, findings[0].span.col) == (1, 22)

    def test_break_in_switch_in_do_body_not_charged_to_loop(self):
        findings = run_rule(
            "FlowControlChecker",
            "void f(int x) { do { switch (x) { default: break; } } while (x); }",
        )
        assert findings == []


class TestFunctionChecker:
    def test_too_many_lines_with_property(self):
        src = "void f() {\n  int a = 0;\n  a = 1;\n  a = 2;\n}"
        findings = run_rule("FunctionChecker", src, {"maxLines": "3"})
        assert "body lines" in findings[0].message

    def test_too_many_params(self):
        findings = run_rule(
            "FunctionChecker",
            "void f(int a, int b, int c) { }",
            {"maxParams": "2"},
        )
        assert "3 parameters" in findings[0].message

    def test_bad_name_reported_once_by_the_full_rule_set(self, cpp_registry):
        findings = run_rules(analyze_cpp("void Do_Work() { }"), set(cpp_registry.rule_ids()))
        assert [(f.rule_id, f.message) for f in findings if "lowerCamelCase" in f.message] == [
            ("NamingConventionChecker", "Function 'Do_Work' is not named in lowerCamelCase.")
        ]

    def test_within_limits(self):
        assert run_rule("FunctionChecker", "void doWork(int a) { }") == []


class TestIdentifierChecker:
    def test_shadow_like_names(self):
        src = "void f() {\n  int value = 0;\n  if (value > 0) {\n    int _value = 1;\n  }\n}"
        findings = run_rule("IdentifierChecker", src)
        assert messages(findings) == [
            'Local Variable "_value" is named similar to "value : int".'
        ]
        assert findings[0].span.row == 4

    def test_instance_variable_wording(self):
        src = "class C { public: int total; void m() { int _total = 0; } };"
        findings = run_rule("IdentifierChecker", src)
        assert messages(findings) == [
            'Local Variable "_total" is named similar to instance variable "total : int".'
        ]

    def test_unrelated_scopes_not_compared(self):
        src = "void f() { int temp = 0; }\nvoid g() { int _temp = 0; }"
        assert run_rule("IdentifierChecker", src) == []

    def test_distinct_names_fine(self):
        src = "void f() { int alpha = 0; { int beta = 1; } }"
        assert run_rule("IdentifierChecker", src) == []

    def test_same_scope_tie_reports_later_binding(self):
        src = "void f() { int value = 0; int _value = 1; }"
        findings = run_rule("IdentifierChecker", src)
        assert messages(findings) == [
            'Local Variable "_value" is named similar to "value : int".'
        ]
        assert findings[0].span.col == 27

    def test_nested_collisions_in_order(self):
        src = (
            "class C { public: int count; int size;\n"
            "  void m(int _count) {\n"
            "    int SIZE = 0;\n"
            "    { int co_unt = 1; int s_ize = 2; }\n"
            "  }\n"
            "};"
        )
        findings = run_rule("IdentifierChecker", src)
        assert [(f.span.row, f.span.col, f.message) for f in findings] == [
            (2, 10, 'Parameter "_count" is named similar to instance variable "count : int".'),
            (3, 5, 'Local Variable "SIZE" is named similar to instance variable "size : int".'),
            (4, 7, 'Local Variable "co_unt" is named similar to "_count : int".'),
            (4, 7, 'Local Variable "co_unt" is named similar to instance variable "count : int".'),
            (4, 23, 'Local Variable "s_ize" is named similar to "SIZE : int".'),
            (4, 23, 'Local Variable "s_ize" is named similar to instance variable "size : int".'),
        ]

    def test_blocks_of_one_namespace_share_a_scope(self):
        src = "namespace ns { int value = 0; }\nnamespace ns { int _value = 1; }"
        findings = run_rule("IdentifierChecker", src)
        assert messages(findings) == [
            'Local Variable "_value" is named similar to "value : int".'
        ]
        assert findings[0].span.row == 2


class TestIfChecker:
    def test_braceless_then(self):
        findings = run_rule(
            "IfChecker", "void f() { int x = 0; if (x > 0) x = 1; }"
        )
        assert messages(findings) == ["If branch without braces."]

    def test_braceless_else(self):
        findings = run_rule(
            "IfChecker", "void f() { int x = 0; if (x > 0) { x = 1; } else x = 2; }"
        )
        assert messages(findings) == ["Else branch without braces."]

    @pytest.mark.parametrize("branches,message", [
        ("if (c) int d = 1;", "If branch without braces."),
        ("if (c) int a = 1, b = 2;", "If branch without braces."),
        ("if (c) { } else int d = 1;", "Else branch without braces."),
        ("if (c) { } else int a = 1, b = 2;", "Else branch without braces."),
    ])
    def test_braceless_declaration(self, branches, message):
        findings = run_rule("IfChecker", "void f() { int c = 1; %s }" % branches)
        assert messages(findings) == [message]

    def test_braceless_declaration_span(self):
        """The CompoundStmt that scopes an unbraced declaration is not a
        brace: the finding is where the declaration starts."""
        root = analyze_cpp("void f() { int c = 1; if (c) int a = 1; }")
        [finding] = run_rules(root, {"IfChecker"})
        [branch] = find_all(root.ast, "IfStmt")[0].children[1:]
        assert branch.kind == "CompoundStmt"
        assert branch.span == branch.children[0].span == ("test.cpp", 1, 30, 1, 38)
        assert finding.span == ("test.cpp", 1, 30, 1, 30)

    def test_braced_declarators(self):
        src = "void f() { int c = 1; if (c) {int a = 1, b = 2;} else {int d, e;} }"
        assert run_rule("IfChecker", src) == []

    def test_else_if_exempt(self):
        findings = run_rule(
            "IfChecker",
            "void f() { int x = 0; if (x > 0) { x = 1; } else if (x < 0) { x = 2; } }",
        )
        assert findings == []


class TestInitializedVariableChecker:
    def test_uninitialized_local(self):
        findings = run_rule("InitializedVariableChecker", "void f() { int x; x = 1; }")
        assert messages(findings) == ["Local variable 'x' is not initialized."]

    def test_initialized_local(self):
        assert run_rule("InitializedVariableChecker", "void f() { int x = 0; }") == []

    def test_members_and_globals_exempt(self):
        src = "int global_state;\nclass C { public: int field; };"
        assert run_rule("InitializedVariableChecker", src) == []


INTERFACE_PRELUDE = """
class Function {
public:
  virtual double eval() = 0;
  virtual double derive() = 0;
  virtual ~Function();
};
"""


class TestInterfaceChecker:
    def test_extra_public_function(self):
        src = INTERFACE_PRELUDE + (
            "class Polynomial : public Function {\n"
            "public:\n  double eval();\n  double derive();\n  double integrate();\n};"
        )
        findings = run_rule("InterfaceChecker", src)
        assert messages(findings) == [
            "Class Polynomial has public functions not declared in interfaces: "
            "integrate : DOUBLE"
        ]

    def test_fully_declared_api(self):
        src = INTERFACE_PRELUDE + (
            "class Polynomial : public Function {\n"
            "public:\n  double eval();\n  double derive();\n};"
        )
        assert run_rule("InterfaceChecker", src) == []

    def test_constructors_and_private_exempt(self):
        src = INTERFACE_PRELUDE + (
            "class Polynomial : public Function {\n"
            "public:\n  Polynomial();\n  ~Polynomial();\n  double eval();\n"
            "  double derive();\nprivate:\n  double helper();\n};"
        )
        assert run_rule("InterfaceChecker", src) == []

    def test_static_member_exempt(self):
        src = INTERFACE_PRELUDE + (
            "class Polynomial : public Function {\n"
            "public:\n  double eval();\n  double derive();\n  static Polynomial* zero();\n};"
        )
        assert run_rule("InterfaceChecker", src) == []

    def test_close_api_disabled_skips_interfaceless_classes(self):
        src = "class Standalone { public: void api(); };"
        assert run_rule("InterfaceChecker", src, {"CloseAPI": "false"}) == []
        findings = run_rule("InterfaceChecker", src)
        assert len(findings) == 1

    def test_base_with_data_member_is_not_an_interface(self):
        src = (
            "class Base { public: virtual double eval() = 0; int cache; };\n"
            "class Impl : public Base { public: double eval(); };"
        )
        findings = run_rule("InterfaceChecker", src)
        # Base itself is not an interface either, so both classes are flagged.
        assert messages(findings) == [
            "Class Base has public functions not declared in interfaces: eval : DOUBLE",
            "Class Impl has public functions not declared in interfaces: eval : DOUBLE",
        ]


    def test_qualified_interface_base(self):
        src = (
            "namespace ns { class I { public: virtual void f() = 0; virtual ~I(); }; }\n"
            "class C : public ns::I { public: void f(); void g(); };"
        )
        assert messages(run_rule("InterfaceChecker", src)) == [
            "Class C has public functions not declared in interfaces: g : VOID"
        ]

    def test_base_in_an_earlier_block_of_its_namespace(self):
        src = (
            "namespace ns { class I { public: virtual void f() = 0; }; }\n"
            "namespace ns { class C : public I { public: void f(); }; }"
        )
        assert run_rule("InterfaceChecker", src) == []

    @pytest.mark.parametrize("forward", ["", "class I;\n"])
    def test_forward_declared_base(self, forward):
        src = forward + (
            "class I { public: virtual void f() = 0; };\n"
            "class C : public I { public: void f(); };"
        )
        assert run_rule("InterfaceChecker", src, {"CloseAPI": "false"}) == []
        assert run_rule("InterfaceChecker", src) == []

    def test_forward_declaration_after_the_class_reports_nothing(self):
        src = "class C { public: void f(); };\nclass C;"
        findings = run_rule("InterfaceChecker", src)
        assert [(f.span.row, f.message) for f in findings] == [
            (1, "Class C has public functions not declared in interfaces: f : VOID")
        ]


class TestMemoryChecker:
    def test_leaked_new(self):
        findings = run_rule(
            "MemoryChecker", "void f() { int* p = new int; }"
        )
        assert messages(findings) == [
            "Variable 'p' is allocated with new but never freed."
        ]

    def test_matched_delete(self):
        assert (
            run_rule("MemoryChecker", "void f() { int* p = new int; delete p; }")
            == []
        )

    def test_array_mismatch(self):
        findings = run_rule(
            "MemoryChecker", "void f() { int* p = new int[4]; delete p; }"
        )
        assert "wrong delete form" in findings[0].message

    def test_array_matched(self):
        assert (
            run_rule(
                "MemoryChecker", "void f() { int* p = new int[4]; delete [] p; }"
            )
            == []
        )

    def test_returned_pointer_exempt(self):
        assert (
            run_rule("MemoryChecker", "int* f() { int* p = new int; return p; }")
            == []
        )

    def test_assigned_new_is_an_allocation(self):
        findings = run_rule("MemoryChecker", "void f() { int* p = 0;\n  p = new int; }")
        assert messages(findings) == [
            "Variable 'p' is allocated with new but never freed."
        ]
        assert (findings[0].span.row, findings[0].span.col) == (2, 3)

    @pytest.mark.parametrize(
        "source",
        [
            "class C { public: int* m; void f() { int* p = new int; m = p; } };",
            "class C { public: int* m; void f() { int* p = new int; this->m = p; } };",
            "void f(int* out) { int* p = new int; out = p; }",
            "int* kept = 0;\nvoid f() { int* p = new int; kept = p; }",
            "namespace app { int* kept = 0; void f() { int* p = new int; kept = p; } }",
        ],
        ids=["member", "this_member", "parameter", "global", "namespace"],
    )
    def test_assigned_to_nonlocal_target_escapes(self, source):
        assert run_rule("MemoryChecker", source) == []

    @pytest.mark.parametrize(
        "source",
        [
            "void g();\nvoid f() { int* p = new int; g = p; }",
            "namespace app { void g(); void f() { int* p = new int; g = p; } }",
        ],
        ids=["function", "namespace_function"],
    )
    def test_assigned_to_non_variable_reported(self, source):
        assert messages(run_rule("MemoryChecker", source)) == [
            "Variable 'p' is allocated with new but never freed."
        ]

    @pytest.mark.parametrize(
        "source",
        [
            "int* q = 0;\nvoid f() { int* p = new int; { int* q = 0; q = p; } }",
            "int* q = 0;\nvoid f() { int* p = new int; for (int* q = 0; ; ) { q = p; } }",
            "int* q = 0;\nvoid f(int c) { int* p = new int; switch (c) { case 1: int* q = 0; q = p; } }",
        ],
        ids=["block", "for", "switch"],
    )
    def test_assigned_to_shadowing_local_does_not_escape(self, source):
        """The assigned name is looked up from the innermost scope, where a
        local hides the global of the same name."""
        assert messages(run_rule("MemoryChecker", source)) == [
            "Variable 'p' is allocated with new but never freed."
        ]

    def test_assigned_to_local_target_reported(self):
        findings = run_rule(
            "MemoryChecker", "void f() { int* p = new int; int* q = 0; q = p; }"
        )
        assert messages(findings) == [
            "Variable 'p' is allocated with new but never freed."
        ]


class TestNamingConventionChecker:
    def test_bad_class_name(self):
        findings = run_rule("NamingConventionChecker", "class bad_name { };")
        assert "UpperCamelCase" in findings[0].message

    def test_hungarian_prefix(self):
        findings = run_rule(
            "NamingConventionChecker", "void f() { int szBuffer = 0; }"
        )
        assert "Hungarian prefix 'sz'" in findings[0].message

    def test_custom_prefix_list(self):
        findings = run_rule(
            "NamingConventionChecker",
            "void f() { int m_count = 0; }",
            {"hungarianPrefixes": "m_"},
        )
        assert any("Hungarian prefix 'm_'" in m for m in messages(findings))

    def test_conforming_names(self):
        src = "class GoodName { public: void goodMethod() { int goodLocal = 0; } };"
        assert run_rule("NamingConventionChecker", src) == []

    def test_size_is_not_hungarian(self):
        # 'sz' prefix only counts when the remainder starts a new word
        assert run_rule("NamingConventionChecker", "void f() { int size = 0; }") == []


class TestNamespaceChecker:
    def test_global_class_and_using(self):
        src = "using namespace std;\nclass Orphan { };"
        findings = run_rule("NamespaceChecker", src)
        assert messages(findings) == [
            "'using namespace std' at global scope.",
            "Class 'Orphan' declared outside any namespace.",
        ]

    def test_main_exempt(self):
        findings = run_rule("NamespaceChecker", "int main() { return 0; }")
        assert findings == []

    def test_using_in_function_body_fine(self):
        src = "int main() { using namespace std; return 0; }"
        assert run_rule("NamespaceChecker", src) == []

    def test_namespaced_code_fine(self):
        src = "namespace app { using namespace std; class C { }; void f() { } }"
        assert run_rule("NamespaceChecker", src) == []


class TestSingleLetterVariableChecker:
    def test_single_letter_local(self):
        findings = run_rule(
            "SingleLetterVariableChecker", "void f() { int x = 0; }"
        )
        assert messages(findings) == ["Variable 'x' has a single-letter name."]

    def test_loop_index_allowed_by_default(self):
        src = "void f() { for (int i = 0; i < 3; i = i + 1) { } }"
        assert run_rule("SingleLetterVariableChecker", src) == []

    def test_loop_index_flagged_when_disallowed(self):
        src = "void f() { for (int i = 0; i < 3; i = i + 1) { } }"
        findings = run_rule(
            "SingleLetterVariableChecker", src, {"allowLoopIndices": "false"}
        )
        assert len(findings) == 1

    def test_longer_names_fine(self):
        assert run_rule("SingleLetterVariableChecker", "void f() { int xs = 0; }") == []


class TestSwitchChecker:
    def test_missing_default(self):
        src = "void f() { int x = 0; switch (x) { case 1: { break; } } }"
        findings = run_rule("SwitchChecker", src)
        assert messages(findings) == ["Switch statement has no default clause."]

    def test_braceless_clause(self):
        src = "void f() { int x = 0; switch (x) { case 1: x = 2; break; default: { } } }"
        findings = run_rule("SwitchChecker", src)
        assert messages(findings) == ["Switch clause body without braces."]

    def test_fallthrough(self):
        src = "void f() { int x = 0; switch (x) { case 1: { x = 2; } default: { } } }"
        findings = run_rule("SwitchChecker", src)
        assert messages(findings) == [
            "Switch clause falls through (no break or return)."
        ]

    def test_clean_switch(self):
        src = (
            "void f() { int x = 0; switch (x) { "
            "case 1: { x = 2; break; } default: { x = 3; break; } } }"
        )
        assert run_rule("SwitchChecker", src) == []

    def test_return_ends_clause(self):
        src = "int f() { int x = 0; switch (x) { case 1: { return 1; } default: { return 0; } } }"
        assert run_rule("SwitchChecker", src) == []

    def test_clause_without_body(self):
        """``case 1:`` shares the next clause's body: it has none to check."""
        src = "void f() { int x = 0; switch (x) { case 1: case 2: { break; } } }"
        findings = run_rule("SwitchChecker", src)
        assert messages(findings) == ["Switch statement has no default clause."]


class TestSymbolOrderChecker:
    def test_declaration_after_statement(self):
        src = "void f() { int a = 0; a = 1; int b = 2; }"
        findings = run_rule("SymbolOrderChecker", src)
        assert messages(findings) == [
            "Declaration of 'b' after the first statement of the block."
        ]

    def test_declarations_first(self):
        src = "void f() { int a = 0; int b = 1; a = b; }"
        assert run_rule("SymbolOrderChecker", src) == []

    def test_fresh_block_resets(self):
        src = "void f() { int a = 0; a = 1; { int b = 2; } }"
        assert run_rule("SymbolOrderChecker", src) == []


class TestTypeDefChecker:
    def test_nonconforming_name(self):
        findings = run_rule("TypeDefChecker", "typedef int Counter;")
        assert messages(findings) == [
            "Typedef 'Counter' does not match the pattern '.*_t'."
        ]

    def test_conforming_name(self):
        assert run_rule("TypeDefChecker", "typedef int counter_t;") == []

    def test_custom_pattern(self):
        findings = run_rule(
            "TypeDefChecker", "typedef int counter_t;", {"pattern": "T[A-Za-z]+"}
        )
        assert len(findings) == 1
        assert run_rule(
            "TypeDefChecker", "typedef int TCounter;", {"pattern": "T[A-Za-z]+"}
        ) == []
