"""End-to-end acceptance suite.

Each test covers one release acceptance criterion and prints a single
PASS/FAIL line so the suite doubles as a checklist:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import functools
import random
import string

from conftest import analyze_cpp, analyze_seq, count_nodes, fixture_path, run_rules

from cglint.cli import build_registry, main
from cglint.core import RuleRegistry, TraversalStats, default_configs, traverse
from cglint.minicpp import lex, parse
from cglint.model import (
    AnalysisRoot,
    AstNode,
    Criticality,
    Finding,
    Priority,
    RuleDescriptor,
    RuleReport,
    SourceSpan,
    ValidationResults,
)
from cglint.report import from_xml, summarize, to_xml
from cglint.rules.cpp import CPP_RULES
from cglint.symtab import SymbolTable

import test_parser
import test_rules_cpp
import test_rules_seq


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print("\n%s: FAIL" % label)
                raise
            print("\n%s: PASS" % label)
            return result

        return wrapper

    return decorate


def read_fixture(name):
    with open(fixture_path(name)) as f:
        return f.read()


@criterion("criterion 1 (example implementation snapshot)")
def test_criterion_1_cpp_snapshot():
    root = analyze_cpp(read_fixture("ExampleImpl.cpp"), "ExampleImpl.cpp")
    findings = run_rules(
        root,
        {"NamingConventionChecker", "IdentifierChecker", "InterfaceChecker"},
        {"InterfaceChecker": {"CloseAPI": "true"}},
    )
    got = sorted((f.span.row, f.span.col, f.rule_id, f.message) for f in findings)
    assert len(got) == 4, got
    assert got[0][:3] == (10, 7, "InterfaceChecker")
    assert "derive : DOUBLE" in got[0][3]
    assert got[1][:3] == (15, 7, "IdentifierChecker")
    assert "ll : int" in got[1][3]
    assert got[2][:3] == (19, 7, "IdentifierChecker")
    assert "array_Size : BOOL" in got[2][3]
    assert got[3][:3] == (22, 7, "IdentifierChecker")
    assert "tempint : INT" in got[3][3]


@criterion("criterion 2 (sequence chart snapshot)")
def test_criterion_2_seq_snapshot():
    root = analyze_seq(read_fixture("librarytest.sd"), "librarytest.sd")
    findings = run_rules(root, {"TriggerChecker", "NoCallToTestDriverChecker"})
    got = sorted((f.rule_id, f.span.row) for f in findings)
    assert got == [
        ("NoCallToTestDriverChecker", 21),
        ("TriggerChecker", 9),
    ], got


def random_ast(rng, target_nodes):
    kinds = [
        "TranslationUnit", "ClassDef", "FunctionDef", "CompoundStmt", "VarDecl",
        "IfStmt", "WhileStmt", "ForStmt", "SwitchStmt", "ExprStmt", "AssignExpr",
        "BinaryExpr", "IdentExpr", "IntLiteral", "ReturnStmt", "EnumDef",
        "TypedefDecl", "BreakStmt", "NewExpr", "DeleteExpr",
    ]
    counter = [0]

    def node(depth):
        counter[0] += 1
        children = []
        if depth < 12:
            budget = target_nodes - counter[0]
            for _ in range(min(rng.randint(0, 4), max(budget, 0))):
                children.append(node(depth + 1))
        return AstNode(
            language="minicpp",
            kind=rng.choice(kinds),
            span=SourceSpan.point("rand.cpp", rng.randint(1, 999), rng.randint(1, 80)),
            attributes={"name": "".join(rng.choices(string.ascii_lowercase, k=3))},
            children=children,
            node_id=counter[0],
        )

    root = node(0)
    while counter[0] < target_nodes:
        counter[0] += 1
        root.children.append(
            AstNode(
                language="minicpp",
                kind=rng.choice(kinds),
                span=SourceSpan.point("rand.cpp", 1, 1),
                node_id=counter[0],
            )
        )
    return root, counter[0]


@criterion("criterion 3 (single-traversal visit counts)")
def test_criterion_3_single_pass():
    rng = random.Random(31)
    for trial in range(50):
        ast, node_count = random_ast(rng, rng.randint(50, 5000))
        assert count_nodes(ast) == node_count
        root = AnalysisRoot(file="rand.cpp", content="", ast=ast)
        root.symbols = SymbolTable()
        subset = rng.sample(CPP_RULES, rng.randint(0, len(CPP_RULES)))
        registry = RuleRegistry()
        for cls in subset:
            registry.register(cls)
        stats = TraversalStats()
        traverse(root, registry, default_configs(registry), stats=stats)
        assert stats.visits == node_count, (trial, len(subset))
        assert root.diagnostics == [], (trial, root.diagnostics)  # no rule raised


@criterion("criterion 4 (per-rule truth tables)")
def test_criterion_4_rule_fixtures():
    """The per-rule suites (test_rules_cpp, test_rules_seq) hold the
    positive/negative fixtures and run in this same session; here we assert
    full coverage: every one of the 20 rules has a suite with at least one
    positive and one negative case."""
    suites = {}
    for module in (test_rules_cpp, test_rules_seq):
        for name in dir(module):
            if name.startswith("Test") and name.endswith("Checker"):
                cls = getattr(module, name)
                tests = [m for m in dir(cls) if m.startswith("test_")]
                suites[name[len("Test"):]] = tests
    all_rules = set(build_registry("minicpp").rule_ids()) | set(
        build_registry("seqdiag").rule_ids()
    )
    assert set(suites) >= all_rules, all_rules - set(suites)
    for rule_id in all_rules:
        assert len(suites[rule_id]) >= 2, rule_id
    total = sum(len(tests) for rid, tests in suites.items() if rid in all_rules)
    assert total >= 40, total


@criterion("criterion 5 (composition equals union of solo runs)")
def test_criterion_5_composition():
    corpus = [
        ("minicpp", analyze_cpp(read_fixture("ExampleImpl.cpp"), "ExampleImpl.cpp")),
        ("seqdiag", analyze_seq(read_fixture("librarytest.sd"), "librarytest.sd")),
    ]
    def key(f):
        return (f.rule_id, f.span.file, f.span.row, f.span.col, f.message)

    for language, root in corpus:
        all_ids = set(build_registry(language).rule_ids())
        combined = sorted(
            key(f) for f in run_rules(root, all_ids, language=language)
        )
        union = []
        for rule_id in all_ids:
            union.extend(
                key(f) for f in run_rules(root, {rule_id}, language=language)
            )
        assert combined == sorted(union)


@criterion("criterion 6 (summary percentages)")
def test_criterion_6_summary_math():
    reports = []
    for i, (crit, count) in enumerate(
        [(Criticality.HIGH, 459), (Criticality.MEDIUM, 1575), (Criticality.LOW, 3304)]
    ):
        desc = RuleDescriptor(
            id="R%d" % i, title="t", description="d", reference="",
            priority=Priority.SHALL, criticality=crit,
        )
        findings = [
            Finding("R%d" % i, SourceSpan.point("f.cpp", n + 1, 1), "m")
            for n in range(count)
        ]
        reports.append(RuleReport(descriptor=desc, findings=findings))
    results = ValidationResults(created="t", reports=reports, files=["f.cpp"])
    summary = summarize(results)
    assert summary.total == 5338
    assert summary.percentages[Criticality.HIGH] == 8.6
    assert summary.percentages[Criticality.MEDIUM] == 29.5
    assert summary.percentages[Criticality.LOW] == 61.9


@criterion("criterion 7 (XML round trip and determinism)")
def test_criterion_7_xml_round_trip():
    from test_report import random_results

    rng = random.Random(71)
    for _ in range(100):
        results = random_results(rng)
        data = to_xml(results)
        assert from_xml(data) == results
        assert to_xml(results) == data


@criterion("criterion 8 (declaration vs expression disambiguation)")
def test_criterion_8_disambiguation():
    cases = test_parser.TestDisambiguation.CASES
    assert len(cases) >= 10
    for prelude, stmt, expected in cases:
        source = "%s\nvoid wrapper() {\n%s\n}\n" % (prelude, stmt)
        unit = parse(lex(source, "d.cpp"))
        body = [n for n in unit.walk() if n.kind == "CompoundStmt"][0]
        stmts = [c for c in body.children if c.kind in ("VarDecl", "ExprStmt")]
        assert stmts and stmts[-1].kind == expected, (stmt, expected)


@criterion("criterion 9 (CI exit-code contract)")
def test_criterion_9_ci_contract(tmp_path):
    clean = tmp_path / "clean.cpp"
    clean.write_text("namespace app { class Neat { }; }\n")
    leaky = tmp_path / "leak.cpp"
    leaky.write_text("void f() { int* p = new int; }\n")
    broken = tmp_path / "broken.cpp"
    broken.write_text("class {")

    def run(src):
        return main(
            ["--lang", "minicpp", str(src),
             "--xml-out", str(tmp_path / "out.xml"), "--timestamp", "t"]
        )

    assert run(clean) == 0
    assert run(leaky) == 1
    assert run(broken) == 2
