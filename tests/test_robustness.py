"""Property-based checks of the CLI exit-code contract on hostile input.

Whatever bytes an input file holds, ``cli.main`` returns 0, 1 or 2 without
raising, and writes an XML report that ``from_xml`` accepts and that lists
the file. Inputs are random bytes, random text, token soup and mutated
fixtures, in both languages. The tokens of both languages lie on the text
they were given. So does every node of a tree either parser builds from
token soup, a mutated fixture or a small generated unit or chart: inside
its parent, with ids 1..n and operators where they were read. Every
finding the rules report on such a tree points at a character of its file,
or just past the end of a line. Over random generator knobs and seeds, the
CLI reports every defect the generator planted, and a second run writes the
same XML. In a minicpp unit, the symbol table gives a scope for exactly the
nodes that open one, one node per scope, and a binding for a node only
under the node's name. Over random text and token soup, both scanners give
the tokens, or the error, of the match-per-token oracle in
``scan_oracle.py``. Over generated units, mutated fixtures and units that
nest loops, switches, blocks and local classes around pointers,
MemoryChecker, FlowControlChecker and IdentifierChecker report what their
oracles in ``rule_oracle.py`` report. A rule that raises in ``visit`` or
``leave`` at a node kind a generated unit or chart holds makes the run exit
2 and leaves every other rule's findings as they are without it. Over config
texts drawn from sections, keys, typed and malformed values, ``load_config``
raises nothing but a CglintError, and every config it accepts runs the rules
on a fixture without a diagnostic. Examples are derandomized so that every
run checks the same inputs.
"""

import os
import random
import sys
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import fixture_path, token_tuples  # noqa: E402

from rule_oracle import ORACLES  # noqa: E402
from scan_oracle import oracle_lex, oracle_tokenize  # noqa: E402

from cglint.cli import build_registry, main  # noqa: E402
from cglint.config import load_config  # noqa: E402
from cglint.core import Rule, RuleRegistry, default_configs, register_rules, traverse  # noqa: E402
from cglint.errors import CglintError, LexError, ParseError, SourceError  # noqa: E402
from cglint.minicpp.lexer import _PUNCT, KEYWORDS, lex  # noqa: E402
from cglint.model import Criticality, Priority, RuleConfig, RuleDescriptor  # noqa: E402
from cglint.pipeline import FRONTENDS, analyze_file  # noqa: E402
from cglint.report import from_xml  # noqa: E402
from cglint.rules.cpp import _op_span  # noqa: E402
from cglint.seqdiag import _tokenize  # noqa: E402
from cglint.symtab import ScopeKind, SymbolTable  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import gen  # noqa: E402

EXTENSIONS = {"minicpp": ".cpp", "seqdiag": ".sd"}
VOCABULARY = {
    "minicpp": sorted(KEYWORDS) + _PUNCT
    + ["a", "b", "T", "Foo", "_x", "0", "12", "1.5", "'c'", '"s"', "\\", '"', "'", "#", "/*", "//"],
    "seqdiag": [
        "sequencediagram", "object", "return", "a", "b", "A", "m", "<<", ">>",
        "->", "<-", "{", "}", "(", ")", ";", ":", ",", "//",
    ],
}
FIXTURES = {"minicpp": "ExampleImpl.cpp", "seqdiag": "librarytest.sd"}

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


def check_contract(workdir, lang, data):
    src = workdir / ("input" + EXTENSIONS[lang])
    src.write_bytes(data)
    xml_out = workdir / "vfresults.xml"
    xml_out.unlink(missing_ok=True)
    code = main(["--lang", lang, str(src), "--xml-out", str(xml_out), "--timestamp", "t"])
    assert code in (0, 1, 2)
    assert from_xml(xml_out.read_bytes()).files == [str(src)]


def token_soup(lang):
    words = st.lists(st.sampled_from(VOCABULARY[lang]), max_size=60)
    separators = st.sampled_from([" ", "\n", ""])
    return st.tuples(words, separators).map(lambda ws: ws[1].join(ws[0]))


def mutate(draw, lang, text):
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        edit = draw(st.sampled_from(["delete", "insert", "repeat"]))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "insert":
            text = "%s %s %s" % (text[:start], draw(st.sampled_from(VOCABULARY[lang])), text[start:])
        else:
            text = text[:end] + text[start:end] + text[end:]
    return text


@st.composite
def mutated_fixture(draw, lang):
    with open(fixture_path(FIXTURES[lang]), encoding="utf-8") as handle:
        return mutate(draw, lang, handle.read())


@st.composite
def generated(draw, lang, mutated=True):
    """A small unit or chart from the benchmark's generator, as written or,
    if ``mutated``, possibly mutated."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    if lang == "minicpp":
        knobs = gen.CppKnobs(classes=1, methods=2, locals=3, depth=2, collide=0.2)
        text, _planted = gen.cpp_unit(rng, knobs)
    else:
        text, _planted = gen.chart(rng, gen.ChartKnobs(objects=3, messages=12, depth=2), "chart")
    return mutate(draw, lang, text) if mutated and draw(st.booleans()) else text


LANGUAGES = pytest.mark.parametrize("lang", sorted(EXTENSIONS))


@LANGUAGES
@PROPERTY
@given(data=st.binary(max_size=300))
def test_random_bytes(workdir, lang, data):
    check_contract(workdir, lang, data)


@LANGUAGES
@PROPERTY
@given(text=st.text(max_size=200))
def test_random_text(workdir, lang, text):
    check_contract(workdir, lang, text.encode("utf-8"))


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_token_soup(workdir, lang, data):
    check_contract(workdir, lang, data.draw(token_soup(lang)).encode("utf-8"))


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_mutated_fixture(workdir, lang, data):
    check_contract(workdir, lang, data.draw(mutated_fixture(lang)).encode("utf-8"))


def check_lexer_spans(text):
    """Every token is the single-line, 1-based text its span names, or the
    LexError's point span lies on a character of ``text``."""
    lines = text.split("\n")
    try:
        tokens = token_tuples(lex(text))
    except LexError as exc:
        span = exc.span
        assert (span.end_row, span.end_col) == (span.row, span.col)
        assert 1 <= span.row <= len(lines)
        assert 1 <= span.col <= len(lines[span.row - 1])
        return
    for _kind, word, row, col in tokens:
        assert row >= 1 and col >= 1
        assert lines[row - 1][col - 1 : col - 1 + len(word)] == word


@PROPERTY
@given(text=st.text(max_size=200))
def test_lexer_spans_random_text(text):
    check_lexer_spans(text)


@PROPERTY
@given(data=st.data())
def test_lexer_spans_token_soup(data):
    check_lexer_spans(data.draw(token_soup("minicpp")))


def check_seqdiag_spans(text):
    """Every seqdiag token is the single-line, 1-based text its row and
    column name, or the ParseError's point span lies on a character of
    ``text``."""
    lines = text.split("\n")
    try:
        tokens = token_tuples(_tokenize(text, "<input>"))
    except ParseError as exc:
        span = exc.span
        assert (span.end_row, span.end_col) == (span.row, span.col)
        assert 1 <= span.row <= len(lines)
        assert 1 <= span.col <= len(lines[span.row - 1])
        return
    for _kind, word, row, col in tokens:
        assert row >= 1 and col >= 1
        assert lines[row - 1][col - 1 : col - 1 + len(word)] == word


@PROPERTY
@given(text=st.text(max_size=200))
def test_seqdiag_spans_random_text(text):
    check_seqdiag_spans(text)


@PROPERTY
@given(data=st.data())
def test_seqdiag_spans_token_soup(data):
    check_seqdiag_spans(data.draw(token_soup("seqdiag")))


SCANNERS = {
    "minicpp": (lambda text, file: token_tuples(lex(text, file)), oracle_lex),
    "seqdiag": (lambda text, file: token_tuples(_tokenize(text, file)), oracle_tokenize),
}
# Words that start, end or break a token in either language, characters
# beyond ASCII that ``\w``, ``isalpha``, ``isdigit`` and ``\s`` classify
# differently, and blanks that are no line break.
SCANNER_WORDS = (
    list("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~ \t\n\r\x0c\xa0\u2028éß²½Ⅻ٣")
    + ["//", "/*", "*/", "a", "x1", "0", ".5", "1e5", "class", "int", "sequencediagram", "->", "<<"]
)


def scanned(scan, text):
    """The token tuples of ``text``, or its error's class, message and span."""
    try:
        return list(scan(text, "input"))
    except SourceError as exc:
        return type(exc), exc.message, exc.span


@LANGUAGES
@settings(PROPERTY, max_examples=300)
@given(text=st.one_of(st.text(max_size=80), st.lists(st.sampled_from(SCANNER_WORDS), max_size=40).map("".join)))
def test_scanner_matches_oracle_random_text(lang, text):
    scan, oracle = SCANNERS[lang]
    assert scanned(scan, text) == scanned(oracle, text)


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_scanner_matches_oracle_token_soup(lang, data):
    text = data.draw(token_soup(lang))
    scan, oracle = SCANNERS[lang]
    assert scanned(scan, text) == scanned(oracle, text)


def check_tree(lang, text):
    """If ``text`` parses, every node's span lies on ``text`` and inside its
    parent's, the node ids are 1..n, and each binary or assignment node
    spans from its first child's start to its last child's end, with its
    operator's position (as ``_op_span`` derives it) in that span, on the
    operator's text. A minicpp unit without declarations has no tokens and
    is the point 1:1."""
    try:
        root = FRONTENDS[lang]["parse"](text, "input", SymbolTable())
    except SourceError:
        return
    lines = text.split("\n")
    if lang == "minicpp" and not root.children:
        assert (root.span.row, root.span.col, root.span.end_row, root.span.end_col) == (1, 1, 1, 1)
        return
    ids = []
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        ids.append(node.node_id)
        span = node.span
        start, end = (span.row, span.col), (span.end_row, span.end_col)
        for row, col in (start, end):
            assert 1 <= row <= len(lines) and 1 <= col <= len(lines[row - 1]), (node.kind, span)
        if parent is not None:
            outer = parent.span
            assert (outer.row, outer.col) <= start and end <= (outer.end_row, outer.end_col), (node.kind, span, outer)
        if node.kind in ("BinaryExpr", "AssignExpr"):
            first, last = node.children[0].span, node.children[-1].span
            assert ((first.row, first.col), (last.end_row, last.end_col)) == (start, end), (node.kind, span)
            op, op_span = node.attr("operator"), _op_span(node)
            row, col = op_span.row, op_span.col
            assert start <= (row, col) <= end, (node.kind, span, row, col)
            assert lines[row - 1][col - 1 : col - 1 + len(op)] == op
        stack.extend((child, node) for child in node.children)
    assert sorted(ids) == list(range(1, len(ids) + 1))


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_tree_token_soup(lang, data):
    check_tree(lang, data.draw(token_soup(lang)))


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_tree_mutated_fixture(lang, data):
    check_tree(lang, data.draw(mutated_fixture(lang)))


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_tree_generated(lang, data):
    check_tree(lang, data.draw(generated(lang)))


def check_finding_points(lang, text):
    """Every finding of every rule, run with its defaults, points at a
    character of ``text`` or just past the end of a line."""
    root = analyze_file("input" + EXTENSIONS[lang], lang, text=text)
    registry = build_registry(lang)
    lines = text.split("\n")
    for report in traverse(root, registry, default_configs(registry)):
        for finding in report.findings:
            row, col = finding.span.row, finding.span.col
            assert 1 <= row <= len(lines) and 1 <= col <= len(lines[row - 1]) + 1, (finding, len(lines))


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_finding_points_mutated_fixture(lang, data):
    check_finding_points(lang, data.draw(mutated_fixture(lang)))


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_finding_points_generated(lang, data):
    check_finding_points(lang, data.draw(generated(lang)))


# Statements over three pointer names ($1, $2), and statements that nest a
# statement list (@) in a block, a loop, a switch or a local class's method.
ORACLE_POINTERS = ("p", "q", "r")
ORACLE_STATEMENTS = (
    "int* $1 = new int;", "int* $1 = new int[2];", "int* $1 = 0;", "$1 = new int;", "$1 = $2;", "m = $1;",
    "{ int* $1 = 0; $1 = $2; }", "for (int* $1 = 0; ; ) { $1 = $2; }",
    "delete $1;", "delete[] $1;", "return $1;", "break;", "while ($1) break;", "for (;;) break;",
    "goto out;", "out: ;",
)
ORACLE_NESTINGS = (
    "{ @ }", "if ($1) { @ } else { @ }", "while ($1) { @ }", "for (int* $1 = 0; ; ) { @ }", "do { @ } while ($1);",
    "switch ($1) { case 1: { @ } default: break; }", "class L { public: int* m = new int; void g() { @ } };",
)
ORACLE_FUNCTIONS = (
    "void f(int* r) { @ }",
    "class C { public: int* m; C() { @ } ~C() { @ } void g() { @ } };",
    "namespace app { int* p = 0; void h() { @ } }",
)


@st.composite
def nested_unit(draw):
    """Functions, constructors and destructors whose bodies nest statements
    over three pointer names, one of which may also be a global."""

    def fill(form, depth):
        form = form.replace("$1", draw(st.sampled_from(ORACLE_POINTERS)))
        form = form.replace("$2", draw(st.sampled_from(ORACLE_POINTERS)))
        while "@" in form:
            forms = ORACLE_STATEMENTS + (ORACLE_NESTINGS if depth else ())
            inner = [fill(draw(st.sampled_from(forms)), depth - 1) for _ in range(draw(st.integers(0, 3)))]
            form = form.replace("@", " ".join(inner), 1)
        return form

    functions = draw(st.lists(st.sampled_from(ORACLE_FUNCTIONS), min_size=1, max_size=3))
    globals_ = ["int* q = 0;"] if draw(st.booleans()) else []
    return "\n".join(globals_ + [fill(form, 3) for form in functions])


def check_rules_match_oracle(text):
    """If ``text`` parses, each rule of ``ORACLES``, run alone, reports
    exactly what its oracle reports, and neither raises. Returns whether
    ``text`` parsed."""
    root = analyze_file("input.cpp", "minicpp", text=text)
    if root.ast is None:
        return False
    registry = build_registry("minicpp")
    for rule_id, oracle in ORACLES.items():
        found = []
        for cls in (registry.get(rule_id), oracle):
            (report,) = traverse(root, register_rules(RuleRegistry(), [cls]), [RuleConfig(rule_id)])
            found.append(report.findings)
        assert found[0] == found[1], rule_id
    assert not root.has_fatal_error(), root.diagnostics
    return True


@PROPERTY
@given(data=st.data())
def test_rules_match_oracle_generated(data):
    """The generator writes units that parse, so every example reaches the rules."""
    assert check_rules_match_oracle(data.draw(generated("minicpp", mutated=False)))


@PROPERTY
@given(data=st.data())
def test_rules_match_oracle_mutated_fixture(data):
    check_rules_match_oracle(data.draw(mutated_fixture("minicpp")))


@settings(PROPERTY, max_examples=200)
@given(text=nested_unit())
def test_rules_match_oracle_nested_unit(text):
    check_rules_match_oracle(text)


# The node kinds that open a scope; a ClassDef opens one unless it is forward.
SCOPE_OWNERS = (
    "NamespaceDef", "ClassDef", "FunctionDef", "Constructor", "Destructor", "CompoundStmt", "ForStmt", "SwitchStmt",
)


def check_symbol_index(text):
    """If the unit parses, ``scope_of`` returns a non-global scope exactly
    for the nodes that open one, and each scope of the tree for at least
    one node. The NamespaceDefs of one name in one scope share one scope,
    and every other owner has its own. Every binding ``binding_of`` returns
    has its node's name."""
    root = analyze_file("input.cpp", "minicpp", text=text)
    if root.ast is None:
        return
    table = root.symbols
    owners = {}  # scope -> the nodes that open it
    for node in root.ast.walk():
        scope = table.scope_of(node)
        opens = node.kind in SCOPE_OWNERS and not node.attr("forward", False)
        assert (scope is not table.global_scope) == opens, node.kind
        if opens:
            owners.setdefault(scope, []).append(node)
        binding = table.binding_of(node)
        if binding is not None:
            assert binding.name == node.attr("name"), (node.kind, binding)
    for scope, nodes in owners.items():
        if len(nodes) > 1:
            assert all(n.kind == "NamespaceDef" and n.attr("name") == scope.name for n in nodes)
    namespaces = [(scope.parent, scope.name) for scope in owners if scope.kind is ScopeKind.NAMESPACE]
    assert len(namespaces) == len(set(namespaces))
    scopes = []
    stack = list(table.global_scope.children)
    while stack:
        scope = stack.pop()
        scopes.append(scope)
        stack.extend(scope.children)
    assert len(owners) == len(scopes)
    assert {id(scope) for scope in owners} == {id(scope) for scope in scopes}


@pytest.mark.parametrize("fixture", ["ExampleImpl.cpp", "grammar.cpp"])
def test_symbol_index_fixture(fixture):
    """``grammar.cpp`` reopens a namespace, which no drawn unit is likely to do."""
    with open(fixture_path(fixture), encoding="utf-8") as handle:
        check_symbol_index(handle.read())


@PROPERTY
@given(data=st.data())
def test_symbol_index_mutated_fixture(data):
    check_symbol_index(data.draw(mutated_fixture("minicpp")))


@PROPERTY
@given(data=st.data())
def test_symbol_index_generated(data):
    check_symbol_index(data.draw(generated("minicpp")))


@st.composite
def generated_corpus(draw, lang):
    """``(text, planted)`` of a unit or chart from random generator knobs."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    if lang == "minicpp":
        knobs = gen.CppKnobs(
            classes=draw(st.integers(1, 3)),
            methods=draw(st.integers(1, 3)),
            locals=draw(st.integers(1, 6)),
            depth=draw(st.integers(1, 3)),
            collide=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
            markers=draw(st.booleans()),
        )
        return gen.cpp_unit(rng, knobs)
    # the generator picks a message's two ends from distinct objects
    knobs = gen.ChartKnobs(
        objects=draw(st.integers(2, 6)),
        messages=draw(st.integers(0, 40)),
        depth=draw(st.integers(1, 4)),
    )
    return gen.chart(rng, knobs, "chart")


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_planted_defects_reported(workdir, lang, data):
    text, planted = data.draw(generated_corpus(lang))
    src = workdir / ("planted" + EXTENSIONS[lang])
    src.write_text(text, encoding="utf-8")
    codes, outputs = [], []
    for run in ("first", "second"):
        xml_out = workdir / ("%s.xml" % run)
        codes.append(main(["--lang", lang, str(src), "--xml-out", str(xml_out), "--timestamp", "t"]))
        outputs.append(xml_out.read_bytes())
    assert codes[0] == codes[1] != 2
    assert outputs[0] == outputs[1]
    reported = {report.descriptor.id: report.findings for report in from_xml(outputs[0]).reports}
    for rule_id, fragment in gen.ORACLE_MESSAGES.items():
        found = sum(fragment in finding.message for finding in reported.get(rule_id, ()))
        assert found == planted[rule_id], (rule_id, found, planted[rule_id])


def raising_rule(lang, kind, method):
    """A rule whose ``method``, ``visit`` or ``leave``, raises at every node
    of ``kind``."""

    class RaisingChecker(Rule):
        descriptor = RuleDescriptor(
            id="RaisingChecker",
            title="Raising checker",
            description="Raises at one node kind.",
            reference="",
            priority=Priority.SHOULD,
            criticality=Criticality.LOW,
            subscriptions=((lang, kind),),
        )

    def fail(self, node, ctx):
        raise RuntimeError(kind)

    setattr(RaisingChecker, method, fail)
    return RaisingChecker


@LANGUAGES
@PROPERTY
@given(data=st.data())
def test_a_raising_rule_costs_only_its_own_findings(workdir, lang, data):
    """A rule that raises in ``visit`` or ``leave`` at a node kind the unit
    holds makes the run exit 2, and every other rule reports what it reports
    without it."""
    text, _planted = data.draw(generated_corpus(lang))
    src = workdir / ("raising" + EXTENSIONS[lang])
    src.write_text(text, encoding="utf-8")
    kind = data.draw(st.sampled_from(sorted({node.kind for node in FRONTENDS[lang]["parse"](text, "x", SymbolTable()).walk()})))
    method = data.draw(st.sampled_from(["visit", "leave"]))
    runs = []
    for extra in ((), (raising_rule(lang, kind, method),)):
        rules = FRONTENDS[lang]["rules"]
        entry = dict(FRONTENDS[lang], rules=lambda rules=rules, extra=extra: [*rules(), *extra])
        xml_out = workdir / "raising.xml"
        with mock.patch.dict(FRONTENDS, {lang: entry}):
            code = main(["--lang", lang, str(src), "--xml-out", str(xml_out), "--timestamp", "t"])
        results = from_xml(xml_out.read_bytes())
        assert results.files == [str(src)]
        found = {r.descriptor.id: r.findings for r in results.reports if r.descriptor.id != "RaisingChecker"}
        runs.append((code, found))
    (code, found), (raised_code, raised_found) = runs
    assert code != 2 and raised_code == 2
    assert raised_found == found


# The values of each type a config key can have: (valid, malformed).
CONFIG_VALUES = {
    "bool": (("true", "FALSE"), ("maybe", "1")),
    "priority": (("SHALL", "WILL", "SHOULD"), ("URGENT", "shall")),
    "int": (("0", "60"), ("-1", "1.5", "\u0663")),
    "regex": ((".*_t", "[A-Z]+", ""), ("(", "[a-")),
    "list": (("a, b", ",", ""), ()),
    "str": (("x", "\xe9"), ()),
}


@st.composite
def config_text(draw):
    """Sections of minicpp rules, each with entries over their own keys and
    the common ones. In half the texts, a value is malformed for its type,
    or holds a character XML cannot carry, once in two, and a section, a
    key, an entry or a line is malformed once in twenty."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    wild = rng.random() < 0.5
    # a rule with properties, and a property among a rule's keys, is drawn more often
    descriptors = [d for d in build_registry("minicpp").descriptors() for _ in range(8 if d.default_properties else 1)]

    def pick(good, bad, odds=20):
        """One of ``good``; in a wild text, one of ``bad`` once in ``odds`` draws."""
        return rng.choice(bad if wild and rng.randrange(odds) == 0 else good)

    lines = []
    for _ in range(rng.randrange(4)):
        descriptor = rng.choice(descriptors)
        lines.append(pick(["[rule %s]"], ["[rule %s", "[section %s]", "[rule Phantom]", "#"]).replace("%s", descriptor.id))
        types = {"enabled": "bool", "priority": "priority"}
        keys = ["enabled", "priority"]
        for name, _text, type_name in descriptor.default_properties:
            types[name] = type_name
            keys += [name] * 3
        for _ in range(rng.randint(1, 4)):
            key = pick(keys, ["wibble"])
            good, bad = CONFIG_VALUES[types.get(key, "str")]
            value = pick(good, bad + ("a\x01",), odds=2)
            lines.append(pick(["%s = %s", "%s=%s"], ["%s %s", "\x01%s = %s"]) % (key, value))
        lines.append(pick(["", "# note"], ["= 1", "[rule]", "\x01", "\xe9"]))
    return "\n".join(lines)


@settings(PROPERTY, max_examples=200)
@given(text=config_text())
def test_config_text_loads_or_raises_cglint_error(text):
    """``load_config`` rejects a config text only with a CglintError, and
    every config it accepts runs the rules on the fixture without a
    diagnostic, an internal error above all."""
    registry = build_registry("minicpp")
    try:
        configs = load_config(text, registry)
    except CglintError:
        return
    root = analyze_file(fixture_path(FIXTURES["minicpp"]), "minicpp")
    traverse(root, registry, configs)
    assert not root.diagnostics, root.diagnostics
