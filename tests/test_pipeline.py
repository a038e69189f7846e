import gc
import os
import re
import subprocess
import sys

from cglint import pipeline
from cglint.cli import build_registry, main
from cglint.core import Rule, RuleRegistry, default_configs, register_rules, traverse
from cglint.pipeline import FRONTENDS, analyze_file, get_frontend, run_pipeline
import pytest
from conftest import fixture_path

import cglint
from cglint.errors import UnknownLanguageError, UnknownPropertyError
from cglint.model import AstNode, Criticality, Priority, RuleDescriptor, SourceSpan
from cglint.report import from_xml
from cglint.symtab import VariableBinding


@pytest.fixture
def cpp_setup():
    registry = build_registry("minicpp")
    return registry, default_configs(registry)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_unknown_language():
    with pytest.raises(UnknownLanguageError):
        get_frontend("cobol")


def test_analyze_missing_file_is_fatal_diagnostic():
    root = analyze_file("/no/such/file.cpp", "minicpp")
    assert root.has_fatal_error()
    assert root.ast is None


def test_analyze_unparseable_file(tmp_path):
    path = write(tmp_path, "broken.cpp", "class {")
    root = analyze_file(path, "minicpp")
    assert root.has_fatal_error()


def test_merge_across_files(tmp_path, cpp_setup):
    registry, configs = cpp_setup
    a = write(tmp_path, "a.cpp", "typedef int Alpha;\n")
    b = write(tmp_path, "b.cpp", "typedef int Beta;\n")
    results = run_pipeline([b, a], "minicpp", registry, configs, timestamp="t")
    assert results.files == sorted([a, b])
    by_id = {r.descriptor.id: r for r in results.reports}
    typedefs = by_id["TypeDefChecker"].findings
    assert [f.span.file for f in typedefs] == sorted([a, b])
    assert len(results.reports) == 18


def test_empty_file_list_reports_all_rules(cpp_setup):
    registry, configs = cpp_setup
    results = run_pipeline([], "minicpp", registry, configs, timestamp="t")
    assert len(results.reports) == 18
    assert results.total_findings() == 0
    assert results.files == []


def test_unparseable_plus_clean_file(tmp_path, cpp_setup):
    """A fatal parse error in one file never hides another file's findings."""
    registry, configs = cpp_setup
    bad = write(tmp_path, "bad.cpp", "class {")
    good = write(tmp_path, "good.cpp", "typedef int Alpha;\n")
    diagnostics = []
    results = run_pipeline(
        [bad, good], "minicpp", registry, configs,
        timestamp="t", diagnostics=diagnostics,
    )
    assert results.files == sorted([bad, good])
    by_id = {r.descriptor.id: r for r in results.reports}
    assert [f.span.file for f in by_id["TypeDefChecker"].findings] == [good]
    assert any(d.fatal for _p, d in diagnostics)


def test_injected_timestamp_used(tmp_path, cpp_setup):
    registry, configs = cpp_setup
    results = run_pipeline([], "minicpp", registry, configs, timestamp="2024-01-02T03:04:05Z")
    assert results.created == "2024-01-02T03:04:05Z"


def test_default_timestamp_is_utc_iso(cpp_setup):
    registry, configs = cpp_setup
    results = run_pipeline([], "minicpp", registry, configs)
    assert results.created.endswith("Z")
    assert "T" in results.created


# Standard-library modules a run that writes XML only does not need.
_UNNEEDED = ("decimal", "dataclasses", "inspect", "xml.etree.ElementTree", "html", "datetime")

# Runs the CLI on its arguments, then prints the cglint modules it loaded,
# and each of _UNNEEDED that it loaded.
_LOADED = """
import sys
from cglint.cli import main
code = main(sys.argv[1:])
print("loaded:", *sorted(name for name in sys.modules if name.startswith("cglint") or name in %r))
sys.exit(code)
""" % (_UNNEEDED,)


@pytest.mark.parametrize(
    "lang, source, own, foreign",
    [
        ("seqdiag", "librarytest.sd", ("cglint.seqdiag", "cglint.rules.seq"), ("cglint.minicpp", "cglint.rules.cpp")),
        ("minicpp", "ExampleImpl.cpp", ("cglint.minicpp", "cglint.rules.cpp"), ("cglint.seqdiag", "cglint.rules.seq")),
    ],
    ids=["seqdiag", "minicpp"],
)
def test_run_loads_only_its_own_language(tmp_path, lang, source, own, foreign):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cglint.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["--lang", lang, fixture_path(source), "--xml-out", str(tmp_path / "out.xml"), "--timestamp", "t"]
    proc = subprocess.run([sys.executable, "-c", _LOADED] + argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()[1:]
    assert all(name in loaded for name in own), loaded
    assert [name for name in loaded if name.startswith(foreign)] == []
    assert [name for name in loaded if name in _UNNEEDED] == []


class _ShoutChecker(Rule):
    descriptor = RuleDescriptor(
        id="ShoutChecker",
        title="Shout checker",
        description="Flags a word written in capitals.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.LOW,
        subscriptions=(("toy", "Word"),),
    )

    def visit(self, node, ctx):
        if node.attr("text").isupper():
            ctx.report(node.span, "Word %r is shouted." % node.attr("text"))


def _parse_toy(text, path, table):
    """One ``Word`` node per word of a one-line text; declares nothing."""
    words = [
        AstNode("toy", "Word", SourceSpan.point(path, 1, match.start() + 1), {"text": match.group()}, node_id=i)
        for i, match in enumerate(re.finditer(r"\S+", text), start=2)
    ]
    return AstNode("toy", "Text", SourceSpan.point(path, 1, 1), children=words, node_id=1)


def test_a_language_is_one_frontends_entry(tmp_path, monkeypatch):
    toy = {
        "parse": _parse_toy,
        "rules": lambda: [_ShoutChecker],
        "extensions": (".toy",),
    }
    monkeypatch.setitem(FRONTENDS, "toy", toy)
    write(tmp_path, "greeting.toy", "hello WORLD")
    write(tmp_path, "skipped.txt", "HELLO")
    xml_out = str(tmp_path / "out.xml")
    code = main(["--lang", "toy", str(tmp_path), "--xml-out", xml_out, "--timestamp", "t"])
    assert code == 1
    results = from_xml(open(xml_out, "rb").read())
    assert results.files == [str(tmp_path / "greeting.toy")]
    [report] = results.reports
    assert report.descriptor.id == "ShoutChecker"
    assert [(f.span.col, f.message) for f in report.findings] == [(7, "Word 'WORLD' is shouted.")]


class _BrokenChecker(Rule):
    """Reports every word, and raises at the word ``boom``, or in ``finish``
    after a word ``late``."""

    descriptor = RuleDescriptor(
        id="BrokenChecker",
        title="Broken checker",
        description="Raises on some words.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=(("toy", "Word"),),
    )

    def visit(self, node, ctx):
        ctx.report(node.span, "Word %r seen." % node.attr("text"))
        if node.attr("text") == "boom":
            raise RuntimeError("boom")

    def finish(self, ctx):
        if any("'late'" in finding.message for finding in ctx.findings):
            raise KeyError("late")


def _crash(*_args):
    raise RuntimeError("crash")


def _toy_run(tmp_path, monkeypatch, capsys, texts, **entry):
    """Run the CLI on one toy file per text, with ``_ShoutChecker`` and
    ``_BrokenChecker``; returns the exit code, the results read back from
    the XML, the paths and standard error."""
    toy = {
        "parse": _parse_toy,
        "rules": lambda: [_ShoutChecker, _BrokenChecker],
        "extensions": (".toy",),
        **entry,
    }
    monkeypatch.setitem(FRONTENDS, "toy", toy)
    paths = [write(tmp_path, "%s.toy" % name, text) for name, text in texts]
    xml_out = tmp_path / "out.xml"
    code = main(["--lang", "toy", str(tmp_path), "--xml-out", str(xml_out), "--timestamp", "t"])
    return code, from_xml(xml_out.read_bytes()), paths, capsys.readouterr().err


def _findings(results):
    return {r.descriptor.id: [(f.span.file, f.message) for f in r.findings] for r in results.reports}


def test_a_rule_that_raises_is_an_internal_error(tmp_path, monkeypatch, capsys):
    code, results, (a, b, c), err = _toy_run(
        tmp_path, monkeypatch, capsys, [("a", "hello WORLD boom"), ("b", "LOUD"), ("c", "late")]
    )
    assert code == 2
    assert results.files == [a, b, c]
    found = _findings(results)
    # the broken rule keeps only the unit where it did not raise
    assert found["BrokenChecker"] == [(b, "Word 'LOUD' seen.")]
    assert found["ShoutChecker"] == [(a, "Word 'WORLD' is shouted."), (b, "Word 'LOUD' is shouted.")]
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("%s:1:13: internal error in rule BrokenChecker: RuntimeError: boom (" % a)
    assert lines[1].startswith("%s:1:1: internal error in rule BrokenChecker: KeyError: 'late' (" % c)


def _parse_toy_declaring(text, path, table):
    """``_parse_toy``, after declaring each word in ``table``; raises at
    the word ``crash``, after the words before it are declared."""
    for word in text.split():
        if word == "crash":
            _crash()
        table.declare(table.global_scope, VariableBinding(word))
    return _parse_toy(text, path, table)


@pytest.mark.parametrize(
    "parse",
    [lambda text, path, table: _crash() if "crash" in text else _parse_toy(text, path, table), _parse_toy_declaring],
    ids=["parse", "parse_after_declaring"],
)
def test_an_unexpected_exception_in_a_stage_is_an_internal_error(tmp_path, monkeypatch, capsys, parse):
    """A parse that raises, also one that has filled part of its table,
    leaves its unit without an AST and with an empty table."""
    texts = [("bad", "hello crash"), ("good", "LOUD")]
    code, results, (bad, good), err = _toy_run(tmp_path, monkeypatch, capsys, texts, parse=parse)
    assert code == 2
    assert results.files == [bad, good]
    assert _findings(results)["ShoutChecker"] == [(good, "Word 'LOUD' is shouted.")]
    assert err.startswith("%s: internal error in parse: RuntimeError: crash (test_pipeline.py:" % bad)
    root = analyze_file(bad, "toy")
    assert root.ast is None
    assert not (root.symbols.global_scope.declarations or root.symbols.variables or root.symbols.diagnostics)
    if parse is _parse_toy_declaring:  # it fills the table of a unit it parses
        assert [v.name for v in analyze_file(good, "toy").symbols.variables] == ["LOUD"]


# case -> (language, text, the toy language's parse or None); each unit is fatal but the clean one
PAUSE_CASES = {
    "clean": ("minicpp", "class A { int m_a; };", None),
    "parse_error": ("minicpp", "class", None),
    "internal_error": ("toy", "hello", _crash),
    "rule_raises": ("toy", "hello boom", _parse_toy),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
@pytest.mark.parametrize("case", list(PAUSE_CASES))
def test_a_unit_leaves_the_collector_as_it_found_it(monkeypatch, case, enabled):
    """``analyze_file`` and ``traverse`` each put ``gc.isenabled()`` back as
    they found it, also when the parse or a rule raises."""
    language, text, parse = PAUSE_CASES[case]
    if parse is not None:
        monkeypatch.setitem(FRONTENDS, "toy", {"parse": parse, "rules": lambda: [_BrokenChecker], "extensions": ()})
    registry = build_registry(language)
    (gc.enable if enabled else gc.disable)()
    try:
        root = analyze_file("unit", language, text=text)
        after_parse = gc.isenabled()
        traverse(root, registry, default_configs(registry))
        after_walk = gc.isenabled()
    finally:
        gc.enable()
    assert (after_parse, after_walk) == (enabled, enabled)
    assert root.has_fatal_error() == (case != "clean")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_a_walk_that_raises_leaves_the_collector_as_it_found_it(cpp_setup, enabled):
    registry, configs = cpp_setup
    configs[0].properties["noSuchProperty"] = "1"
    root = analyze_file("unit.cpp", "minicpp", text="int x;")
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(UnknownPropertyError):
            traverse(root, registry, configs)
        after_walk = gc.isenabled()
    finally:
        gc.enable()
    assert after_walk == enabled


@pytest.mark.parametrize(
    "name, language, text",
    [
        ("ExampleImpl.cpp", "minicpp", None),
        ("grammar.cpp", "minicpp", None),
        ("librarytest.sd", "seqdiag", None),
        ("unterminated.cpp", "minicpp", "namespace n { class A { void f() { int x; "),
    ],
)
def test_a_unit_is_freed_without_the_collector(name, language, text):
    """A parsed and walked unit holds no reference cycle, so the collector
    finds nothing once it is dropped."""
    registry = build_registry(language)
    gc.collect()
    gc.disable()
    try:
        root = analyze_file(fixture_path(name), language, text=text)
        traverse(root, registry, default_configs(registry))
        assert root.has_fatal_error() == (text is not None)
        del root
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_no_collection_runs_between_a_units_parse_and_its_walk(tmp_path, monkeypatch, cpp_setup):
    """``run_pipeline`` pauses the collector once for each unit, from its
    parse to the end of its walk, and frees the unit before the pause ends.
    So the young generation a parse leaves due is not collected over the
    whole fresh unit, neither before its walk nor after it."""
    registry, configs = cpp_setup
    text = "void f() { int x; %s}" % ("x = x + 1; " * 400)  # thousands of tracked objects
    paths = [write(tmp_path, "a.cpp", text), write(tmp_path, "b.cpp", text)]
    run_pipeline(paths, "minicpp", registry, configs)  # what a first run leaves for good
    events = []

    def analyzed(path, language):
        events.append("parse")
        return analyze_file(path, language)

    def walked(root, registry, configs):
        reports = traverse(root, registry, configs)
        events.append("walked")
        return reports

    def collecting(phase, info):
        if phase == "start":
            events.append("collect")

    monkeypatch.setattr(pipeline, "analyze_file", analyzed)
    monkeypatch.setattr(pipeline, "traverse", walked)
    gc.collect()
    gc.callbacks.append(collecting)
    try:
        run_pipeline(paths, "minicpp", registry, configs)
    finally:
        gc.callbacks.remove(collecting)
    units = " ".join(events).split("parse")[1:]
    assert len(units) == 2
    assert [unit.split() for unit in units] == [["walked"], ["walked"]], events


def test_the_collector_is_paused_while_a_unit_is_parsed_and_walked(monkeypatch):
    seen = []

    def parse(text, path, table):
        seen.append(("parse", gc.isenabled()))
        return _parse_toy(text, path, table)

    class Probe(_ShoutChecker):
        def visit(self, node, ctx):
            seen.append(("visit", gc.isenabled()))

        def finish(self, ctx):
            seen.append(("finish", gc.isenabled()))

    monkeypatch.setitem(FRONTENDS, "toy", {"parse": parse, "rules": lambda: [Probe], "extensions": ()})
    registry = build_registry("toy")
    traverse(analyze_file("unit", "toy", text="a b"), registry, default_configs(registry))
    assert seen == [("parse", False), ("visit", False), ("visit", False), ("finish", False)]
    assert gc.isenabled()


class _MisspeltPropertyChecker(Rule):
    """Reads a property it does not declare."""

    descriptor = RuleDescriptor(
        id="MisspeltPropertyChecker",
        title="Misspelt property checker",
        description="Reads an undeclared property.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=(("toy", "Word"),),
        default_properties=(("word", "hello", "str"),),
    )

    def visit(self, node, ctx):
        if node.attr("text") == ctx.prop("wrod"):
            ctx.report(node.span, "Word %r seen." % node.attr("text"))


def test_an_undeclared_property_is_an_internal_error(tmp_path, monkeypatch, capsys):
    entry = {"rules": lambda: [_ShoutChecker, _MisspeltPropertyChecker]}
    code, results, (a,), err = _toy_run(tmp_path, monkeypatch, capsys, [("a", "hello WORLD")], **entry)
    assert code == 2
    found = _findings(results)
    assert found == {"MisspeltPropertyChecker": [], "ShoutChecker": [(a, "Word 'WORLD' is shouted.")]}
    assert err.startswith("%s:1:1: internal error in rule MisspeltPropertyChecker: KeyError: 'wrod' (" % a)


class _LongWordChecker(Rule):
    """Reports every word longer than its ``maxLength`` property."""

    descriptor = RuleDescriptor(
        id="LongWordChecker",
        title="Long word checker",
        description="Flags a long word.",
        reference="",
        priority=Priority.SHOULD,
        criticality=Criticality.LOW,
        subscriptions=(("toy", "Word"),),
        default_properties=(("maxLength", "8", "int"), ("note", "", "str")),
    )

    def visit(self, node, ctx):
        if len(node.attr("text")) > ctx.prop("maxLength"):
            ctx.report(node.span, "Word %r is long." % node.attr("text"))


def test_a_run_reports_each_enabled_rule_with_or_without_files(tmp_path, monkeypatch):
    toy = {"parse": _parse_toy, "rules": lambda: [], "extensions": (".toy",)}
    monkeypatch.setitem(FRONTENDS, "toy", toy)
    registry = register_rules(RuleRegistry(), [_LongWordChecker, _ShoutChecker, _BrokenChecker])
    configs = default_configs(registry)
    configs[0].priority_override = Priority.SHALL
    configs[0].properties["maxLength"] = "3"
    configs[1].enabled = False
    a = write(tmp_path, "a.toy", "hello boom")
    b = write(tmp_path, "b.toy", "LOUD")
    with_files = run_pipeline([b, a], "toy", registry, configs, timestamp="t")
    without = run_pipeline([], "toy", registry, configs, timestamp="t")
    for results in (with_files, without):
        assert [(r.descriptor.id, r.descriptor.priority, r.effective_properties) for r in results.reports] == [
            ("BrokenChecker", Priority.SHOULD, {}),
            ("LongWordChecker", Priority.SHALL, {"maxLength": "3", "note": ""}),
        ]
    assert [r.descriptor for r in with_files.reports] == [r.descriptor for r in without.reports]
    found = {r.descriptor.id: [(f.span.file, f.message) for f in r.findings] for r in with_files.reports}
    # the broken rule raised in a.toy and keeps only b.toy's findings
    assert found["BrokenChecker"] == [(b, "Word 'LOUD' seen.")]
    assert found["LongWordChecker"] == [(a, "Word 'hello' is long."), (a, "Word 'boom' is long."), (b, "Word 'LOUD' is long.")]
