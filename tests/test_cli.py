import os
import shutil

import pytest
from conftest import fixture_path

from cglint.cli import main
from cglint.model import MAX_NESTING
from cglint.report import from_xml


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(tmp_path, *args):
    xml_out = str(tmp_path / "vfresults.xml")
    return main(list(args) + ["--xml-out", xml_out, "--timestamp", "t"]), xml_out


def test_clean_run_exits_zero(tmp_path):
    src = write(tmp_path, "clean.cpp", "namespace app { class Neat { }; }\n")
    code, xml_out = run(tmp_path, "--lang", "minicpp", src)
    assert code == 0
    results = from_xml(open(xml_out, "rb").read())
    assert results.total_findings() == 0
    assert len(results.reports) == 18


def test_shall_finding_exits_one(tmp_path):
    src = write(tmp_path, "leak.cpp", "void f() { int* p = new int; }\n")
    code, xml_out = run(tmp_path, "--lang", "minicpp", src)
    assert code == 1
    results = from_xml(open(xml_out, "rb").read())
    by_id = {r.descriptor.id: r for r in results.reports}
    assert len(by_id["MemoryChecker"].findings) == 1


def test_should_finding_exits_zero_without_strict(tmp_path):
    src = write(tmp_path, "t.cpp", "namespace app { typedef int Alpha; }\n")
    code, _ = run(tmp_path, "--lang", "minicpp", src)
    assert code == 0


def test_strict_turns_any_finding_into_failure(tmp_path):
    src = write(tmp_path, "t.cpp", "namespace app { typedef int Alpha; }\n")
    code, _ = run(tmp_path, "--lang", "minicpp", "--strict", src)
    assert code == 1


def test_parse_error_exits_two_but_writes_xml(tmp_path):
    src = write(tmp_path, "broken.cpp", "class {")
    code, xml_out = run(tmp_path, "--lang", "minicpp", src)
    assert code == 2
    results = from_xml(open(xml_out, "rb").read())
    assert results.files == [src]


def test_unknown_language_exits_two(tmp_path, capsys):
    code, _ = run(tmp_path, "--lang", "cobol")
    assert code == 2
    assert "cobol" in capsys.readouterr().err


def test_bad_config_exits_two(tmp_path):
    src = write(tmp_path, "t.cpp", "int main() { return 0; }\n")
    config = write(tmp_path, "rules.cfg", "[rule Phantom]\nenabled = true\n")
    code, _ = run(tmp_path, "--lang", "minicpp", "--config", config, src)
    assert code == 2


@pytest.mark.parametrize(
    "rule,entry",
    [
        ("FunctionChecker", "maxLines = abc"),
        ("TypeDefChecker", "pattern = (["),
        ("InterfaceChecker", "CloseAPI = yes"),
        ("FunctionChecker", "maxLines = 1_0"),
        ("FunctionChecker", "maxLines = \u0663"),
        ("FunctionChecker", "maxLines = +2"),
        ("FunctionChecker", "maxLines = -1"),
    ],
)
def test_bad_property_value_exits_two(tmp_path, capsys, rule, entry):
    src = write(tmp_path, "t.cpp", "int main() { return 0; }\n")
    config = write(tmp_path, "rules.cfg", "[rule %s]\n%s\n" % (rule, entry))
    code, _ = run(tmp_path, "--lang", "minicpp", "--config", config, src)
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_config_not_utf8_exits_two(tmp_path, capsys):
    src = write(tmp_path, "t.cpp", "int main() { return 0; }\n")
    config = tmp_path / "rules.cfg"
    config.write_bytes(b"[rule FunctionChecker]\nmaxLines = \xff\n")
    code, _ = run(tmp_path, "--lang", "minicpp", "--config", str(config), src)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: %s: 'utf-8' codec can't decode byte 0xff" % config)


def test_config_byte_order_mark_is_ignored(tmp_path):
    src = write(tmp_path, "t.cpp", "void f() {\n  int a = 0;\n  a = 1;\n}\n")
    config = tmp_path / "rules.cfg"
    config.write_bytes(b"\xef\xbb\xbf[rule FunctionChecker]\r\nmaxLines = 1\r\n")
    code, xml_out = run(tmp_path, "--lang", "minicpp", "--config", str(config), src)
    assert code == 0
    by_id = {r.descriptor.id: r for r in from_xml(open(xml_out, "rb").read()).reports}
    assert by_id["FunctionChecker"].effective_properties["maxLines"] == "1"
    assert "body lines" in by_id["FunctionChecker"].findings[0].message


def test_config_value_xml_cannot_carry_exits_two(tmp_path, capsys):
    config = write(tmp_path, "rules.cfg", "[rule TriggerChecker]\ntestDriver = a\x01b\n")
    code, xml_out = run(tmp_path, "--lang", "seqdiag", "--config", config, fixture_path("librarytest.sd"))
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: testDriver: character '\\x01' cannot be written to XML\n"
    assert not os.path.exists(xml_out)


@pytest.mark.parametrize("char", ["\x01", "\ufffe", os.fsdecode(b"\xff")], ids=["control", "noncharacter", "not_utf8"])
def test_timestamp_xml_cannot_carry_exits_two(tmp_path, capsys, char):
    """Nothing is written: before, the XML was written and did not read back."""
    xml_out, html_out = tmp_path / "vfresults.xml", tmp_path / "report.html"
    argv = ["--lang", "minicpp", fixture_path("ExampleImpl.cpp"), "--timestamp", "a%sb" % char]
    code = main(argv + ["--xml-out", str(xml_out), "--html-out", str(html_out)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --timestamp: character %r cannot be written to XML\n" % char)
    assert not xml_out.exists() and not html_out.exists()


def test_file_name_not_utf8_is_escaped(tmp_path, capsys):
    (tmp_path / os.fsdecode(b"bad\xff.cpp")).write_bytes(b"void f() { int* p = new int; }\n")
    shown = str(tmp_path / "bad\\xff.cpp")
    html_out = str(tmp_path / "report.html")
    code, xml_out = run(tmp_path, "--lang", "minicpp", str(tmp_path), "--html-out", html_out)
    assert code == 1
    results = from_xml(open(xml_out, "rb").read())
    assert results.files == [shown]
    assert {f.span.file for r in results.reports for f in r.findings} == {shown}
    assert shown in open(html_out, encoding="utf-8").read()
    assert capsys.readouterr().err == ""


def test_file_name_xml_cannot_carry_is_escaped(tmp_path, capsys):
    write(tmp_path, "a\x01b.cpp", "class {")
    shown = str(tmp_path / "a\\x01b.cpp")
    code, xml_out = run(tmp_path, "--lang", "minicpp", str(tmp_path))
    assert code == 2
    assert from_xml(open(xml_out, "rb").read()).files == [shown]
    assert capsys.readouterr().err.startswith("%s:1:7: " % shown)


def test_input_named_twice_is_analysed_once(tmp_path):
    src = write(tmp_path, "leak.cpp", "void f() { int* p = new int; }\n")
    code, xml_out = run(tmp_path, "--lang", "minicpp", src, src, str(tmp_path))
    assert code == 1
    results = from_xml(open(xml_out, "rb").read())
    assert results.files == [src]
    by_id = {r.descriptor.id: r for r in results.reports}
    assert len(by_id["MemoryChecker"].findings) == 1


@pytest.mark.parametrize("option", ["--xml-out", "--html-out"])
def test_unwritable_output_exits_two(tmp_path, capsys, option):
    src = write(tmp_path, "leak.cpp", "void f() { int* p = new int; }\n")
    missing = str(tmp_path / "missing" / "out")
    code = main(
        ["--lang", "minicpp", src, "--xml-out", str(tmp_path / "out.xml"),
         "--timestamp", "t", option, missing]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


def test_reopened_namespace_sees_its_types(tmp_path):
    src = write(
        tmp_path,
        "reopen.cpp",
        "namespace app { typedef int count_t; }\n"
        "namespace app { int f() { count_t n = 0; return n; } }\n",
    )
    code, _ = run(tmp_path, "--lang", "minicpp", src)
    assert code == 0


DEEP = 10 * MAX_NESTING
_CHAIN = "a || b && c | d ^ e & f == g < h << i + j * "


@pytest.mark.parametrize(
    "source",
    [
        "int f() { return %s1%s; }" % ("(" * 80, ")" * 80),
        "int f() { return %s1%s; }" % ("(" * DEEP, ")" * DEEP),
        "int f() { return %s1%s; }" % (("(" + _CHAIN) * DEEP, ")" * DEEP),
        "int f() { return %s1; }" % ("- " * DEEP),
        "void f() { %s1; }" % ("a = " * DEEP),
        "void f() %s%s" % ("{ " * DEEP, "} " * DEEP),
        "void f() { %s; }" % ("if (a) " * DEEP),
        "%s%s" % ("namespace n { " * DEEP, "} " * DEEP),
        "%s%s" % ("class C { " * DEEP, "}; " * DEEP),
    ],
    ids=["parens80", "parens", "operator_chains", "unary_minus", "assignments",
         "blocks", "braceless_if", "namespaces", "classes"],
)
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, source):
    src = write(tmp_path, "deep.cpp", source)
    code, xml_out = run(tmp_path, "--lang", "minicpp", src)
    assert code == 2
    assert from_xml(open(xml_out, "rb").read()).files == [src]
    assert "nesting deeper than %d levels" % MAX_NESTING in capsys.readouterr().err


@pytest.mark.parametrize(
    "lang,name,source,message",
    [
        ("minicpp", "literal.cpp", 'char c = "abc\\', "unterminated literal"),
        (
            "seqdiag",
            "deep.sd",
            "sequencediagram d {\n%s%s}\n" % ("{ " * 1000, "} " * 1000),
            "nesting deeper than %d levels" % MAX_NESTING,
        ),
    ],
    ids=["backslash_at_eof", "seqdiag_blocks"],
)
def test_crashing_input_is_a_source_error(tmp_path, capsys, lang, name, source, message):
    src = write(tmp_path, name, source)
    code, xml_out = run(tmp_path, "--lang", lang, src)
    assert code == 2
    assert from_xml(open(xml_out, "rb").read()).files == [src]
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_non_utf8_file_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cpp"
    bad.write_bytes("// caf\xe9\nnamespace app { }\n".encode("latin-1"))
    good = write(tmp_path, "leak.cpp", "void f() { int* p = new int; }\n")
    code, xml_out = run(tmp_path, "--lang", "minicpp", str(bad), good)
    assert code == 2
    results = from_xml(open(xml_out, "rb").read())
    assert results.files == sorted([str(bad), good])
    by_id = {r.descriptor.id: r for r in results.reports}
    assert [f.span.file for f in by_id["MemoryChecker"].findings] == [good]
    assert "%s:1:7: 'utf-8' codec can't decode" % bad in capsys.readouterr().err


def test_decode_error_points_at_the_bad_byte(tmp_path, capsys):
    # the byte-order mark is not counted; the column counts characters
    bad = tmp_path / "bom.cpp"
    bad.write_bytes(b"\xef\xbb\xbfint a;\n// \xc3\xa9t\xc3\xa9 caf\xe9\n")
    code, _xml_out = run(tmp_path, "--lang", "minicpp", str(bad))
    assert code == 2
    assert "%s:2:11: 'utf-8' codec can't decode byte 0xe9" % bad in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["one_byte", "two_bytes"])
def test_truncated_byte_order_mark_is_an_io_error(tmp_path, capsys, data):
    bad = tmp_path / "bom.cpp"
    bad.write_bytes(data)
    code, xml_out = run(tmp_path, "--lang", "minicpp", str(bad))
    assert code == 2
    assert from_xml(open(xml_out, "rb").read()).files == [str(bad)]
    assert "%s:1:1: 'utf-8' codec can't decode" % bad in capsys.readouterr().err


def test_byte_order_mark_is_ignored(tmp_path):
    def findings(encoding):
        src = tmp_path / ("%s.cpp" % encoding)
        src.write_bytes("typedef int Alpha; void f() { int* p = new int; }\n".encode(encoding))
        code, xml_out = run(tmp_path, "--lang", "minicpp", str(src))
        reports = from_xml(open(xml_out, "rb").read()).reports
        return code, [
            (r.descriptor.id, f.span.row, f.span.col, f.message) for r in reports for f in r.findings
        ]

    plain = findings("utf-8")
    assert len(plain[1]) == 4
    assert findings("utf-8-sig") == plain


def test_long_operator_chain_is_not_nesting(tmp_path):
    """A flat ``+`` chain builds a deep left-leaning tree; it must give the
    same results as a short chain."""

    def run_chain(terms):
        source = "int f() { return %s; }\n" % "+".join(["1"] * terms)
        code, xml_out = run(tmp_path, "--lang", "minicpp", write(tmp_path, "chain.cpp", source))
        reports = from_xml(open(xml_out, "rb").read()).reports
        return code, {r.descriptor.id: len(r.findings) for r in reports}

    assert run_chain(3000) == run_chain(3)


def test_config_disables_rule(tmp_path):
    src = write(tmp_path, "leak.cpp", "void f() { int* p = new int; }\n")
    config = write(tmp_path, "rules.cfg", "[rule MemoryChecker]\nenabled = false\n")
    code, xml_out = run(tmp_path, "--lang", "minicpp", "--config", config, src)
    results = from_xml(open(xml_out, "rb").read())
    ids = [r.descriptor.id for r in results.reports]
    assert "MemoryChecker" not in ids
    assert len(ids) == 17


def test_directory_scan_filters_by_extension(tmp_path):
    write(tmp_path, "a.cpp", "namespace app { }\n")
    write(tmp_path, "b.cpp", "namespace app { }\n")
    write(tmp_path, "notes.txt", "not source\n")
    code, xml_out = run(tmp_path, "--lang", "minicpp", str(tmp_path))
    assert code == 0
    results = from_xml(open(xml_out, "rb").read())
    assert len(results.files) == 2
    assert all(f.endswith(".cpp") for f in results.files)


@pytest.mark.parametrize(
    "inputs, shown",
    [
        (["a.cpp", "./a.cpp"], ["a.cpp"]),
        (["d", "d/x.cpp"], ["d/x.cpp"]),
        (["./d/x.cpp", "d"], ["./d/x.cpp"]),
    ],
    ids=["dot_slash", "directory_then_file", "file_then_directory"],
)
def test_one_file_named_twice_is_analysed_once(tmp_path, monkeypatch, inputs, shown):
    monkeypatch.chdir(tmp_path)
    leak = "void f() { int* p = new int; }\n"
    write(tmp_path, "a.cpp", leak)
    (tmp_path / "d").mkdir()
    write(tmp_path, "d/x.cpp", leak)
    code = main(["--lang", "minicpp", *inputs, "--xml-out", "out.xml", "--timestamp", "t"])
    assert code == 1
    results = from_xml((tmp_path / "out.xml").read_bytes())
    assert results.files == shown
    by_id = {r.descriptor.id: r for r in results.reports}
    assert [f.span.file for f in by_id["MemoryChecker"].findings] == shown


def test_seqdiag_run(tmp_path):
    chart = str(tmp_path / "librarytest.sd")
    shutil.copy(fixture_path("librarytest.sd"), chart)
    code, xml_out = run(tmp_path, "--lang", "seqdiag", chart)
    assert code == 1
    results = from_xml(open(xml_out, "rb").read())
    assert results.total_findings() == 2


def test_message_span_starts_at_its_left_name(tmp_path):
    # the arrow starts a later line than the left name, and the ';' ends
    # left of the name's column
    chart = write(tmp_path, "q.sd", "sequencediagram d { object a:A;\n {" + " " * 25 + "a\n->a:m();}}\n")
    code, xml_out = run(tmp_path, "--lang", "seqdiag", chart)
    assert code == 1
    results = from_xml(open(xml_out, "rb").read())
    points = [(f.span.file, f.span.row, f.span.col) for r in results.reports for f in r.findings]
    assert points == [(chart, 2, 28)] * 2


def test_list_rules(capsys):
    assert main(["--lang", "minicpp", "--list-rules"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 18
    assert main(["--lang", "seqdiag", "--list-rules"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert any(line.startswith("TriggerChecker") for line in out)


def test_html_output(tmp_path):
    src = write(tmp_path, "leak.cpp", "void f() { int* p = new int; }\n")
    html_out = str(tmp_path / "report.html")
    xml_out = str(tmp_path / "out.xml")
    code = main(
        ["--lang", "minicpp", src, "--xml-out", xml_out,
         "--html-out", html_out, "--timestamp", "t"]
    )
    assert code == 1
    page = open(html_out).read()
    assert "CGL Report Summary" in page
    assert "Memory handling checker" in page
