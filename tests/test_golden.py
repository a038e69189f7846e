"""Byte-for-byte regression of the CLI's XML, HTML and standard output on
the two fixtures, and on ``ExampleImpl.cpp`` with ``override.cfg``, which
overrides a priority, sets a property and disables a rule. Standard error
must stay empty.

Regenerate a golden only for an intended output change, from the fixtures
directory so that the paths stay relative::

    cd tests/fixtures
    python3 -m cglint.cli --lang minicpp ExampleImpl.cpp \\
        --timestamp 2014-09-08T00:00:00Z --xml-out ../golden/ExampleImpl.xml \\
        --html-out ../golden/ExampleImpl.html > ../golden/ExampleImpl.out
"""

import os

import pytest
from conftest import FIXTURES

from cglint.cli import main
from cglint.report import from_xml

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# fixture, language, extra options, golden name without extension, exit code
CASES = [
    ("ExampleImpl.cpp", "minicpp", [], "ExampleImpl", 1),
    ("librarytest.sd", "seqdiag", [], "librarytest", 1),
    ("ExampleImpl.cpp", "minicpp", ["--config", "override.cfg"], "ExampleImpl-override", 0),
]


@pytest.mark.parametrize(
    "fixture,lang,options,golden,code",
    CASES,
    ids=["%s-%s-%s.xml" % (fixture, lang, golden) for fixture, lang, _o, golden, _c in CASES],
)
def test_fixture_xml_matches_golden(fixture, lang, options, golden, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    xml_out, html_out = tmp_path / "out.xml", tmp_path / "out.html"
    assert main(
        ["--lang", lang, fixture, *options, "--timestamp", "2014-09-08T00:00:00Z",
         "--xml-out", str(xml_out), "--html-out", str(html_out)]
    ) == code
    captured = capsys.readouterr()
    for out, extension in ((xml_out, ".xml"), (html_out, ".html")):
        with open(os.path.join(GOLDEN, golden + extension), "rb") as handle:
            assert out.read_bytes() == handle.read()
    with open(os.path.join(GOLDEN, golden + ".out"), encoding="utf-8") as handle:
        assert captured.out == handle.read()
    assert captured.err == ""
    assert from_xml(xml_out.read_bytes()).files == [fixture]  # the golden reads back, its counts checked
