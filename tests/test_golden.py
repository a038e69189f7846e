"""Byte-for-byte regression of the CLI's XML on the two fixtures.

Regenerate a golden only for an intended output change, from the fixtures
directory so that the paths stay relative::

    cd tests/fixtures
    python3 -m cglint.cli --lang minicpp ExampleImpl.cpp \\
        --timestamp 2014-09-08T00:00:00Z --xml-out ../golden/ExampleImpl.xml
"""

import os

import pytest
from conftest import FIXTURES

from cglint.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize(
    "fixture,lang,golden",
    [
        ("ExampleImpl.cpp", "minicpp", "ExampleImpl.xml"),
        ("librarytest.sd", "seqdiag", "librarytest.xml"),
    ],
)
def test_fixture_xml_matches_golden(fixture, lang, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    out = tmp_path / "out.xml"
    code = main(
        ["--lang", lang, fixture, "--timestamp", "2014-09-08T00:00:00Z",
         "--xml-out", str(out)]
    )
    assert code == 1
    with open(os.path.join(GOLDEN, golden), "rb") as handle:
        assert out.read_bytes() == handle.read()
