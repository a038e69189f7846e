import html
import random
import string
from decimal import ROUND_HALF_UP, Decimal

import pytest
import xml_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from xml.etree import ElementTree as ET

from cglint.errors import XmlSchemaError
from cglint.model import (
    Criticality,
    Finding,
    Priority,
    RuleDescriptor,
    RuleReport,
    SourceSpan,
    ValidationResults,
)
from cglint.report import NOT_XML_CHAR, _escape_html, from_xml, render_html, summarize, to_xml


def descriptor(rule_id, priority=Priority.SHALL, criticality=Criticality.LOW):
    return RuleDescriptor(
        id=rule_id,
        title="%s title" % rule_id,
        description="What %s checks." % rule_id,
        reference="",
        priority=priority,
        criticality=criticality,
    )


def finding(rule_id, file, row, col, message):
    return Finding(rule_id, SourceSpan.point(file, row, col), message)


def simple_results():
    report = RuleReport(
        descriptor=descriptor("DemoChecker"),
        effective_properties={"limit": "3"},
        findings=[
            finding("DemoChecker", "a.cpp", 4, 7, "first problem"),
            finding("DemoChecker", "a.cpp", 9, 1, "second problem"),
        ],
    )
    empty = RuleReport(descriptor=descriptor("CleanChecker"))
    return ValidationResults(
        created="2024-05-01T10:30:00+00:00",
        reports=[empty, report],
        files=["a.cpp"],
    )


class TestSummarize:
    def test_reference_distribution(self):
        """459 HIGH, 1575 MEDIUM, 3304 LOW out of 5338."""
        reports = []
        for i, (crit, count) in enumerate(
            [(Criticality.HIGH, 459), (Criticality.MEDIUM, 1575), (Criticality.LOW, 3304)]
        ):
            desc = descriptor("R%d" % i, criticality=crit)
            reports.append(
                RuleReport(
                    descriptor=desc,
                    findings=[
                        finding("R%d" % i, "f.cpp", n + 1, 1, "m") for n in range(count)
                    ],
                )
            )
        results = ValidationResults(created="t", reports=reports, files=["f.cpp"])
        summary = summarize(results)
        assert summary.total == 5338
        assert summary.counts[Criticality.HIGH] == 459
        assert summary.percentages[Criticality.HIGH] == 8.6
        assert summary.percentages[Criticality.MEDIUM] == 29.5
        assert summary.percentages[Criticality.LOW] == 61.9

    def test_round_half_up(self):
        # 1 of 16 findings is 6.25 percent, which rounds up to 6.3
        reports = [
            RuleReport(
                descriptor=descriptor("H", criticality=Criticality.HIGH),
                findings=[finding("H", "f.cpp", 1, 1, "m")],
            ),
            RuleReport(
                descriptor=descriptor("L", criticality=Criticality.LOW),
                findings=[finding("L", "f.cpp", n + 2, 1, "m") for n in range(15)],
            ),
        ]
        results = ValidationResults(created="t", reports=reports)
        summary = summarize(results)
        assert summary.percentages[Criticality.HIGH] == 6.3

    def test_empty_results(self):
        summary = summarize(ValidationResults(created="t"))
        assert summary.total == 0
        assert all(p == 0.0 for p in summary.percentages.values())

    @settings(deadline=None, derandomize=True, database=None)
    @given(counts=st.lists(st.integers(0, 10**6), min_size=3, max_size=3))
    def test_percentages_round_half_up(self, counts):
        """Each percentage is 100 * count / total rounded half up to one
        decimal, as ``Decimal`` computes it."""
        reports = [
            RuleReport(descriptor=descriptor(crit.value, criticality=crit), findings=[finding(crit.value, "f.cpp", 1, 1, "m")] * count)
            for crit, count in zip(Criticality, counts)
        ]
        summary = summarize(ValidationResults(created="t", reports=reports))
        total = sum(counts)
        for crit, count in zip(Criticality, counts):
            expected = 0.0
            if total:
                exact = Decimal(100 * count) / Decimal(total)
                expected = float(exact.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
            assert summary.counts[crit] == count
            assert summary.percentages[crit] == expected


class TestXml:
    def test_document_shape(self):
        data = to_xml(simple_results())
        assert data.startswith(b"<?xml")
        root = ET.fromstring(data)
        assert root.tag == "vfresults"
        assert root.get("created") == "2024-05-01T10:30:00+00:00"
        assert root.get("findings") == "2"
        files = root.findall("file")
        assert [(f.get("path"), f.get("findings")) for f in files] == [("a.cpp", "2")]
        rules = root.findall("rule")
        assert [r.get("id") for r in rules] == ["CleanChecker", "DemoChecker"]
        demo = rules[1]
        assert demo.get("priority") == "SHALL"
        assert demo.get("criticality") == "LOW"
        props = demo.findall("property")
        assert [(p.get("name"), p.get("value")) for p in props] == [("limit", "3")]
        messages = demo.findall("message")
        assert [(m.get("row"), m.get("col")) for m in messages] == [("4", "7"), ("9", "1")]
        assert messages[0].get("text") == "first problem"

    def test_serialization_is_deterministic(self):
        results = simple_results()
        assert to_xml(results) == to_xml(results)

    def test_escaping(self):
        report = RuleReport(
            descriptor=descriptor("EscChecker"),
            findings=[finding("EscChecker", "a.cpp", 1, 1, 'x < 1 && s == "a"')],
        )
        results = ValidationResults(created="t", reports=[report], files=["a.cpp"])
        parsed = from_xml(to_xml(results))
        assert parsed.reports[0].findings[0].message == 'x < 1 && s == "a"'

    def test_round_trip_example(self):
        results = simple_results()
        assert from_xml(to_xml(results)) == results

    def test_round_trip_random(self):
        """100 random result sets survive an XML round trip unchanged."""
        rng = random.Random(2024)
        for _ in range(100):
            results = random_results(rng)
            assert from_xml(to_xml(results)) == results


def random_results(rng):
    files = sorted(
        "%s.cpp" % "".join(rng.choices(string.ascii_lowercase, k=4))
        for _ in range(rng.randint(1, 3))
    )
    reports = []
    for rule_id in sorted(
        {"Rule%s" % "".join(rng.choices(string.ascii_uppercase, k=3))
         for _ in range(rng.randint(0, 5))}
    ):
        desc = descriptor(
            rule_id,
            priority=rng.choice(list(Priority)),
            criticality=rng.choice(list(Criticality)),
        )
        findings = sorted(
            (
                finding(
                    rule_id,
                    rng.choice(files),
                    rng.randint(1, 500),
                    rng.randint(1, 120),
                    "message <%d> & 'quote'" % rng.randint(0, 9),
                )
                for _ in range(rng.randint(0, 6))
            ),
            key=Finding.sort_key,
        )
        properties = {
            "p%d" % i: str(rng.randint(0, 99)) for i in range(rng.randint(0, 3))
        }
        reports.append(
            RuleReport(descriptor=desc, effective_properties=properties, findings=findings)
        )
    results = ValidationResults(created="2024-01-01T00:00:00+00:00", reports=reports)
    results.files = sorted(results.findings_by_file())
    return results


# Texts an XML attribute can carry: no surrogate and no character XML 1.0
# forbids.
XML_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda text: not NOT_XML_CHAR.search(text)
)


@st.composite
def generated_results(draw):
    """Results as a run gives them: sorted unique files, reports ordered by
    rule id, each with its findings in those files sorted by position."""
    files = sorted(draw(st.sets(XML_TEXT, max_size=3)))
    reports = []
    for rule_id in sorted(draw(st.sets(st.from_regex(r"[A-Z][a-z]{0,5}Checker", fullmatch=True), max_size=4))):
        desc = descriptor(rule_id, draw(st.sampled_from(Priority)), draw(st.sampled_from(Criticality)))
        findings = []
        if files:
            spans = st.tuples(st.sampled_from(files), st.integers(1, 10**4), st.integers(1, 500))
            for (file, row, col), text in draw(st.lists(st.tuples(spans, XML_TEXT), max_size=5)):
                findings.append(finding(rule_id, file, row, col, text))
        properties = draw(st.dictionaries(XML_TEXT, XML_TEXT, max_size=3))
        findings.sort(key=Finding.sort_key)
        reports.append(RuleReport(descriptor=desc, effective_properties=properties, findings=findings))
    return ValidationResults(created=draw(XML_TEXT), reports=reports, files=files)


@settings(deadline=None, derandomize=True, database=None)
@given(results=generated_results())
def test_round_trip_property(results):
    """``from_xml(to_xml(r))`` gives back ``r``: its files, and its reports
    with their findings."""
    assert from_xml(to_xml(results)) == results


# Attribute text as the writer meets it: the characters it escapes, the
# apostrophe it does not, and any other character XML can carry.
ATTRIBUTE_TEXT = st.text(
    st.one_of(st.sampled_from("&<>\"'\t\n\r "), st.characters(blacklist_categories=("Cs",))), max_size=12
).filter(lambda text: not NOT_XML_CHAR.search(text))


@st.composite
def writer_results(draw):
    """Results with every text attribute drawn, unsorted, with findings in
    listed files and others: each list empty or not."""
    files = draw(st.lists(ATTRIBUTE_TEXT, max_size=3, unique=True))
    span_files = st.one_of(st.sampled_from(files), ATTRIBUTE_TEXT) if files else ATTRIBUTE_TEXT
    reports = []
    for rule_id in draw(st.lists(ATTRIBUTE_TEXT, max_size=4, unique=True)):
        texts = draw(st.tuples(ATTRIBUTE_TEXT, ATTRIBUTE_TEXT, ATTRIBUTE_TEXT))
        desc = RuleDescriptor(rule_id, *texts, draw(st.sampled_from(Priority)), draw(st.sampled_from(Criticality)))
        spans = st.builds(SourceSpan.point, span_files, st.integers(1, 10**6), st.integers(1, 10**6))
        findings = draw(st.lists(st.builds(Finding, st.just(rule_id), spans, ATTRIBUTE_TEXT.filter(bool)), max_size=4))
        properties = draw(st.dictionaries(ATTRIBUTE_TEXT, ATTRIBUTE_TEXT, max_size=3))
        reports.append(RuleReport(desc, properties, findings))
    return ValidationResults(draw(ATTRIBUTE_TEXT), reports, files)


@settings(deadline=None, derandomize=True, database=None)
@given(results=writer_results())
@example(results=ValidationResults(created=""))
@example(results=ValidationResults(created="t", reports=[RuleReport(descriptor("CleanChecker"))]))
@example(results=simple_results())
def test_to_xml_matches_element_tree(results):
    """The writer gives exactly the bytes ElementTree gave."""
    assert to_xml(results) == xml_oracle.to_xml(results)


@settings(deadline=None, derandomize=True, database=None)
@given(text=ATTRIBUTE_TEXT)
def test_html_escape_matches_html_escape(text):
    assert _escape_html(text) == html.escape(text)


class TestModelEquality:
    def test_descriptor_equality_ignores_wiring(self):
        plain = descriptor("DemoChecker")
        wired = plain._replace(subscriptions=(("minicpp", "ClassDef"),), default_properties=(("limit", "3", "int"),))
        assert wired == plain and not wired != plain
        assert hash(wired) == hash(plain)
        assert len({plain, wired}) == 1

    @pytest.mark.parametrize(
        "change",
        [{"id": "X"}, {"title": "X"}, {"description": "X"}, {"reference": "X"},
         {"priority": Priority.WILL}, {"criticality": Criticality.HIGH}],
        ids=lambda change: next(iter(change)),
    )
    def test_descriptor_identity_fields_take_part(self, change):
        plain = descriptor("DemoChecker")
        assert plain._replace(**change) != plain and not plain._replace(**change) == plain

    def test_descriptor_and_finding_are_immutable(self):
        with pytest.raises(AttributeError):
            descriptor("DemoChecker").priority = Priority.WILL
        with pytest.raises(AttributeError):
            finding("DemoChecker", "a.cpp", 1, 1, "m").message = "other"

    def test_finding_rejects_an_empty_message(self):
        with pytest.raises(ValueError, match="non-empty"):
            Finding("DemoChecker", SourceSpan.point("a.cpp", 1, 1), "")

    def test_results_built_alike_compare_equal(self):
        assert simple_results() == simple_results() and not simple_results() != simple_results()
        changed = simple_results()
        changed.reports[1].findings.pop()
        assert changed != simple_results()
        assert RuleReport(descriptor("CleanChecker")) == RuleReport(descriptor("CleanChecker"), {}, [])


class TestFromXmlErrors:
    def test_not_xml(self):
        with pytest.raises(XmlSchemaError):
            from_xml(b"this is not xml")

    def test_wrong_root(self):
        with pytest.raises(XmlSchemaError):
            from_xml(b"<results created='t'/>")

    def test_missing_created(self):
        with pytest.raises(XmlSchemaError):
            from_xml(b"<vfresults findings='0'/>")

    def test_unexpected_element(self):
        with pytest.raises(XmlSchemaError):
            from_xml(b"<vfresults created='t' findings='0'><bogus/></vfresults>")

    def test_unexpected_element_in_rule(self):
        data = (
            b"<vfresults created='t' findings='0'>"
            b"<rule id='R' title='T' description='D' reference='' "
            b"priority='SHALL' criticality='LOW' findings='0'><bogus/></rule></vfresults>"
        )
        with pytest.raises(XmlSchemaError, match="unexpected element 'bogus'"):
            from_xml(data)

    def test_bad_enum(self):
        data = (
            b"<vfresults created='t' findings='0'>"
            b"<rule id='R' title='T' description='D' reference='' "
            b"priority='URGENT' criticality='LOW' findings='0'/></vfresults>"
        )
        with pytest.raises(XmlSchemaError):
            from_xml(data)

    @pytest.mark.parametrize(
        "row, col, text",
        [
            ("x", "1", "m"),
            ("1", "1", ""),
            ("0", "1", "m"),
            ("1", "-3", "m"),
            (" 1", "1", "m"),
            ("1_0", "1", "m"),
            ("\u0661", "1", "m"),
        ],
        ids=["letter", "empty-text", "zero", "negative-col", "space", "underscore", "arabic-indic-digit"],
    )
    def test_non_integer_row(self, row, col, text):
        """A message that ``to_xml`` cannot have written: its row and col
        are ASCII digits of at least 1, and its text is not empty."""
        data = (
            "<vfresults created='t' findings='1'>"
            "<rule id='R' title='T' description='D' reference='' "
            "priority='SHALL' criticality='LOW' findings='1'>"
            "<message file='a.cpp' row='%s' col='%s' text='%s'/>"
            "</rule></vfresults>" % (row, col, text)
        ).encode("utf-8")
        with pytest.raises(XmlSchemaError):
            from_xml(data)

    @pytest.mark.parametrize(
        "total, file_count, rule_count",
        [("7", "3", None), ("2", "1", "1"), ("1", "0", "1"), ("1", "1", "2"), ("1", "01", "1"), ("1", None, "1")],
        ids=["no-messages", "document", "file", "rule", "leading-zero", "missing"],
    )
    def test_findings_count_disagrees(self, total, file_count, rule_count):
        """A ``findings`` count that ``to_xml`` cannot have written: it is
        missing or not the number of messages read."""
        file_count = "" if file_count is None else "findings='%s'" % file_count
        rule = ""
        if rule_count is not None:
            rule = (
                "<rule id='R' title='T' description='D' reference='' priority='SHALL' criticality='LOW' "
                "findings='%s'><message file='a.cpp' row='1' col='1' text='m'/></rule>" % rule_count
            )
        data = "<vfresults created='t' findings='%s'><file path='a.cpp' %s/>%s</vfresults>" % (total, file_count, rule)
        with pytest.raises(XmlSchemaError, match="findings"):
            from_xml(data.encode("utf-8"))


class TestHtml:
    def test_summary_strings(self):
        report = RuleReport(
            descriptor=descriptor("DemoChecker"),
            findings=[
                finding("DemoChecker", "a.cpp", r, 7, "problem %d" % r)
                for r in (10, 15, 19, 22)
            ],
        )
        results = ValidationResults(
            created="2024-05-01T10:30:00+00:00", reports=[report], files=["a.cpp"]
        )
        page = render_html(results)
        assert "<title>CGL Report Summary</title>" in page
        assert "The CGLs (Found 4 errors; created 2024-05-01 10:30):" in page
        assert "CGL Categories" in page
        assert "DemoChecker title (4 errors)" in page
        assert "a.cpp (4 errors)" in page
        assert "<th>Filename</th><th>Message</th><th>Row</th><th>Column</th>" in page
        assert page.count("Back to top") == 1

    def test_singular_count_still_says_errors(self):
        report = RuleReport(
            descriptor=descriptor("DemoChecker"),
            findings=[finding("DemoChecker", "a.cpp", 1, 1, "only one")],
        )
        results = ValidationResults(created="t", reports=[report], files=["a.cpp"])
        assert "(1 errors)" in render_html(results)

    def test_rules_without_findings_omitted(self):
        page = render_html(simple_results())
        assert "DemoChecker title" in page
        assert "CleanChecker title" not in page

    def test_html_escaped(self):
        report = RuleReport(
            descriptor=descriptor("EscChecker"),
            findings=[finding("EscChecker", "a.cpp", 1, 1, "x < 1 && y > 2")],
        )
        results = ValidationResults(created="t", reports=[report], files=["a.cpp"])
        page = render_html(results)
        assert "x &lt; 1 &amp;&amp; y &gt; 2" in page
