"""Serialization of results to XML and rendering of the HTML report.

The XML document is the canonical interchange artifact; the HTML report is
rendered directly from the results model and lists only rules that
produced findings.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import XmlSchemaError
from .model import (
    Criticality,
    Finding,
    Priority,
    RuleDescriptor,
    RuleReport,
    SourceSpan,
    ValidationResults,
    parse_int,
)


# A character outside XML 1.0's Char production, which no XML document can
# carry: a control character other than tab, newline and carriage return, a
# surrogate, U+FFFE or U+FFFF. (The class of the characters XML allows takes
# ~7.6 ms to compile on a 2-vCPU x86_64 host, ~9% of a run with no inputs.)
NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def display_path(path):
    """``path`` as the reports show it: each byte of the name that is not
    UTF-8 (decoded as a lone surrogate) and each character XML cannot carry
    is written as ``\\xNN``, one escape per byte of its UTF-8 encoding."""
    return NOT_XML_CHAR.sub(
        lambda m: "".join("\\x%02x" % b for b in m.group().encode("utf-8", "surrogateescape")),
        path,
    )


class SeveritySummary(NamedTuple):
    total: int
    counts: dict  # Criticality -> int
    percentages: dict  # Criticality -> float, one decimal, round-half-up


def summarize(results):
    """Count findings per criticality of each report's descriptor, and each
    count's share of the total in percent, rounded half up to one decimal
    in integers: ``(2000 * count + total) // (2 * total)`` tenths."""
    counts = {c: 0 for c in Criticality}
    for report in results.reports:
        counts[report.descriptor.criticality] += len(report.findings)
    total = sum(counts.values())
    percentages = {c: (2000 * n + total) // (2 * total) / 10 if total else 0.0 for c, n in counts.items()}
    return SeveritySummary(total=total, counts=counts, percentages=percentages)


def to_xml(results):
    """Serialize ``results`` to canonical UTF-8 XML bytes as ElementTree's
    ``indent`` and ``tostring`` write them: a declaration, one element per
    line indented two spaces per level, no final newline, and a character
    UTF-8 cannot encode (a lone surrogate) as a character reference."""
    by_file = results.findings_by_file()
    children = ['  <file path="%s" findings="%d" />' % (_attribute(path), by_file[path]) for path in sorted(by_file)]
    for report in sorted(results.reports, key=lambda r: r.descriptor.id):
        desc, properties = report.descriptor, report.effective_properties
        lines = [
            '    <property name="%s" value="%s" />' % (_attribute(key), _attribute(properties[key]))
            for key in sorted(properties)
        ] + [
            '    <message file="%s" row="%d" col="%d" text="%s" />'
            % (_attribute(f.span.file), f.span.row, f.span.col, _attribute(f.message))
            for f in sorted(report.findings, key=Finding.sort_key)
        ]
        texts = map(_attribute, (desc.id, desc.title, desc.description, desc.reference))
        start = '  <rule id="%s" title="%s" description="%s" reference="%s" priority="%s" criticality="%s" findings="%d"'
        start %= (*texts, desc.priority.value, desc.criticality.value, len(report.findings))
        children += _element(start, lines, "  </rule>")
    start = '<vfresults created="%s" findings="%d"' % (_attribute(results.created), results.total_findings())
    lines = ["<?xml version='1.0' encoding='utf-8'?>"] + _element(start, children, "</vfresults>")
    return "\n".join(lines).encode("utf-8", "xmlcharrefreplace")


def _element(start, children, end):
    """The lines of one element: its ``start`` tag closed by `` />`` when it
    has no ``children``, else by ``>``, and followed by them and ``end``."""
    return [start + ">", *children, end] if children else [start + " />"]


def _attribute(text):
    """``text`` escaped for a double-quoted attribute value, as ElementTree
    escapes it: ``& < > "`` and tab, newline and carriage return."""
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
        .replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#09;")
    )


def from_xml(data):
    """Parse bytes produced by :func:`to_xml` back into ValidationResults.
    The ``findings`` count of the document, of each file and of each rule
    must equal the number of messages read for it."""
    from xml.etree import ElementTree as ET

    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise XmlSchemaError("not well-formed XML: %s" % exc) from None
    if root.tag != "vfresults":
        raise XmlSchemaError("expected root element 'vfresults', got %r" % root.tag)
    created = _require(root, "created")
    files = []
    file_elements = []
    reports = []
    for child in root:
        if child.tag == "file":
            files.append(_require(child, "path"))
            file_elements.append(child)
        elif child.tag == "rule":
            reports.append(_parse_rule(child))
        else:
            raise XmlSchemaError("unexpected element %r" % child.tag)
    results = ValidationResults(created=created, reports=reports, files=files)
    _check_count(root, results.total_findings())
    by_file = results.findings_by_file()
    for element, path in zip(file_elements, files):
        _check_count(element, by_file[path])
    return results


def _require(element, attribute):
    value = element.get(attribute)
    if value is None:
        raise XmlSchemaError("element %r lacks attribute %r" % (element.tag, attribute))
    return value


def _check_count(element, count):
    """Raise unless the ``findings`` attribute of ``element`` is ``count``, as
    :func:`to_xml` writes it."""
    stated = _require(element, "findings")
    if stated != str(count):
        raise XmlSchemaError("element %r states %r findings but holds %d" % (element.tag, stated, count))


def _parse_rule(element):
    try:
        priority = Priority[_require(element, "priority")]
        criticality = Criticality[_require(element, "criticality")]
    except KeyError as exc:
        raise XmlSchemaError("bad enum value %s in rule element" % exc) from None
    texts = [_require(element, name) for name in ("id", "title", "description", "reference")]
    descriptor = RuleDescriptor(*texts, priority, criticality)
    properties = {}
    findings = []
    for child in element:
        if child.tag == "property":
            properties[_require(child, "name")] = _require(child, "value")
        elif child.tag == "message":
            # row and col are ASCII digits of at least 1, text is not empty
            try:
                row, col = parse_int(_require(child, "row")), parse_int(_require(child, "col"))
                span = SourceSpan.point(_require(child, "file"), row, col)
                findings.append(Finding(descriptor.id, span, _require(child, "text")))
            except ValueError as exc:
                raise XmlSchemaError("bad message element: %s" % exc) from None
        else:
            raise XmlSchemaError("unexpected element %r" % child.tag)
    _check_count(element, len(findings))
    return RuleReport(descriptor, properties, findings)


def _human_timestamp(created):
    import datetime

    try:
        stamp = datetime.datetime.fromisoformat(created.replace("Z", "+00:00"))
        return stamp.strftime("%Y-%m-%d %H:%M")
    except ValueError:
        return created


def _escape_html(text):
    """``html.escape(text)``: ``& < > " '`` as character references."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;").replace("'", "&#x27;")


def render_html(results, summary=None):
    """Self-contained HTML report: summary, category and file lists, and a
    message table per rule with findings."""
    if summary is None:
        summary = summarize(results)
    esc = _escape_html
    active = [r for r in results.reports if r.findings]
    by_file = results.findings_by_file()
    out = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        "<title>CGL Report Summary</title>",
        "<style>body{font-family:sans-serif;margin:2em;}table{border-collapse:collapse;}"
        "td,th{border:1px solid #999;padding:2px 8px;}</style>",
        "</head><body>",
        '<h1 id="top">CGL Report Summary</h1>',
        "<h2>Overview:</h2>",
        "<p>The CGLs (Found %d errors; created %s):</p>" % (results.total_findings(), esc(_human_timestamp(results.created))),
        "<h2>CGL Categories</h2>",
        "<ul>",
        *('<li><a href="#rule-%s">%s (%d errors)</a></li>' % (esc(r.descriptor.id), esc(r.descriptor.title), len(r.findings))
          for r in active),
        "</ul>",
        "<h2>Files:</h2>",
        "<ul>",
        *("<li>%s (%d errors)</li>" % (esc(path), by_file[path]) for path in sorted(by_file)),
        "</ul>",
        "<h2>Severity</h2>",
        "<ul>",
        *("<li>%s: %d (%.1f%%)</li>" % (esc(c.value), summary.counts[c], summary.percentages[c]) for c in Criticality),
        "</ul>",
    ]
    for report in active:
        desc = report.descriptor
        out.append('<h2 id="rule-%s">%s (%d errors):</h2>' % (esc(desc.id), esc(desc.title), len(report.findings)))
        out.append("<p>%s</p>" % esc(desc.description))
        if desc.reference:
            out.append("<p>Reference: %s</p>" % esc(desc.reference))
        out.append("<p>Priority: %s</p>" % esc(desc.priority.value))
        if report.effective_properties:
            properties = sorted(report.effective_properties.items())
            out += ["<p>Configured properties:<br>", "<br>".join("%s : %s" % (esc(k), esc(v)) for k, v in properties), "</p>"]
        out += ["<h3>Messages:</h3>", "<table>", "<tr><th>Filename</th><th>Message</th><th>Row</th><th>Column</th></tr>"]
        out += [
            "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td></tr>"
            % (esc(f.span.file), esc(f.message), f.span.row, f.span.col)
            for f in report.findings
        ]
        out += ["</table>", '<p><a href="#top">Back to top</a></p>']
    out.append("</body></html>")
    return "\n".join(out)
