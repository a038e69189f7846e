"""Serialization of results to XML and rendering of the HTML report.

The XML document is the canonical interchange artifact; the HTML report is
rendered directly from the results model and lists only rules that
produced findings.
"""

from __future__ import annotations

import datetime
import html
import re
from dataclasses import dataclass
from xml.etree import ElementTree as ET

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
# ~7 ms to compile on a 2-vCPU x86_64 host, ~5% of a run's start-up.)
NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def display_path(path):
    """``path`` as the reports show it: each byte of the name that is not
    UTF-8 (decoded as a lone surrogate) and each character XML cannot carry
    is written as ``\\xNN``, one escape per byte of its UTF-8 encoding."""
    return NOT_XML_CHAR.sub(
        lambda m: "".join("\\x%02x" % b for b in m.group().encode("utf-8", "surrogateescape")),
        path,
    )


@dataclass
class SeveritySummary:
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
    """Serialize ``results`` to canonical UTF-8 XML bytes."""
    root = ET.Element(
        "vfresults",
        {"created": results.created, "findings": str(results.total_findings())},
    )
    by_file = results.findings_by_file()
    for path in sorted(by_file):
        ET.SubElement(root, "file", {"path": path, "findings": str(by_file[path])})
    for report in sorted(results.reports, key=lambda r: r.descriptor.id):
        desc = report.descriptor
        rule_el = ET.SubElement(
            root,
            "rule",
            {
                "id": desc.id,
                "title": desc.title,
                "description": desc.description,
                "reference": desc.reference,
                "priority": desc.priority.value,
                "criticality": desc.criticality.value,
                "findings": str(len(report.findings)),
            },
        )
        for key in sorted(report.effective_properties):
            ET.SubElement(
                rule_el,
                "property",
                {"name": key, "value": report.effective_properties[key]},
            )
        for finding in sorted(report.findings, key=Finding.sort_key):
            ET.SubElement(
                rule_el,
                "message",
                {
                    "file": finding.span.file,
                    "row": str(finding.span.row),
                    "col": str(finding.span.col),
                    "text": finding.message,
                },
            )
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def from_xml(data):
    """Parse bytes produced by :func:`to_xml` back into ValidationResults.
    The ``findings`` count of the document, of each file and of each rule
    must equal the number of messages read for it."""
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
        raise XmlSchemaError(
            "element %r lacks attribute %r" % (element.tag, attribute)
        )
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
    descriptor = RuleDescriptor(
        id=_require(element, "id"),
        title=_require(element, "title"),
        description=_require(element, "description"),
        reference=_require(element, "reference"),
        priority=priority,
        criticality=criticality,
    )
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
    return RuleReport(
        descriptor=descriptor, effective_properties=properties, findings=findings
    )


def _human_timestamp(created):
    try:
        stamp = datetime.datetime.fromisoformat(created.replace("Z", "+00:00"))
        return stamp.strftime("%Y-%m-%d %H:%M")
    except ValueError:
        return created


def render_html(results, summary=None):
    """Self-contained HTML report: summary, category and file lists, and a
    message table per rule with findings."""
    if summary is None:
        summary = summarize(results)
    total = results.total_findings()
    active = [r for r in results.reports if r.findings]
    out = []
    esc = html.escape
    out.append("<!DOCTYPE html>")
    out.append('<html><head><meta charset="utf-8">')
    out.append("<title>CGL Report Summary</title>")
    out.append(
        "<style>body{font-family:sans-serif;margin:2em;}"
        "table{border-collapse:collapse;}"
        "td,th{border:1px solid #999;padding:2px 8px;}</style>"
    )
    out.append("</head><body>")
    out.append('<h1 id="top">CGL Report Summary</h1>')
    out.append("<h2>Overview:</h2>")
    out.append(
        "<p>The CGLs (Found %d errors; created %s):</p>"
        % (total, esc(_human_timestamp(results.created)))
    )
    out.append("<h2>CGL Categories</h2>")
    out.append("<ul>")
    for report in active:
        out.append(
            '<li><a href="#rule-%s">%s (%d errors)</a></li>'
            % (esc(report.descriptor.id), esc(report.descriptor.title), len(report.findings))
        )
    out.append("</ul>")
    out.append("<h2>Files:</h2>")
    out.append("<ul>")
    by_file = results.findings_by_file()
    for path in sorted(by_file):
        out.append("<li>%s (%d errors)</li>" % (esc(path), by_file[path]))
    out.append("</ul>")
    out.append("<h2>Severity</h2>")
    out.append("<ul>")
    for crit in Criticality:
        out.append(
            "<li>%s: %d (%.1f%%)</li>"
            % (esc(crit.value), summary.counts[crit], summary.percentages[crit])
        )
    out.append("</ul>")
    for report in active:
        desc = report.descriptor
        out.append(
            '<h2 id="rule-%s">%s (%d errors):</h2>'
            % (esc(desc.id), esc(desc.title), len(report.findings))
        )
        out.append("<p>%s</p>" % esc(desc.description))
        if desc.reference:
            out.append("<p>Reference: %s</p>" % esc(desc.reference))
        out.append("<p>Priority: %s</p>" % esc(desc.priority.value))
        if report.effective_properties:
            out.append("<p>Configured properties:<br>")
            out.append(
                "<br>".join(
                    "%s : %s" % (esc(k), esc(v))
                    for k, v in sorted(report.effective_properties.items())
                )
            )
            out.append("</p>")
        out.append("<h3>Messages:</h3>")
        out.append("<table>")
        out.append(
            "<tr><th>Filename</th><th>Message</th><th>Row</th><th>Column</th></tr>"
        )
        for finding in report.findings:
            out.append(
                "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td></tr>"
                % (
                    esc(finding.span.file),
                    esc(finding.message),
                    finding.span.row,
                    finding.span.col,
                )
            )
        out.append("</table>")
        out.append('<p><a href="#top">Back to top</a></p>')
    out.append("</body></html>")
    return "\n".join(out)
