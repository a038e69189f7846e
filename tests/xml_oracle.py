"""``report.to_xml`` as it was written with ElementTree, kept as the
reference the hand-written serializer is compared against: build the
element tree, indent it two spaces per level with ``ET.indent``, and write
it with ``ET.tostring`` and an XML declaration."""

from __future__ import annotations

from xml.etree import ElementTree as ET

from cglint.model import Finding


def to_xml(results):
    """Serialize ``results`` to UTF-8 XML bytes through ElementTree."""
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
