"""Command-line driver with CI-friendly exit codes.

Exit code 0: no build-breaking findings and no errors.
Exit code 1: at least one SHALL-priority finding (or, with ``--strict``,
any finding at all).
Exit code 2: configuration, parse, or I/O error, including a configuration
file that is not UTF-8 and an output file that cannot be written. The XML
output is written even when findings break the build.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .core import RuleRegistry, default_configs, register_rules
from .errors import CglintError
from .model import Priority
from .pipeline import FRONTENDS, get_frontend, read_text, run_pipeline
from .report import NOT_XML_CHAR, render_html, summarize, to_xml


def build_registry(language):
    return register_rules(RuleRegistry(), get_frontend(language)["rules"]())


def list_rules(language):
    registry = build_registry(language)
    lines = []
    for desc in registry.descriptors():
        props = ", ".join("%s=%s" % (k, v) for k, v in desc.defaults().items())
        line = "%s  %s  [%s/%s]" % (desc.id, desc.title, desc.priority.value, desc.criticality.value)
        if props:
            line += "  (%s)" % props
        lines.append(line)
    return "\n".join(lines)


def collect_inputs(paths, extensions):
    """The files named by ``paths``, sorted; a directory contributes the
    files under it with one of ``extensions``. Spellings of one path that
    ``os.path.normpath`` makes equal, such as ``a.cpp`` and ``./a.cpp``,
    name one file, shown as the first spelling given."""
    files = {}  # normalised path -> the first spelling given
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for name in filenames:
                    if os.path.splitext(name)[1] in extensions:
                        found = os.path.join(dirpath, name)
                        files.setdefault(os.path.normpath(found), found)
        else:
            files.setdefault(os.path.normpath(path), path)
    return sorted(files.values())


def make_parser():
    parser = argparse.ArgumentParser(
        prog="cglint", description="Validate sources against coding guidelines."
    )
    parser.add_argument("inputs", nargs="*", help="input files or directories")
    parser.add_argument("--lang", required=True, help="language id (%s)" % ", ".join(FRONTENDS))
    parser.add_argument("--config", help="rule configuration file")
    parser.add_argument("--xml-out", default="vfresults.xml", help="XML output path")
    parser.add_argument("--html-out", help="HTML report output path")
    parser.add_argument(
        "--timestamp", help="inject a fixed ISO-8601 timestamp (reproducible output)"
    )
    parser.add_argument(
        "--strict", action="store_true", help="any finding fails the build"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        if args.list_rules:
            print(list_rules(args.lang))
            return 0
        bad = NOT_XML_CHAR.search(args.timestamp or "")
        if bad:
            raise CglintError("--timestamp: character %r cannot be written to XML" % bad.group())
        registry = build_registry(args.lang)
        if args.config:
            configs = load_config(read_text(args.config), registry)
        else:
            configs = default_configs(registry)
        frontend = get_frontend(args.lang)
    except (CglintError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print("error: %s: %s" % (args.config, exc), file=sys.stderr)
        return 2

    files = collect_inputs(args.inputs, frontend["extensions"])
    diagnostics = []
    results = run_pipeline(
        files,
        args.lang,
        registry,
        configs,
        timestamp=args.timestamp,
        diagnostics=diagnostics,
    )

    try:
        with open(args.xml_out, "wb") as handle:
            handle.write(to_xml(results))
        if args.html_out:
            summary = summarize(results)
            with open(args.html_out, "w", encoding="utf-8") as handle:
                handle.write(render_html(results, summary))
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    for report in results.reports:
        if report.findings:
            print("%s: %d finding(s)" % (report.descriptor.id, len(report.findings)))
    for path, diag in diagnostics:
        where = path
        if diag.span is not None:
            where = "%s:%d:%d" % (diag.span.file, diag.span.row, diag.span.col)
        stream = sys.stderr if diag.fatal else sys.stdout
        print("%s: %s" % (where, diag.message), file=stream)

    if any(diag.fatal for _path, diag in diagnostics):
        return 2
    breaking = any(
        report.findings
        and (args.strict or report.descriptor.priority is Priority.SHALL)
        for report in results.reports
    )
    return 1 if breaking else 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
