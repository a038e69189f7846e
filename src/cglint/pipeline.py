"""Per-language frontends and the analysis pipeline.

For every input file the stages run in order: parse, symbol build, rule
traversal. A fatal parse error in one file never aborts the run; the file
contributes diagnostics instead of findings and stays listed in the
results.
"""

from __future__ import annotations

import datetime

from . import seqdiag
from .core import traverse
from .errors import LexError, ParseError, UnknownLanguageError
from .minicpp import lexer as cpp_lexer
from .minicpp import parser as cpp_parser
from .minicpp import symbols  # noqa: F401  (registers the symbol builder)
from .model import AnalysisRoot, Diagnostic, RuleReport, ValidationResults
from .symtab import build_symbols


def parse_minicpp(path, text):
    root = AnalysisRoot(file=path, content=text)
    try:
        tokens = cpp_lexer.lex(text, file=path)
        root.ast = cpp_parser.parse(tokens, file=path)
    except (LexError, ParseError) as exc:
        root.diagnostics.append(Diagnostic(exc.span, exc.message, fatal=True))
    return root


def parse_seqdiag(path, text):
    root = AnalysisRoot(file=path, content=text)
    try:
        root.ast = seqdiag.parse_seq(text, file=path)
    except ParseError as exc:
        root.diagnostics.append(Diagnostic(exc.span, exc.message, fatal=True))
    return root


FRONTENDS = {
    "minicpp": {"parse": parse_minicpp, "extensions": (".cpp", ".ii")},
    "seqdiag": {"parse": parse_seqdiag, "extensions": (".sd",)},
}


def get_frontend(language):
    try:
        return FRONTENDS[language]
    except KeyError:
        raise UnknownLanguageError(language) from None


def analyze_file(path, language, text=None):
    """Run parse and symbol stages for one file."""
    frontend = get_frontend(language)
    if text is None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            root = AnalysisRoot(file=str(path), content="")
            root.diagnostics.append(Diagnostic(None, str(exc), fatal=True))
            return root
    root = frontend["parse"](str(path), text)
    build_symbols(root)
    return root


def default_timestamp():
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def run_pipeline(files, language, registry, configs, timestamp=None, diagnostics=None):
    """Analyze ``files`` and merge the per-file reports into one results
    object. ``diagnostics``, when given, collects (path, Diagnostic) pairs."""
    get_frontend(language)
    merged = {}  # rule id -> RuleReport
    paths = []
    for path in files:
        root = analyze_file(path, language)
        paths.append(root.file)
        if diagnostics is not None:
            for diag in root.diagnostics:
                diagnostics.append((root.file, diag))
        reports = traverse(root, registry, configs)
        for report in reports:
            existing = merged.get(report.descriptor.id)
            if existing is None:
                merged[report.descriptor.id] = report
            else:
                existing.findings.extend(report.findings)
    for report in merged.values():
        report.findings.sort(key=lambda f: f.sort_key())
    if not merged:
        # no files analyzed: still report every enabled rule, empty
        empty_root = AnalysisRoot(file="", content="", ast=None)
        for report in traverse(empty_root, registry, configs):
            merged[report.descriptor.id] = report
    reports = [merged[rule_id] for rule_id in sorted(merged)]
    return ValidationResults(
        created=timestamp if timestamp is not None else default_timestamp(),
        reports=reports,
        files=sorted(paths),
    )
