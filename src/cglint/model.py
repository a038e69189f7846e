"""Language-independent data model: syntax nodes, rule metadata, results."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    """1-based, inclusive source region. A point span has end == start."""

    file: str
    row: int
    col: int
    end_row: int
    end_col: int

    def __post_init__(self):
        if self.row < 1 or self.col < 1:
            raise ValueError("span start must be 1-based: %r" % (self,))
        if (self.end_row, self.end_col) < (self.row, self.col):
            raise ValueError("span ends before it starts: %r" % (self,))

    @classmethod
    def point(cls, file, row, col):
        return cls(file, row, col, row, col)

    def start_point(self):
        return SourceSpan.point(self.file, self.row, self.col)


# Syntax nesting beyond which a parser stops with a ParseError: minicpp
# declarations, statements and expressions, seqdiag interaction blocks. Each
# level costs a parser at most three Python frames, so the limit trips far
# below the interpreter's recursion limit.
MAX_NESTING = 128


@dataclass
class AstNode:
    """Generic, language-tagged syntax-graph node.

    ``kind`` is drawn from the owning frontend's published kind catalog;
    ``node_id`` values are unique within one unit, assigned in parse order.
    Attribute values are ``str``, ``bool`` or ``int``.
    """

    language: str
    kind: str
    span: SourceSpan
    attributes: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    node_id: int = 0

    def attr(self, name, default=""):
        return self.attributes.get(name, default)

    def walk(self):
        """Depth-first pre-order iteration over this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def count(self):
        return sum(1 for _ in self.walk())

    def find_all(self, kind):
        return [n for n in self.walk() if n.kind == kind]


@dataclass
class Diagnostic:
    span: SourceSpan | None
    message: str
    fatal: bool = True


@dataclass
class AnalysisRoot:
    """One parsed source unit plus everything later workflow stages attach.

    ``ast`` is present iff ``diagnostics`` contains no fatal entry.
    """

    file: str
    content: str
    ast: AstNode | None = None
    symbols: object = None
    diagnostics: list = field(default_factory=list)

    def has_fatal_error(self):
        return any(d.fatal for d in self.diagnostics)


class Priority(enum.Enum):
    SHOULD = "SHOULD"
    SHALL = "SHALL"
    WILL = "WILL"


class Criticality(enum.Enum):
    HIGH = "HIGH"
    MEDIUM = "MEDIUM"
    LOW = "LOW"


def parse_bool(text):
    """``true`` or ``false`` in any case; anything else is a ValueError."""
    value = text.lower()
    if value not in ("true", "false"):
        raise ValueError("expected true or false, found %r" % text)
    return value == "true"


def parse_int(text):
    """A non-negative integer in ASCII digits; anything else is a ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected digits, found %r" % text)
    return int(text)


def parse_list(text):
    """Comma-separated entries, each stripped; empty entries are dropped."""
    return [entry.strip() for entry in text.split(",") if entry.strip()]


# The types a rule property can declare, each with its conversion from text.
PROPERTY_TYPES = {"int": parse_int, "bool": parse_bool, "regex": re.compile, "str": str, "list": parse_list}


@dataclass(frozen=True)
class RuleDescriptor:
    """Identity and metadata of one validation rule.

    ``subscriptions`` and ``default_properties`` are registry wiring and do
    not take part in equality; the reporting layer round-trips descriptors
    through XML which carries only the identity fields. Each default
    property is a ``(name, default text, type)`` triple, the type being a
    key of ``PROPERTY_TYPES``.
    """

    id: str
    title: str
    description: str
    reference: str
    priority: Priority
    criticality: Criticality
    subscriptions: tuple = field(default=(), compare=False)
    default_properties: tuple = field(default=(), compare=False)

    def defaults(self):
        """Property name -> default text."""
        return {name: text for name, text, _type in self.default_properties}

    def property_value(self, name, text):
        """Convert ``text`` to the declared type of property ``name``;
        raises ValueError when that type rejects it."""
        type_name = next(t for n, _d, t in self.default_properties if n == name)
        try:
            return PROPERTY_TYPES[type_name](text)
        except (ValueError, re.error):
            raise ValueError("expected %s, found %r" % (type_name, text)) from None


@dataclass
class RuleConfig:
    rule_id: str
    enabled: bool = True
    priority_override: Priority | None = None
    properties: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Finding:
    rule_id: str
    span: SourceSpan
    message: str

    def __post_init__(self):
        if not self.message:
            raise ValueError("finding message must be non-empty")

    def sort_key(self):
        return (self.span.file, self.span.row, self.span.col, self.message)


@dataclass
class RuleReport:
    """All findings of one enabled rule, with its effective configuration."""

    descriptor: RuleDescriptor
    effective_properties: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)


@dataclass
class ValidationResults:
    """Root results object: one report per enabled rule, ordered by rule id."""

    created: str
    reports: list = field(default_factory=list)
    files: list = field(default_factory=list)

    def total_findings(self):
        return sum(len(r.findings) for r in self.reports)

    def findings_by_file(self):
        counts = {path: 0 for path in self.files}
        for report in self.reports:
            for finding in report.findings:
                counts[finding.span.file] = counts.get(finding.span.file, 0) + 1
        return counts
