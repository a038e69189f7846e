"""In-memory span tracer and the wrappers it installs at cglint's layer
boundaries.

Every wrapper lives here; nothing under ``src/`` changes. Boundary calls
become spans (name, start, end, parent). Rule ``visit``/``finish`` calls are
too many for one span each, so they are aggregated per rule as a call count
plus total nanoseconds, charged to the span that is open at the time. A
layer's self time is its spans' duration minus what their children cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import cglint.cli as cli
import cglint.minicpp.lexer as cpp_lexer
import cglint.minicpp.parser as cpp_parser
import cglint.pipeline as pipeline
import cglint.seqdiag as seqdiag
from cglint.rules import RULES_BY_LANGUAGE
from cglint.symtab import Scope

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.covered = []  # per span: ns covered by children and rule calls
        self.stack = []
        self.counts = Counter()
        self.rule_ns = Counter()

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, *args)`` records counters in
        a ``trace.count`` span of its own, so counting is not charged to any
        layer."""

        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if after is not None:
                self._timed("trace.count", after, (result,) + args, kwargs)
            return result

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent])
        self.covered.append(0)
        self.stack.append(index)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            self.stack.pop()
            self.spans[index][1:3] = (start, end)
            if parent >= 0:
                self.covered[parent] += end - start

    def aggregate(self, name, fn):
        """Count calls of ``fn`` and add their time to ``name``."""

        def wrapper(*args):
            start = _now()
            try:
                return fn(*args)
            finally:
                took = _now() - start
                self.counts[name + ".calls"] += 1
                self.rule_ns[name] += took
                if self.stack:
                    self.covered[self.stack[-1]] += took

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args):
            self.counts[name] += 1
            return fn(*args)

        return wrapper

    def self_seconds(self):
        """Self time per span name, in seconds."""
        out = defaultdict(float)
        for (name, start, end, _parent), covered in zip(self.spans, self.covered):
            out[name] += (end - start - covered) / 1e9
        return out

    def root_seconds(self):
        """Total duration of spans without a parent, in seconds."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0) / 1e9

    def dump(self):
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in self.spans
        ]


# --- counters recorded after a boundary call returns ----------------------


def _count(tracer, name, measure):
    def after(result, *_args, **_kwargs):
        tracer.counts[name] += measure(result)

    return after


def _node_count(ast):
    return ast.node_id  # ids run 1..n and the root is created last


def count_symbols(table):
    """(scopes, bindings) of a symbol table's scope tree."""
    scopes = bindings = 0
    stack = [table.global_scope]
    while stack:
        scope = stack.pop()
        scopes += 1
        bindings += len(scope.declarations)
        stack.extend(scope.children)
    return scopes, bindings


def _count_symbols(tracer):
    def after(table, *_args, **_kwargs):
        scopes, bindings = count_symbols(table)
        tracer.counts["symtab.scopes"] += scopes
        tracer.counts["symtab.bindings"] += bindings

    return after


def _count_dispatch(tracer):
    def after(reports, root, registry, configs, *_args, **_kwargs):
        for report in reports:
            tracer.counts["rules.%s.findings" % report.descriptor.id] += len(report.findings)
        if root.ast is None:
            return
        enabled = {c.rule_id for c in configs if c.enabled}
        hit = {}
        visits = hits = 0
        for node in root.ast.walk():
            key = (node.language, node.kind)
            if key not in hit:
                hit[key] = any(r in enabled for r in registry.subscribers(*key))
            visits += 1
            hits += hit[key]
        tracer.counts["core.visits"] += visits
        tracer.counts["core.dispatch_hits"] += hits

    return after


class instrument:
    """Context manager that installs the tracer's wrappers and restores the
    original attributes on exit."""

    def __init__(self, tracer):
        t = tracer
        self.patches = [
            (cli, "collect_inputs", t.span("cli.collect", cli.collect_inputs)),
            (cli, "load_config", t.span("config.load", cli.load_config)),
            (cli, "default_configs", t.span("config.load", cli.default_configs)),
            (cli, "run_pipeline", t.span("pipeline", cli.run_pipeline)),
            (pipeline, "analyze_file", t.span("pipeline.analyze_file", pipeline.analyze_file)),
            (cpp_lexer, "lex", t.span("minicpp.lexer", cpp_lexer.lex, _count(t, "minicpp.lexer.tokens", len))),
            (
                cpp_parser,
                "parse",
                t.span("minicpp.parser", cpp_parser.parse, _count(t, "minicpp.parser.nodes", _node_count)),
            ),
            (
                seqdiag,
                "parse_seq",
                t.span("seqdiag.parse", seqdiag.parse_seq, _count(t, "seqdiag.nodes", _node_count)),
            ),
            (pipeline, "build_symbols", t.span("symtab.build", pipeline.build_symbols, _count_symbols(t))),
            (pipeline, "traverse", t.span("core.traverse", pipeline.traverse, _count_dispatch(t))),
            (Scope, "lookup_local", t.counter("symtab.lookup_local.calls", Scope.lookup_local)),
            (cli, "summarize", t.span("report.summarize", cli.summarize)),
            (cli, "to_xml", t.span("report.xml", cli.to_xml, _count(t, "report.xml.bytes", len))),
            (cli, "render_html", t.span("report.html", cli.render_html)),
        ]
        for rules in RULES_BY_LANGUAGE.values():
            for cls in rules:
                name = "rules.%s" % cls.descriptor.id
                for method in ("visit", "finish"):
                    self.patches.append((cls, method, t.aggregate(name, getattr(cls, method))))
        self.saved = []

    def __enter__(self):
        for owner, attr, wrapper in self.patches:
            self.saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            if original is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)
        self.saved = []
        return False
