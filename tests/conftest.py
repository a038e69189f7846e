import gc
import os

import pytest

from cglint.cli import build_registry
from cglint.core import default_configs, traverse
from cglint.pipeline import analyze_file
from cglint.scan import point

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def count_nodes(node):
    """The number of nodes in ``node``'s subtree, ``node`` included."""
    return sum(1 for _ in node.walk())


def find_all(node, kind):
    """The nodes of kind ``kind`` in ``node``'s subtree, in pre-order."""
    return [n for n in node.walk() if n.kind == kind]


def token_tuples(tokens):
    """The ``(kind, text, row, col)`` tuple of each of ``tokens``, in order."""
    lines = tokens.lines
    return [(kind, text, *point(lines, start)) for kind, text, start in zip(tokens.kinds, tokens.texts, tokens.starts)]


def analyze_cpp(source, file="test.cpp"):
    """Parse + symbol-build a C++ snippet; fails the test on parse errors."""
    root = analyze_file(file, "minicpp", text=source)
    assert not root.has_fatal_error(), root.diagnostics
    return root


def analyze_seq(source, file="test.sd"):
    root = analyze_file(file, "seqdiag", text=source)
    assert not root.has_fatal_error(), root.diagnostics
    return root


def run_rules(root, rule_ids, properties=None, language=None):
    """Traverse with exactly ``rule_ids`` enabled; returns all findings."""
    language = language or root.ast.language
    registry = build_registry(language)
    configs = default_configs(registry)
    for config in configs:
        config.enabled = config.rule_id in rule_ids
        if properties and config.rule_id in properties:
            config.properties.update(properties[config.rule_id])
    reports = traverse(root, registry, configs)
    return [f for r in reports for f in r.findings]


def run_rule(rule_id, source, properties=None, seq=False):
    root = analyze_seq(source) if seq else analyze_cpp(source)
    props = {rule_id: properties} if properties else None
    return run_rules(root, {rule_id}, props)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fails a test that leaves the cyclic garbage collector disabled, after
    enabling it again for the tests that follow."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture
def cpp_registry():
    return build_registry("minicpp")


@pytest.fixture
def seq_registry():
    return build_registry("seqdiag")
