import random

import pytest

from conftest import analyze_cpp, count_nodes

from cglint.core import (
    Rule,
    RuleRegistry,
    TraversalStats,
    default_configs,
    traverse,
)
from cglint.config import load_config
from cglint.errors import (
    ConfigSyntaxError,
    DuplicateRuleIdError,
    UnknownPropertyError,
    UnknownRuleIdError,
)
from cglint.model import Criticality, Priority, RuleDescriptor
from cglint.rules import RULES_BY_LANGUAGE


SOURCE = """
namespace app {
class Widget {
public:
  void toggle() {
    int count = 0;
    if (count == 0) { count = 1; }
    while (count < 5) { count = count + 1; }
  }
};
}
"""


def make_rule(rule_id, subscriptions, defaults=()):
    class _R(Rule):
        descriptor = RuleDescriptor(
            id=rule_id,
            title=rule_id,
            description="test rule",
            reference="",
            priority=Priority.SHALL,
            criticality=Criticality.LOW,
            subscriptions=tuple(subscriptions),
            default_properties=tuple(defaults),
        )

        def visit(self, node, ctx):
            ctx.report(node.span, "saw %s" % node.kind)

    return _R


def listening_rule(rule_id, kinds, events):
    """A rule that records each ``visit`` and ``leave`` call as ``(method,
    node id)`` in ``events``."""

    class _L(Rule):
        descriptor = make_rule(rule_id, [("minicpp", kind) for kind in kinds]).descriptor

        def visit(self, node, ctx):
            events.append(("visit", node.node_id))

        def leave(self, node, ctx):
            events.append(("leave", node.node_id))

    return _L


def test_builtin_rule_counts(cpp_registry, seq_registry):
    assert cpp_registry.rule_count() == 18
    assert seq_registry.rule_count() == 2
    assert len(RULES_BY_LANGUAGE["minicpp"]) == 18
    assert len(RULES_BY_LANGUAGE["seqdiag"]) == 2


def test_rule_ids_unique_and_sorted_reports(cpp_registry):
    ids = cpp_registry.rule_ids()
    assert len(ids) == len(set(ids))


def test_duplicate_rule_id_rejected():
    registry = RuleRegistry()
    registry.register(make_rule("Dup", [("minicpp", "IfStmt")]))
    with pytest.raises(DuplicateRuleIdError):
        registry.register(make_rule("Dup", [("minicpp", "WhileStmt")]))


def test_unknown_rule_id(cpp_registry):
    with pytest.raises(UnknownRuleIdError):
        cpp_registry.get("NoSuchChecker")


def test_single_pass_visit_count():
    """The walk visits each node once no matter how many rules run, and a
    rule's ``leave`` calls are not visits."""
    root = analyze_cpp(SOURCE)
    node_count = count_nodes(root.ast)
    kinds = {node.kind for node in root.ast.walk()}

    for rule_count in (0, 1, 5, 18):
        for leaving in (False, True):
            registry = RuleRegistry()
            for i in range(rule_count):
                registry.register(make_rule("R%d" % i, [("minicpp", "IfStmt")]))
            if leaving:
                registry.register(listening_rule("Leaving", kinds, []))
            stats = TraversalStats()
            traverse(root, registry, default_configs(registry), stats=stats)
            assert stats.visits == node_count


def post_order(node):
    for child in node.children:
        yield from post_order(child)
    yield node


def test_leave_follows_each_subtree():
    """``leave`` is called once per subscribed node, in post-order, each
    call after every visit in the node's subtree."""
    root = analyze_cpp(SOURCE)
    kinds = ["ClassDef", "FunctionDef", "CompoundStmt", "IfStmt", "WhileStmt", "VarDecl", "AssignExpr"]
    events = []
    registry = RuleRegistry()
    registry.register(listening_rule("Leaving", kinds, events))
    traverse(root, registry, default_configs(registry))

    subscribed = [node for node in post_order(root.ast) if node.kind in kinds]
    assert [nid for method, nid in events if method == "leave"] == [node.node_id for node in subscribed]
    for node in subscribed:
        left = events.index(("leave", node.node_id))
        inside = {sub.node_id for sub in node.walk()}
        assert all(i < left for i, (method, nid) in enumerate(events) if method == "visit" and nid in inside)


def test_a_dropped_rule_gets_no_pending_leave():
    """A rule whose ``visit`` raises inside a subscribed node is not left
    from that node, and keeps no findings; another rule is unaffected."""
    root = analyze_cpp(SOURCE)
    events = []

    class Raising(listening_rule("Raising", ["FunctionDef", "IfStmt"], events)):
        def visit(self, node, ctx):
            super().visit(node, ctx)
            ctx.report(node.span, "saw %s" % node.kind)
            if node.kind == "IfStmt":
                raise RuntimeError("boom")

    registry = RuleRegistry()
    registry.register(Raising)
    registry.register(make_rule("Other", [("minicpp", "WhileStmt")]))
    reports = traverse(root, registry, default_configs(registry))
    assert [method for method, _nid in events] == ["visit", "visit"]
    assert [(r.descriptor.id, len(r.findings)) for r in reports] == [("Other", 1), ("Raising", 0)]
    (diagnostic,) = root.diagnostics
    assert diagnostic.message.startswith("internal error in rule Raising: RuntimeError: boom")


def test_dispatch_only_to_subscribers():
    root = analyze_cpp(SOURCE)
    registry = RuleRegistry()
    registry.register(make_rule("IfOnly", [("minicpp", "IfStmt")]))
    registry.register(make_rule("LoopOnly", [("minicpp", "WhileStmt"), ("minicpp", "ForStmt")]))
    reports = traverse(root, registry, default_configs(registry))
    by_id = {r.descriptor.id: r for r in reports}
    assert [f.message for f in by_id["IfOnly"].findings] == ["saw IfStmt"]
    assert [f.message for f in by_id["LoopOnly"].findings] == ["saw WhileStmt"]


def test_disabled_rule_produces_no_report():
    root = analyze_cpp(SOURCE)
    registry = RuleRegistry()
    registry.register(make_rule("A", [("minicpp", "IfStmt")]))
    registry.register(make_rule("B", [("minicpp", "IfStmt")]))
    configs = default_configs(registry)
    configs[1].enabled = False
    reports = traverse(root, registry, configs)
    assert [r.descriptor.id for r in reports] == ["A"]


def test_composition_is_union():
    """Running rules together yields the union of their solo findings."""
    root = analyze_cpp(SOURCE)
    all_ids = ["R%d" % i for i in range(6)]
    kinds = ["IfStmt", "WhileStmt", "ClassDef", "VarDecl", "FunctionDef", "CompoundStmt"]

    def run(subset):
        registry = RuleRegistry()
        for rid, kind in zip(all_ids, kinds):
            registry.register(make_rule(rid, [("minicpp", kind)]))
        configs = default_configs(registry)
        for config in configs:
            config.enabled = config.rule_id in subset
        reports = traverse(root, registry, configs)
        return {(r.descriptor.id, f.span, f.message) for r in reports for f in r.findings}

    rng = random.Random(7)
    for _ in range(10):
        subset = set(rng.sample(all_ids, rng.randint(0, len(all_ids))))
        combined = run(subset)
        solo_union = set()
        for rid in subset:
            solo_union |= run({rid})
        assert combined == solo_union


def test_finish_called_once_per_unit():
    calls = []

    class Whole(Rule):
        descriptor = make_rule("Whole", [("minicpp", "VarDecl")]).descriptor

        def visit(self, node, ctx):
            pass

        def finish(self, ctx):
            calls.append(ctx.rule_id)

    registry = RuleRegistry()
    registry.register(Whole)
    traverse(analyze_cpp(SOURCE), registry, default_configs(registry))
    assert calls == ["Whole"]


def test_priority_override_applied():
    root = analyze_cpp(SOURCE)
    registry = RuleRegistry()
    registry.register(make_rule("A", [("minicpp", "IfStmt")]))
    configs = default_configs(registry)
    configs[0].priority_override = Priority.WILL
    reports = traverse(root, registry, configs)
    assert reports[0].descriptor.priority is Priority.WILL
    # The registered class descriptor is untouched.
    assert registry.get("A").descriptor.priority is Priority.SHALL


def test_effective_properties_merge_defaults():
    root = analyze_cpp(SOURCE)
    registry = RuleRegistry()
    registry.register(make_rule("A", [("minicpp", "IfStmt")], defaults=[("x", "1", "int"), ("y", "2", "str")]))
    configs = default_configs(registry)
    configs[0].properties["y"] = "9"
    reports = traverse(root, registry, configs)
    assert reports[0].effective_properties == {"x": "1", "y": "9"}


def test_property_values_are_typed():
    desc = make_rule(
        "A",
        [],
        defaults=[
            ("n", "1", "int"), ("b", "true", "bool"), ("r", "a.*", "regex"), ("s", "x", "str"), ("l", "x", "list"),
        ],
    ).descriptor
    assert desc.property_value("n", "12") == 12
    assert desc.property_value("b", "FALSE") is False
    assert desc.property_value("r", "a.*").fullmatch("abc")
    assert desc.property_value("s", " x ") == " x "
    assert desc.property_value("l", " sz, p_ ,,lp ,") == ["sz", "p_", "lp"]
    assert desc.property_value("l", " , ") == []
    for name, text in [
        ("n", "abc"), ("n", "1_0"), ("n", "\u0663"), ("n", "+2"), ("n", "-1"), ("b", "yes"), ("b", "1"), ("r", "(["),
    ]:
        with pytest.raises(ValueError):
            desc.property_value(name, text)


def test_every_default_property_converts():
    for rules in RULES_BY_LANGUAGE.values():
        for cls in rules:
            for name, text in cls.descriptor.defaults().items():
                cls.descriptor.property_value(name, text)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_unknown_property_rejected(enabled):
    root = analyze_cpp(SOURCE)
    registry = RuleRegistry()
    registry.register(make_rule("A", [("minicpp", "IfStmt")]))
    configs = default_configs(registry)
    configs[0].enabled = enabled
    configs[0].properties["bogus"] = "1"
    with pytest.raises(UnknownPropertyError):
        traverse(root, registry, configs)


def test_disabled_config_value_is_checked():
    root = analyze_cpp(SOURCE)
    registry = RuleRegistry()
    registry.register(make_rule("A", [("minicpp", "IfStmt")], defaults=[("n", "1", "int")]))
    configs = default_configs(registry)
    configs[0].enabled = False
    configs[0].properties["n"] = "x"
    with pytest.raises(ValueError, match="expected int, found 'x'"):
        traverse(root, registry, configs)


def test_undeclared_property_value_raises():
    desc = make_rule("A", [], defaults=[("n", "1", "int")]).descriptor
    with pytest.raises(UnknownPropertyError, match="rule A has no property 'm'"):
        desc.property_value("m", "1")


class TestLoadConfig:
    def test_round_trip_values(self, cpp_registry):
        text = """
        # tighten the line budget
        [rule FunctionChecker]
        maxLines = 60

        [rule InterfaceChecker]
        enabled = false
        priority = WILL
        """
        configs = {c.rule_id: c for c in load_config(text, cpp_registry)}
        assert len(configs) == 18
        assert configs["FunctionChecker"].properties == {"maxLines": "60"}
        assert configs["FunctionChecker"].enabled
        assert not configs["InterfaceChecker"].enabled
        assert configs["InterfaceChecker"].priority_override is Priority.WILL
        assert configs["MemoryChecker"].properties == {}

    def test_empty_text_keeps_defaults(self, cpp_registry):
        configs = load_config("", cpp_registry)
        assert len(configs) == 18
        assert all(c.enabled for c in configs)

    def test_unknown_rule(self, cpp_registry):
        with pytest.raises(UnknownRuleIdError):
            load_config("[rule Phantom]\nenabled = true\n", cpp_registry)

    def test_unknown_property(self, cpp_registry):
        with pytest.raises(UnknownPropertyError):
            load_config("[rule MemoryChecker]\nwibble = 1\n", cpp_registry)

    def test_bad_section(self, cpp_registry):
        with pytest.raises(ConfigSyntaxError) as exc:
            load_config("[section MemoryChecker]\n", cpp_registry)
        assert exc.value.line == 1

    def test_entry_outside_section(self, cpp_registry):
        with pytest.raises(ConfigSyntaxError) as exc:
            load_config("enabled = true\n", cpp_registry)
        assert exc.value.line == 1

    def test_bad_boolean(self, cpp_registry):
        with pytest.raises(ConfigSyntaxError):
            load_config("[rule MemoryChecker]\nenabled = maybe\n", cpp_registry)

    def test_bad_priority(self, cpp_registry):
        with pytest.raises(ConfigSyntaxError):
            load_config("[rule MemoryChecker]\npriority = URGENT\n", cpp_registry)
