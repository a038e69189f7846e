"""Loader for the rule configuration file format.

The format is deliberately small::

    # comment
    [rule InterfaceChecker]
    enabled = true
    priority = SHALL
    CloseAPI = false

Rules absent from the file stay enabled with their default properties.
Unknown sections, rule ids, and property keys are hard errors, and so is a
property value its declared type (int, bool, regex, str or list) rejects or
that holds a character XML 1.0 cannot carry. The file itself is read with
``pipeline.read_text``, as a source file is.
"""

from __future__ import annotations

from .core import default_configs
from .errors import ConfigSyntaxError, UnknownPropertyError, UnknownRuleIdError
from .model import Priority, parse_bool
from .report import NOT_XML_CHAR


def load_config(text, registry):
    """Parse configuration ``text`` into one RuleConfig per registered rule."""
    configs = {config.rule_id: config for config in default_configs(registry)}
    current = None  # RuleConfig of the open [rule ...] section
    descriptor = None  # its rule's descriptor

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigSyntaxError(lineno, "unterminated section header")
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] != "rule":
                raise ConfigSyntaxError(
                    lineno, "expected section of the form [rule <Id>]"
                )
            rule_id = parts[1]
            if rule_id not in configs:
                raise UnknownRuleIdError(rule_id)
            current = configs[rule_id]
            descriptor = registry.get(rule_id).descriptor
            continue
        if "=" not in line:
            raise ConfigSyntaxError(lineno, "expected 'key = value'")
        if current is None:
            raise ConfigSyntaxError(lineno, "entry outside of a [rule ...] section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "enabled":
            try:
                current.enabled = parse_bool(value)
            except ValueError:
                raise ConfigSyntaxError(lineno, "enabled must be true or false") from None
        elif key == "priority":
            try:
                current.priority_override = Priority[value]
            except KeyError:
                raise ConfigSyntaxError(
                    lineno, "priority must be SHOULD, SHALL or WILL"
                ) from None
        elif key in descriptor.defaults():
            bad = NOT_XML_CHAR.search(value)
            if bad:
                reason = "%s: character %r cannot be written to XML" % (key, bad.group())
                raise ConfigSyntaxError(lineno, reason)
            try:
                descriptor.property_value(key, value)
            except ValueError as exc:
                raise ConfigSyntaxError(lineno, "%s: %s" % (key, exc)) from None
            current.properties[key] = value
        else:
            raise UnknownPropertyError(
                "rule %s has no property %r" % (current.rule_id, key)
            )
    return list(configs.values())
