"""Seeded corpus generators with an independent oracle.

Each generator takes a ``random.Random`` and size knobs and returns the
source text plus the number of defects it planted, per rule. The counts
come from the generator's own bookkeeping, never from cglint, so a run can
be checked against them. The same seed always gives the same text.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter, defaultdict
from dataclasses import dataclass

# Text that identifies each planted defect among a rule's XML messages.
ORACLE_MESSAGES = {
    "IdentifierChecker": "is named similar to",
    "MemoryChecker": "is allocated with new but never freed",
    "SwitchChecker": "Switch statement has no default clause",
    "TriggerChecker": "lacks the <<trigger>> stereotype",
    "NoCallToTestDriverChecker": "calls the test driver",
}

_STEMS = ("count", "total", "offset", "width", "index", "limit", "ratio", "value")
_HUNGARIAN = ("szLabel", "p_item", "dwFlags")


@dataclass(frozen=True)
class CppKnobs:
    classes: int = 4
    methods: int = 4  # per class
    locals: int = 4  # top-level declarations per method body
    depth: int = 2  # nesting of blocks inside a method body
    collide: float = 0.1  # share of locals named like an existing variable
    markers: bool = True  # emit ``# <line> "<file>"`` preprocessor markers


@dataclass(frozen=True)
class ChartKnobs:
    objects: int = 6
    messages: int = 60
    depth: int = 3  # interaction-block nesting


class _CppUnit:
    """Writes one translation unit while tracking its scopes and variables."""

    def __init__(self, rng, knobs, tag):
        self.rng = rng
        self.k = knobs
        self.tag = tag
        self.out = []
        self.serial = 0
        self.scope_serial = 0
        self.path = (0,)  # scope ids from the global scope inward
        self.visible = [[]]  # variable names per open scope
        self.declared = []  # (name, scope path) of every variable
        self.names = set()
        self.planted = Counter()

    # --- bookkeeping --------------------------------------------------

    def fresh(self, stem):
        self.serial += 1
        name = "%s%d" % (stem, self.serial)
        self.names.add(name)
        return name

    def push(self):
        self.scope_serial += 1
        self.path += (self.scope_serial,)
        self.visible.append([])

    def pop(self):
        self.path = self.path[:-1]
        self.visible.pop()

    def variable(self, stem):
        """Declare a variable; a share of them collide once normalised."""
        name = None
        if self.declared and self.rng.random() < self.k.collide:
            # half collide with a visible name (a finding), half with any name
            visible = [n for scope in self.visible for n in scope]
            if visible and self.rng.random() < 0.5:
                base = self.rng.choice(visible)
            else:
                base = self.rng.choice(self.declared)[0]
            name = self._variant(base)
        if name is None:
            name = self.fresh(stem)
        self.declared.append((name, self.path))
        self.visible[-1].append(name)
        return name

    def _variant(self, base):
        """A new name equal to ``base`` once lower-cased with ``_`` removed."""
        for _ in range(8):
            at = self.rng.randrange(1, len(base))
            if self.rng.random() < 0.5:
                candidate = base[:at] + "_" + base[at:]
            else:
                candidate = base[:at] + base[at].swapcase() + base[at + 1 :]
            if candidate not in self.names:
                self.names.add(candidate)
                return candidate
        return None

    def any_visible(self):
        names = [n for scope in self.visible for n in scope]
        return self.rng.choice(names) if names else "0"

    def line(self, indent, text):
        self.out.append("    " * indent + text)

    def marker(self, name):
        if self.k.markers:
            self.out.append('# %d "%s"' % (len(self.out) + 1, name))

    # --- oracle -------------------------------------------------------

    def identifier_pairs(self):
        """Unordered pairs of variables whose names are equal once lower-cased
        with ``_`` removed and whose scopes nest."""
        groups = defaultdict(list)
        for name, path in self.declared:
            groups[name.lower().replace("_", "")].append(path)
        pairs = 0
        for paths in groups.values():
            for i, a in enumerate(paths):
                for b in paths[i + 1 :]:
                    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
                    if long_[: len(short)] == short:
                        pairs += 1
        return pairs

    # --- text ---------------------------------------------------------

    def unit(self):
        k = self.k
        self.marker("%s.cpp" % self.tag)
        self.line(0, "typedef int count_t;")
        self.line(0, "typedef unsigned long Size%s;" % self.tag)
        glob = self.variable("shared")
        self.line(0, "int %s = 0;" % glob)
        self.line(0, "namespace ns%s {" % self.tag)
        self.push()
        for c in range(k.classes):
            self.marker("%s_%d.h" % (self.tag, c))
            self.klass(c)
        self.pop()
        self.line(0, "}")
        self.function(0, "helper%s" % self.tag)
        self.planted["IdentifierChecker"] = self.identifier_pairs()
        return "\n".join(self.out) + "\n"

    def klass(self, c):
        name = "Widget%s%d" % (self.tag, c)
        base = " : public Widget%s%d" % (self.tag, c - 1) if c and c % 2 else ""
        self.line(1, "class %s%s {" % (name, base))
        self.push()
        self.line(1, "private:")
        members = [self.variable("member") for _ in range(2)]
        for m in members:
            self.line(2, "int %s;" % m)
        self.line(1, "public:")
        self.line(2, "%s() : %s(0) { }" % (name, members[0]))
        self.line(2, "virtual ~%s() { }" % name)
        for _ in range(self.k.methods):
            self.serial += 1
            self.function(2, "compute%d" % self.serial)
        self.pop()
        self.line(1, "};")

    def function(self, indent, name):
        self.push()  # function scope holds the parameters
        params = [self.variable("arg") for _ in range(2)]
        sig = ", ".join("int %s" % p for p in params)
        self.line(indent, "int %s(%s) {" % (name, sig))
        self.block_body(indent + 1, self.k.depth, self.k.locals)
        self.line(indent + 1, "return %s;" % self.any_visible())
        self.line(indent, "}")
        self.pop()

    def block(self, indent, depth, head, tail="}"):
        self.line(indent, (head + " {").lstrip())
        self.block_body(indent + 1, depth, 1)
        self.line(indent, tail)

    def block_body(self, indent, depth, n_locals):
        """Declarations, one nested construct while depth lasts, then one
        allocation and one flat statement. The shape is fixed so that corpus
        size barely varies with the seed; the seed picks names and kinds."""
        self.push()
        rng = self.rng
        for _ in range(n_locals):
            roll = rng.random()
            if roll < 0.1:
                name = self.variable(rng.choice(_HUNGARIAN))
                self.line(indent, "int %s = %d;" % (name, rng.randint(0, 9)))
            elif roll < 0.25:
                name = self.variable(rng.choice(_STEMS))
                self.line(indent, "int %s;" % name)
            else:
                init = self.any_visible()
                name = self.variable(rng.choice(_STEMS))
                self.line(indent, "int %s = %s + %d;" % (name, init, rng.randint(1, 9)))
        if depth > 0:
            self.nested(indent, depth - 1)
        self.memory(indent)
        a, b = self.any_visible(), self.any_visible()
        if rng.random() < 0.5:
            self.line(indent, "%s = %s * 2 + %s;" % (a, b, a))
        else:
            self.line(indent, "if (%s > %s && %s < 9 || %s == 3) %s = 1;" % (a, b, a, b, a))
        self.pop()

    def nested(self, indent, depth):
        """One construct holding exactly one nested block."""
        rng = self.rng
        a, b = self.any_visible(), self.any_visible()
        roll = rng.randrange(6)
        if roll == 0:
            self.block(indent, depth, "if (%s > %d)" % (a, rng.randint(0, 9)))
        elif roll == 1:
            self.block(indent, depth, "while (%s < %d)" % (a, rng.randint(10, 99)))
        elif roll == 2:
            self.push()  # the loop header scopes its index
            i = self.variable("idx")
            self.block(indent, depth, "for (int %s = 0; %s < %s; %s++)" % (i, i, a, i))
            self.pop()
        elif roll == 3:
            self.line(indent, "switch (%s) {" % a)
            self.block(indent + 1, depth, "case %d:" % rng.randint(0, 9), "    break; }")
            if rng.random() < 0.3:
                self.planted["SwitchChecker"] += 1
            else:
                self.line(indent + 1, "default: { break; }")
            self.line(indent, "}")
        elif roll == 4:
            self.block(indent, depth, "do", "} while (%s != %s);" % (a, b))
        else:
            self.block(indent, depth, "")

    def memory(self, indent):
        buf = self.variable("buffer")
        self.line(indent, "int* %s = new int[%d];" % (buf, self.rng.randint(2, 64)))
        if self.rng.random() < 0.4:
            self.planted["MemoryChecker"] += 1
        else:
            self.line(indent, "delete[] %s;" % buf)


def cpp_unit(rng, knobs, tag="0"):
    """One C++ translation unit and its planted defect counts."""
    writer = _CppUnit(rng, knobs, tag)
    text = writer.unit()
    return text, writer.planted


def chart(rng, knobs, name):
    """One sequence chart and its planted defect counts. The test driver is the
    first declared object."""
    planted = Counter()
    objects = ["driver"] + ["obj%d" % i for i in range(1, knobs.objects)]
    out = ["sequencediagram %s {" % name]
    for obj in objects:
        out.append("  object %s:%s;" % (obj, obj.capitalize() + "Type"))
    out.append("  {")
    depth = 1
    for m in range(knobs.messages):
        if depth < knobs.depth and rng.random() < 0.15:
            out.append("  " * (depth + 1) + "{")
            depth += 1
        elif depth > 1 and rng.random() < 0.15:
            depth -= 1
            out.append("  " * (depth + 1) + "}")
        source, target = rng.sample(objects, 2)
        pad = "  " * (depth + 1)
        if rng.random() < 0.3:
            out.append("%s%s <- %s : return v%d;" % (pad, source, target, m))
            continue
        stereotype = ""
        if source == "driver":
            if rng.random() < 0.3:
                planted["TriggerChecker"] += 1
            else:
                stereotype = "<<trigger>> "
        if target == "driver":
            planted["NoCallToTestDriverChecker"] += 1
        args = ", ".join("a%d" % i for i in range(rng.randint(0, 3)))
        comment = "  // step %d" % m if rng.random() < 0.2 else ""
        out.append(
            "%s%s -> %s : %scall%d(%s);%s" % (pad, source, target, stereotype, m, args, comment)
        )
    while depth > 0:
        out.append("  " * depth + "}")
        depth -= 1
    out.append("}")
    return "\n".join(out) + "\n", planted


def write_files(dest, files):
    """Write {relative path: text}; return the corpus manifest."""
    digest = hashlib.sha256()
    size = 0
    for rel in sorted(files):
        data = files[rel].encode("utf-8")
        path = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)
        digest.update(rel.encode("utf-8") + b"\0" + data + b"\0")
        size += len(data)
    return {"files": len(files), "bytes": size, "sha256": digest.hexdigest()}
