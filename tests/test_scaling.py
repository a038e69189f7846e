"""Scaling gate: no stage may grow faster than ~2.3x per doubling of input.

Two units from the benchmark's seeded generator (``bench/gen.py``), at 2 and
8 classes, are lexed, parsed (which builds the symbol table) and traversed
in process, one right after the other; two sequence charts, at 150 and 600
messages, are parsed. A stage's ratio is the median over repeats of the
large unit's CPU time over the small one's: a pair shares the host's speed
of the moment, and the median drops a pair that straddles a change of it
(a minimum per size would keep one fast outlier of the small unit). The
cyclic garbage collector is paused while timing: its passes grow with the
number of live objects, which says nothing of the stages' own algorithms.
One more stage, ``unit_collector_on``, times ``analyze_file`` plus
``traverse`` of the same two units the way a run calls them, with the
collector left on, so that it sees what the collector costs a unit.
Input grows 4x, so a stage may grow at most 2.3 ** 2 times; a quadratic
stage grows about 16x.

A footprint gate weighs what a unit holds rather than how long it takes:
the bytes that ``tracemalloc`` sees held by the root and the reports of
``analyze_file`` plus ``traverse``. The large unit may hold at most
``HELD_PER_BYTE`` bytes per input byte, and what it holds may grow at most
2.3 ** 2 times the small unit's. Each unit is analysed once untraced first,
so that the process's word tables already hold its words and the figure
does not depend on which tests ran before.
"""

import gc
import os
import random
import statistics
import sys
import time
import tracemalloc

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import gen  # noqa: E402

from cglint.cli import build_registry  # noqa: E402
from cglint.core import default_configs, traverse  # noqa: E402
from cglint.minicpp.lexer import lex  # noqa: E402
from cglint.minicpp.parser import parse  # noqa: E402
from cglint.model import AnalysisRoot  # noqa: E402
from cglint.pipeline import analyze_file  # noqa: E402
from cglint.seqdiag import parse_seq  # noqa: E402
from cglint.symtab import SymbolTable  # noqa: E402

SMALL, LARGE = 2, 8  # classes
SMALL_CHART, LARGE_CHART = 150, 600  # messages
BOUND = 2.3 ** 2
REPEATS = 5
HELD_PER_BYTE = 42  # bytes a parsed and walked unit may hold per byte of its text
STAGES = ("lex", "parse", "traverse", "seqdiag_parse", "unit_collector_on")


def unit_text(classes):
    knobs = gen.CppKnobs(classes=classes, methods=6, locals=10, depth=2, collide=0.1, markers=True)
    text, _planted = gen.cpp_unit(random.Random(0), knobs)
    return text


def chart_text(messages):
    text, _planted = gen.chart(random.Random(0), gen.ChartKnobs(objects=6, messages=messages, depth=3), "chart")
    return text


def stage_seconds(text, chart, registry, configs):
    gc.collect()
    t0 = time.process_time()
    tokens = lex(text, "unit.ii")
    t1 = time.process_time()
    table = SymbolTable()
    root = AnalysisRoot(file="unit.ii", content=text, ast=parse(tokens, table=table), symbols=table)
    t2 = time.process_time()
    traverse(root, registry, configs)
    t3 = time.process_time()
    parse_seq(chart, "chart.sd")
    t4 = time.process_time()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3]


def unit_seconds(text, registry, configs):
    """The CPU time of ``analyze_file`` plus ``traverse`` of ``text``."""
    gc.collect()
    t0 = time.process_time()
    traverse(analyze_file("unit.ii", "minicpp", text=text), registry, configs)
    return time.process_time() - t0


@pytest.fixture(scope="module")
def ratios():
    registry = build_registry("minicpp")
    configs = default_configs(registry)
    small = unit_text(SMALL), chart_text(SMALL_CHART)
    large = unit_text(LARGE), chart_text(LARGE_CHART)
    pairs = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            pairs.append(list(zip(stage_seconds(*small, registry, configs), stage_seconds(*large, registry, configs))))
    finally:
        gc.enable()
    for pair in pairs:
        pair.append((unit_seconds(small[0], registry, configs), unit_seconds(large[0], registry, configs)))
    per_stage = zip(*([b / a for a, b in pair] for pair in pairs))
    return {stage: statistics.median(values) for stage, values in zip(STAGES, per_stage)}


def test_input_grows_fourfold():
    assert 3.5 < len(unit_text(LARGE)) / len(unit_text(SMALL)) < 4.5
    assert 3.5 < len(chart_text(LARGE_CHART)) / len(chart_text(SMALL_CHART)) < 4.5


@pytest.mark.parametrize("stage", STAGES)
def test_stage_scales_linearly(ratios, stage):
    assert ratios[stage] <= BOUND, "%s grew %.1fx for 4x the input" % (stage, ratios[stage])


def held_bytes(text, registry, configs):
    """The bytes still allocated, once ``analyze_file`` plus ``traverse`` of
    ``text`` are done, by what the two made, while the root and its reports
    are alive; after a first pass that fills the word tables."""
    traverse(analyze_file("unit.ii", "minicpp", text=text), registry, configs)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        root = analyze_file("unit.ii", "minicpp", text=text)
        reports = traverse(root, registry, configs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert root.ast is not None and reports
    return held


def test_unit_footprint():
    registry = build_registry("minicpp")
    configs = default_configs(registry)
    small, large = unit_text(SMALL), unit_text(LARGE)
    held_small, held_large = held_bytes(small, registry, configs), held_bytes(large, registry, configs)
    per_byte = held_large / len(large)
    assert per_byte <= HELD_PER_BYTE, "a unit holds %.1f bytes per input byte" % per_byte
    assert held_large / held_small <= BOUND, "held bytes grew %.1fx for 4x the input" % (held_large / held_small)
