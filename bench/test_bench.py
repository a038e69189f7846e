"""Seconds-long self-check of the benchmark at tiny corpus sizes.

    python3 -m pytest bench -q

It runs every workload traced and untraced, and checks the oracle, the
output shape against ``BENCHMARK.json`` and the refusal to run without the
sources.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args, script=os.path.join(BENCH, "run.py"), cwd=ROOT):
    return subprocess.run(
        [sys.executable, script] + list(args),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generator_is_seeded(name):
    first = run.build_corpus(name, 7, 0.05)
    assert first == run.build_corpus(name, 7, 0.05)
    assert first[0] != run.build_corpus(name, 8, 0.05)[0]


@pytest.mark.parametrize("seed", range(5))
def test_oracle_matches_cglint_on_small_inputs(seed, tmp_path):
    from cglint.cli import main

    rng = random.Random(seed)
    text, planted = gen.cpp_unit(rng, gen.CppKnobs(classes=2, methods=2, collide=0.3))
    chart, chart_planted = gen.chart(rng, gen.ChartKnobs(messages=30), "c")
    for lang, name, source, expected in (
        ("minicpp", "u.ii", text, planted),
        ("seqdiag", "c.sd", chart, chart_planted),
    ):
        (tmp_path / name).write_text(source)
        xml = tmp_path / (name + ".xml")
        main(["--lang", lang, str(tmp_path / name), "--xml-out", str(xml)])
        assert run.oracle_errors(xml.read_bytes(), expected) == []


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--scale", "0.04")
    result = _result(proc)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and value["value"] >= 0
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_spec_names_are_valid():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(
        "--workload", "cpp_unit", "--seed", "1", "--seconds", "1", "--trace", "0",
        script=str(tmp_path / "bench" / "run.py"),
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
