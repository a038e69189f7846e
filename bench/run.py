"""Seeded end-to-end benchmark of the cglint CLI.

    python3 bench/run.py --workload cpp_tree --seed 1 --seconds 30 --trace 0

The run generates its corpus from ``--seed`` under ``bench/out/``, then
measures for ``--seconds`` seconds. Every output is checked against the
oracle the generator computed and against the workload's first run.

``--trace 0`` runs the CLI as a CI job would, one child process at a time,
and reports the end-to-end metrics. ``--trace 1`` calls ``cli.main`` in
process with the wrappers of ``tracing.py`` installed and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A record with the inputs,
the samples, the spans of the last traced run and the reasons for the
workload goes to ``bench/out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
TIMESTAMP = "2014-09-08T00:00:00Z"
CHILD_TIMEOUT_S = 150

sys.path.insert(0, BENCH)
import gen  # noqa: E402

TREE_CONFIG = """\
# Overrides properties that default runs never touch.
[rule FunctionChecker]
maxLines = 12
maxParams = 2

[rule NamingConventionChecker]
hungarianPrefixes = sz,dw,p_

[rule TypeDefChecker]
pattern = [A-Z][A-Za-z0-9]*|.*_t

[rule SymbolOrderChecker]
enabled = false
"""


@dataclass(frozen=True)
class Workload:
    lang: str
    why: str
    predicts: str
    config: str | None = None


WORKLOADS = {
    "cpp_tree": Workload(
        lang="minicpp",
        why="200 small .cpp files in a tree with a property-overriding config: "
        "the per-file front end, per-file overhead and report output dominate.",
        predicts="lexer and parser changes move wall_s and file_p50_ms here; "
        "IdentifierChecker changes barely do (few variables per file).",
        config=TREE_CONFIG,
    ),
    "cpp_unit": Workload(
        lang="minicpp",
        why="one preprocessed unit with line markers, many classes x methods x "
        "locals and normalised-name collisions: IdentifierChecker's pair loop "
        "and one large scope tree dominate.",
        predicts="IdentifierChecker and scope-tree changes move wall_s and "
        "peak_rss_mb here; report and per-file costs are near zero.",
    ),
    "seq_charts": Workload(
        lang="seqdiag",
        why="200 sequence charts with nested interaction blocks: the only "
        "workload for seqdiag and the seq rules, and it bypasses minicpp.",
        predicts="any minicpp change predicts no change here; seqdiag.parse "
        "changes move wall_s.",
    ),
}

# Planted defects of these rules break the build, so the CLI must exit 1.
SHALL_ORACLE = ("MemoryChecker", "SwitchChecker", "TriggerChecker", "NoCallToTestDriverChecker")
CPP_UNIT = gen.CppKnobs(classes=12, methods=6, locals=10, depth=2, collide=0.1, markers=True)


def build_corpus(name, seed, scale=1.0):
    """Return ({relative path: text}, planted Counter, CLI inputs)."""
    rng = random.Random("%s:%d" % (name, seed))
    planted = Counter()
    files = {}
    if name == "cpp_tree":
        knobs = gen.CppKnobs(classes=1, methods=1, locals=3, depth=2, collide=0.1, markers=False)
        for i in range(max(2, round(200 * scale))):
            text, found = gen.cpp_unit(rng, knobs, tag=str(i))
            files["tree/mod%02d/file%03d.cpp" % (i % 10, i)] = text
            planted += found
        inputs = ["tree"]
    elif name == "cpp_unit":
        knobs = gen.CppKnobs(**{**CPP_UNIT.__dict__, "classes": max(1, round(CPP_UNIT.classes * scale))})
        text, planted = gen.cpp_unit(rng, knobs)
        files["unit.ii"] = text
        inputs = ["unit.ii"]
    elif name == "seq_charts":
        knobs = gen.ChartKnobs(objects=8, messages=40, depth=4)
        for i in range(max(2, round(200 * scale))):
            text, found = gen.chart(rng, knobs, "chart%d" % i)
            files["charts/chart%03d.sd" % i] = text
            planted += found
        inputs = ["charts"]
    else:
        raise KeyError(name)
    if not any(planted[r] for r in SHALL_ORACLE):
        raise RuntimeError("generator planted no build-breaking defect")
    return files, planted, inputs


class Corpus:
    """A generated corpus on disk plus everything needed to check a run."""

    def __init__(self, name, seed, scale, dest):
        self.name = name
        self.workload = WORKLOADS[name]
        files, self.planted, self.inputs = build_corpus(name, seed, scale)
        self.dir = dest
        self.manifest = gen.write_files(dest, files)
        self.argv = ["--lang", self.workload.lang]
        if self.workload.config is not None:
            config = os.path.join(dest, "rules.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(self.workload.config)
            self.argv += ["--config", "rules.cfg"]
        self.argv += ["--timestamp", TIMESTAMP]

    def cli_argv(self, with_inputs=True, tag="run"):
        argv = list(self.argv)
        if with_inputs:
            argv += self.inputs + ["--html-out", "%s.html" % tag]
        return argv + ["--xml-out", "%s.xml" % tag]


def oracle_errors(xml_bytes, planted):
    """Compare planted defect counts with the XML; return mismatches."""
    errors = []
    for rule in ET.fromstring(xml_bytes).findall("rule"):
        fragment = gen.ORACLE_MESSAGES.get(rule.get("id"))
        if fragment is None:
            continue
        got = sum(fragment in m.get("text") for m in rule.findall("message"))
        if got != planted[rule.get("id")]:
            errors.append("%s: %d planted, %d reported" % (rule.get("id"), planted[rule.get("id")], got))
    return errors


def rule_counts(xml_bytes):
    return {r.get("id"): int(r.get("findings")) for r in ET.fromstring(xml_bytes).findall("rule")}


def sha(data):
    return hashlib.sha256(data).hexdigest()


def pct(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- untraced: CLI child processes -------------------------------------------


def run_child(corpus, argv):
    """Run one CLI process; return (wall s, exit code, peak RSS MB, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    err_path = os.path.join(corpus.dir, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "cglint.cli"] + argv,
            cwd=corpus.dir,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr


class Checker:
    """Counts attempted and failed runs. The first run that writes a named
    output fixes the digest every later run must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.errors = []

    def check(self, problems, **outputs):
        self.attempted += 1
        problems = list(problems)
        for name, data in outputs.items():
            if data is None:
                problems.append("%s: not written" % name)
            elif self.digests.setdefault(name, sha(data)) != sha(data):
                problems.append("%s: sha256 differs from the first run" % name)
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        return not problems


def read(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def full_cli_run(corpus, checker):
    wall, code, rss, stderr = run_child(corpus, corpus.cli_argv(tag="run"))
    xml = read(os.path.join(corpus.dir, "run.xml"))
    problems = []
    if code != 1:
        problems.append("exit code %d, expected 1" % code)
    if stderr:
        problems.append("stderr: %s" % stderr.strip().splitlines()[-1])
    if xml is not None:
        problems += oracle_errors(xml, corpus.planted)
    html = read(os.path.join(corpus.dir, "run.html"))
    return checker.check(problems, xml=xml, html=html), wall, rss, xml


def setup_cli_run(corpus, checker):
    wall, code, _rss, stderr = run_child(corpus, corpus.cli_argv(with_inputs=False, tag="empty"))
    xml = read(os.path.join(corpus.dir, "empty.xml"))
    problems = [] if code == 0 and not stderr else ["setup: exit code %d" % code]
    return checker.check(problems, setup_xml=xml), wall


def in_process_pass(corpus, expected_counts, checker, per_file, inventory):
    """Time pipeline.analyze_file + core.traverse per file, in process."""
    from cglint.cli import build_registry, collect_inputs
    from cglint.config import load_config
    from cglint.core import default_configs, traverse
    from cglint.pipeline import analyze_file, get_frontend

    lang = corpus.workload.lang
    registry = build_registry(lang)
    if corpus.workload.config is not None:
        configs = load_config(corpus.workload.config, registry)
    else:
        configs = default_configs(registry)
    counts = Counter()
    fatal = []
    with inside(corpus.dir):
        for path in collect_inputs(corpus.inputs, get_frontend(lang)["extensions"]):
            start = time.perf_counter()
            root = analyze_file(path, lang)
            reports = traverse(root, registry, configs)
            per_file[path].append(time.perf_counter() - start)
            for report in reports:
                counts[report.descriptor.id] += len(report.findings)
            fatal += [d.message for d in root.diagnostics if d.fatal]
            if inventory is not None and root.ast is not None:
                take_inventory(inventory, root, lang)
    problems = ["fatal: %s" % m for m in fatal[:3]]
    if dict(counts) != expected_counts:
        problems.append("in-process findings differ from the CLI XML")
    checker.check(problems)


def take_inventory(inventory, root, lang):
    import tracing
    from cglint import seqdiag
    from cglint.minicpp import lexer

    if lang == "minicpp":
        inventory["tokens"] += len(lexer.lex(root.content, file=root.file))
    else:
        inventory["tokens"] += len(seqdiag._tokenize(root.content, root.file))
    inventory["nodes"] += root.ast.node_id
    scopes, bindings = tracing.count_symbols(root.symbols)
    inventory["scopes"] += scopes
    inventory["bindings"] += bindings


def measure_untraced(corpus, seconds):
    checker = Checker()
    ok, _wall, _rss, xml = full_cli_run(corpus, checker)  # warm-up; fixes the digest
    setup_cli_run(corpus, checker)
    expected_counts = rule_counts(xml) if ok else {}
    walls, rss, setups = [], [], []
    per_file = defaultdict(list)
    inventory = Counter()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # failed runs keep their samples; they also count in ``failed``
        _ok, wall, peak, _xml = full_cli_run(corpus, checker)
        walls.append(wall)
        rss.append(peak)
        setups.append(setup_cli_run(corpus, checker)[1])
        in_process_pass(corpus, expected_counts, checker, per_file, None if per_file else inventory)
        now = time.perf_counter()
        if now + (now - began) - start > seconds:  # the next round would overrun
            break
    # On a shared machine the CPU speed can switch between a fast and a slow
    # mode for seconds at a time. The median of a run's few samples then jumps
    # between the modes from one run to the next, while their mean moves
    # smoothly, so wall times are averaged. Setup time and memory keep the
    # median (the record keeps every sample and the wall median too).
    file_ms = [statistics.fmean(v) * 1e3 for v in per_file.values()]
    kb = corpus.manifest["bytes"] / 1024.0
    wall = statistics.fmean(walls)
    metrics = {
        "wall_s": (wall, "s", len(walls)),
        "kb_per_s": (kb / wall, "KB/s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        "file_p50_ms": (pct(file_ms, 50), "ms", len(file_ms)),
        "file_p95_ms": (pct(file_ms, 95), "ms", len(file_ms)),
    }
    extra = {
        "wall_s_median": statistics.median(walls),
        "passes": len(next(iter(per_file.values()), [])),
        "inventory": dict(inventory),
        "findings_per_rule": expected_counts,
        "samples": {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss},
    }
    return checker, metrics, extra


# --- traced: cli.main in process ---------------------------------------------

SCALE_REPEATS = 3
SCALE_LAYERS = {
    "minicpp.lexer": "minicpp.lexer.s",
    "minicpp.parser": "minicpp.parser.s",
    "symtab.build": "symtab.build.s",
    "core.traverse.self_s": "core.traverse.self_s",
    "rules.IdentifierChecker": "rules.IdentifierChecker.s",
}


@contextlib.contextmanager
def inside(directory):
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


def call_main(corpus, checker, tracer=None):
    """Run and check cli.main in the corpus directory; return its wall time."""
    import cglint.cli as cli
    import tracing

    out, err = io.StringIO(), io.StringIO()
    guard = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
    with inside(corpus.dir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with guard:
            start = time.perf_counter()
            code = cli.main(corpus.cli_argv(tag="inproc"))
            wall = time.perf_counter() - start
    xml = read(os.path.join(corpus.dir, "inproc.xml"))
    problems = [] if code == 1 else ["exit code %d, expected 1" % code]
    if err.getvalue():
        problems.append("stderr: %s" % err.getvalue().strip().splitlines()[-1])
    if xml is not None:
        problems += oracle_errors(xml, corpus.planted)
    checker.check(problems, **{corpus.dir: xml})
    return wall


def layer_metrics(tracer, wall):
    """Per-layer values of one traced run, without the untraced baseline."""
    from cglint.rules import RULES_BY_LANGUAGE

    self_s = tracer.self_seconds()
    c = tracer.counts
    m = {
        "cli.collect.s": self_s["cli.collect"],
        "config.load.s": self_s["config.load"],
        "pipeline.self_s": self_s["pipeline"] + self_s["pipeline.analyze_file"],
        "minicpp.lexer.s": self_s["minicpp.lexer"],
        "minicpp.lexer.tokens": c["minicpp.lexer.tokens"],
        "minicpp.lexer.tokens_per_s": (
            c["minicpp.lexer.tokens"] / self_s["minicpp.lexer"] if self_s["minicpp.lexer"] else 0.0
        ),
        "minicpp.parser.s": self_s["minicpp.parser"],
        "minicpp.parser.nodes": c["minicpp.parser.nodes"],
        "symtab.lookup_local.calls": c["symtab.lookup_local.calls"],
        "symtab.build.s": self_s["symtab.build"],
        "symtab.bindings": c["symtab.bindings"],
        "symtab.scopes": c["symtab.scopes"],
        "seqdiag.parse.s": self_s["seqdiag.parse"],
        "seqdiag.nodes": c["seqdiag.nodes"],
        "core.traverse.self_s": self_s["core.traverse"],
        "core.visits": c["core.visits"],
        "core.dispatch_hit_ratio": c["core.dispatch_hits"] / c["core.visits"] if c["core.visits"] else 0.0,
        "report.summarize.s": self_s["report.summarize"],
        "report.xml.s": self_s["report.xml"],
        "report.xml.bytes": c["report.xml.bytes"],
        "report.html.s": self_s["report.html"],
        "trace.coverage": tracer.root_seconds() / wall,
    }
    for rules in RULES_BY_LANGUAGE.values():
        for cls in rules:
            name = "rules.%s" % cls.descriptor.id
            m[name + ".s"] = tracer.rule_ns[name] / 1e9
            m[name + ".calls"] = c[name + ".calls"]
            m[name + ".findings"] = c[name + ".findings"]
    return m


def traced_once(corpus, checker):
    import tracing

    tracer = tracing.Tracer()
    wall = call_main(corpus, checker, tracer)
    return tracer, wall


def medians(samples):
    """Per-key median of a list of metric dicts; counts stay whole."""
    return {k: statistics.median_low([m[k] for m in samples]) for k in samples[0]}


def measure_traced(corpus, seconds, scale_corpora):
    checker = Checker()
    call_main(corpus, checker)  # warm-up: imports, caches
    start = time.perf_counter()

    # half-size readout on the cpp_unit generator: ~2 linear, ~4 quadratic
    full, half = [], []
    for _ in range(SCALE_REPEATS):
        full.append(layer_metrics(*traced_once(scale_corpora[0], checker)))
        half.append(layer_metrics(*traced_once(scale_corpora[1], checker)))
    full, half = medians(full), medians(half)

    untraced, traced, layers = [], [], []
    while True:
        began = time.perf_counter()
        untraced.append(call_main(corpus, checker))
        tracer, wall = traced_once(corpus, checker)
        traced.append(wall)
        layers.append(layer_metrics(tracer, wall))
        now = time.perf_counter()
        if now + (now - began) - start > seconds:
            break
    metrics = medians(layers)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    for name, key in SCALE_LAYERS.items():
        metrics["scale." + name] = full[key] / half[key] if half[key] else 0.0
    extra = {"repetitions": len(layers), "scale_inputs": [c.manifest for c in scale_corpora]}
    return checker, metrics, extra, tracer.dump()


UNITS = {"tokens_per_s": "tokens/s", "bytes": "bytes"}


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if name.startswith("scale.") or last in ("overhead_ratio", "coverage", "dispatch_hit_ratio"):
        return "ratio"
    if last in ("s", "self_s"):
        return "s"
    return UNITS.get(last, "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (self-check)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cglint", "cli.py")):
        print("error: cglint sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(OUT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    try:
        checker, metrics, record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for name, (value, unit, samples) in metrics.items():
        print("%-40s %14.6g %-8s n=%d" % (name, value, unit, samples))
    for error in checker.errors[:5]:
        print("error: %s" % error)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def measure(args, work):
    """Generate the corpora under ``work`` and measure; return the checker,
    {metric: (value, unit, samples)} and the record of the run."""
    corpus = Corpus(args.workload, args.seed, args.scale, os.path.join(work, "main"))
    record = {
        "workload": args.workload,
        "why": corpus.workload.why,
        "predicts": corpus.workload.predicts,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "inputs": dict(corpus.manifest, planted=dict(corpus.planted)),
        "python": platform.python_version(),
        "machine": "%s, %d cpus" % (platform.machine(), os.cpu_count() or 0),
    }
    if args.trace:
        full = corpus
        if args.workload != "cpp_unit":
            full = Corpus("cpp_unit", args.seed, args.scale, os.path.join(work, "full"))
        half = Corpus("cpp_unit", args.seed, args.scale / 2, os.path.join(work, "half"))
        checker, values, extra, spans = measure_traced(corpus, args.seconds, (full, half))
        metrics = {k: (v, unit_of(k), extra["repetitions"]) for k, v in values.items()}
        record["spans"] = spans
    else:
        checker, metrics, extra = measure_untraced(corpus, args.seconds)
    record.update(extra)
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    record["failed_ratio"] = checker.failed / checker.attempted
    record["errors"] = checker.errors[:20]
    return checker, metrics, record


if __name__ == "__main__":
    sys.exit(main())
