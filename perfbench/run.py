#!/usr/bin/env python3
"""The conceptkit benchmark: the paper's CLI flow on generated corpora.

Run from the repository root:

    python3 perfbench/run.py --workload many-short --seed 1 --seconds 55 --trace 0

It generates the workload's ontology and corpus from the seed, then runs
the whole flow as often as ``--seconds`` allows, one
``python -m conceptkit.cli`` process after another:

    convert, roundtrip-eval --grid, dict-tag, baseline-train + baseline-tag,
    tune --jobs 1, tune --jobs 2, harmonise (all four strategies), evaluate

This is a closed loop with a single client; the only concurrency is the
two workers of ``tune --jobs 2``. Before every other stage, a fresh
interpreter imports conceptkit and loads the ontology (``setup_s``, at
least `SETUP_REPEATS` samples in a run). Every command's output is
checked (see checks.py) and counted in ``attempted`` and ``failed``.
End-to-end metrics are medians over the stage and set-up samples of the
run.

With ``--trace 1`` the flows alternate between untraced and traced ones
(traced_cli.py runs each command under layertrace.py), and the per-layer
metrics, with the tracing overhead, come from the traced ones.

Every metric is printed with its unit. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``, which holds the metrics BENCHMARK.json lists. A results
file with every sample, the input shape, the machine facts and, for
traced runs, every span is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus

BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    spec: corpus.CorpusSpec
    folds: int


WORKLOADS = {
    # A few long documents, about 190 annotations each, over a 29,524-concept,
    # nine-level ontology, as in CRAFT: the quadratic layers
    # (simplify.unnest/extend_subword, evaluate.score_document) and the
    # ontology load (parse_obo, build_index) in every command that reads
    # it do most of the work.
    "long-docs": Workload(corpus.CorpusSpec(branching=3, depth=9, docs=3,
                                            lines=50, slots=12,
                                            mentions_per_line=3), folds=3),
    # Hundreds of three-line documents over a 1555-concept ontology:
    # per-document costs (file I/O, parsing, row construction, tagging,
    # pickling in tune --jobs 2) do most of the work.
    "many-short": Workload(corpus.CorpusSpec(branching=6, depth=4, docs=300,
                                             lines=3, slots=5,
                                             mentions_per_line=2), folds=6),
}

STRATEGIES = ("spans-only", "ids-only", "spans-first", "ids-first")
#: evaluate scores one fixed strategy so its work does not depend on which
#: strategy tune happens to select for a seed.
EVALUATED_STRATEGY = "ids-first"
SETUP_REPEATS = 15
COMMAND_TIMEOUT_S = 150
STAGES = ("convert", "roundtrip_grid", "dict_tag", "baseline", "tune",
          "tune_jobs2", "harmonise", "evaluate")
#: stages before which a set-up sample is taken
SETUP_STAGES = STAGES[::2]

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "tokens_per_s": "1/s",
    **{f"{stage}_s": "s" for stage in STAGES}, "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys
from pathlib import Path
import conceptkit
src = Path(sys.argv[1]).resolve()
if src not in Path(conceptkit.__file__).resolve().parents:
    sys.exit(f"conceptkit was imported from {conceptkit.__file__}, not {src}")
graph = conceptkit.parse_obo(Path(sys.argv[2]).read_text(encoding="utf-8"))
conceptkit.build_index(graph)
"""


@dataclass
class Command:
    """One finished command process."""

    label: str
    seconds: float
    max_rss_kb: int
    returncode: int
    stdout: str
    errors: list[str] = field(default_factory=list)
    selected: str | None = None  # tune: the selected strategy
    predictions: int | None = None  # harmonise: annotations written


class Runner:
    """Starts command processes in the work directory and keeps the tally."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        pythonpath = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        # Commands import conceptkit from the checkout and, like an
        # installed package, from cached bytecode after the first run.
        # A fixed hash seed makes set and dict layouts, and so the work
        # done, the same in every run.
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath),
                        PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, label: str, argv: list[str]) -> Command:
        """Run argv to completion; times it from start to exit."""
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=self.work, env=self.env,
                                    start_new_session=True)
            # on timeout, kill the command with any worker processes
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        command = Command(label, seconds, usage.ru_maxrss, proc.returncode,
                          out_path.read_text(encoding="utf-8"))
        if proc.returncode != 0:
            stderr = err_path.read_text(encoding="utf-8").strip()
            command.errors.append(
                f"exit {proc.returncode}: {stderr.splitlines()[-1:] or ''}")
        return command

    def cli(self, label: str, args: list[str], trace_path: str | None = None) -> Command:
        if trace_path is None:
            argv = [sys.executable, "-m", "conceptkit.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                    trace_path, *args]
        return self.run(label, argv)

    def tally(self, commands: list[Command]) -> None:
        for command in commands:
            self.attempted += 1
            if command.errors:
                self.failed += 1
                self.failures.append(f"{command.label}: {command.errors[0]}")


def flow_commands(folds: int) -> list[tuple[str, str, list[str]]]:
    """(stage, label, CLI arguments) of one flow, in order."""
    onto = ["--ontology", "onto.obo"]
    tune = ["tune", "gold", "pred-conll", *onto, "--folds", str(folds)]
    return [
        ("convert", "convert", ["convert", "gold", "conll"]),
        ("roundtrip_grid", "roundtrip-eval", ["roundtrip-eval", "gold", *onto, "--grid"]),
        ("dict_tag", "dict-tag", ["dict-tag", "conll", "tagged", *onto]),
        ("baseline", "baseline-train", ["baseline-train", "conll", "lexicon.json"]),
        ("baseline", "baseline-tag",
         ["baseline-tag", "tagged", "pred-conll", "--lexicon", "lexicon.json"]),
        ("tune", "tune", [*tune, "--jobs", "1"]),
        ("tune_jobs2", "tune-jobs2", [*tune, "--jobs", "2"]),
        *[("harmonise", f"harmonise-{s}",
           ["harmonise", "pred-conll", f"pred-ann/{s}", "--strategy", s,
            "--text-dir", "gold"]) for s in STRATEGIES],
        ("evaluate", "evaluate",
         ["evaluate", "gold", f"pred-ann/{EVALUATED_STRATEGY}", *onto]),
    ]


OUTPUT_DIRS = ("conll", "tagged", "pred-conll", "pred-ann", "lexicon.json", "traces")


class Flow:
    """Runs flow iterations and checks their outputs."""

    def __init__(self, runner: Runner, workload: Workload, docs, n_refs: int):
        self.runner = runner
        self.work = runner.work
        self.workload = workload
        self.docs = docs
        self.texts = {d.doc_id: d.text for d in docs}
        self.n_refs = n_refs
        self.first_outputs: dict[str, str] | None = None

    def iterate(self, traced: bool, setup: Callable[[], None],
                deadline: float = math.inf
                ) -> tuple[list[Command], dict, list[dict]]:
        """One flow; returns its commands, stage samples and traces.

        Calls `setup` before each of `SETUP_STAGES`, so that set-up is
        sampled across the window like the stages. No stage starts after
        `deadline`, so the last flow of a run may end early.
        """
        for name in OUTPUT_DIRS:
            path = self.work / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        (self.work / "traces").mkdir()
        commands, traces = [], []
        samples: dict[str, float] = {}
        steps = flow_commands(self.workload.folds)
        for stage in STAGES:
            if time.perf_counter() > deadline:
                break
            if stage in SETUP_STAGES:
                setup()
            samples[stage] = 0.0
            for label, args in [(l, a) for s, l, a in steps if s == stage]:
                trace_path = f"traces/{len(commands):02d}.json" if traced else None
                command = self.runner.cli(label, args, trace_path)
                samples[stage] += command.seconds
                commands.append(command)
                if traced and command.returncode == 0:
                    trace = json.loads((self.work / trace_path).read_text(
                        encoding="utf-8"))
                    trace["label"] = label
                    traces.append(trace)
        self.check(commands)
        self.runner.tally(commands)
        return commands, samples, traces

    def check(self, commands: list[Command]) -> None:
        """Check each command's files and report."""
        by_label = {c.label: c for c in commands}
        outputs = {}
        for command in commands:
            if command.errors:
                continue
            try:
                command.errors += self._check(command, by_label)
                outputs[command.label] = self._output_digest(command)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                command.errors.append(f"unreadable output: {exc!r}")
        if self.first_outputs is None:
            self.first_outputs = outputs
            return
        for label, digest in outputs.items():
            if digest != self.first_outputs.get(label):
                by_label[label].errors.append("output differs from the first flow")

    def _output_digest(self, command: Command) -> str:
        paths = {"convert": ["conll"], "dict-tag": ["tagged"],
                 "baseline-train": ["lexicon.json"],
                 "baseline-tag": ["pred-conll"]}.get(command.label, [])
        if command.label.startswith("harmonise-"):
            paths = [f"pred-ann/{command.label.removeprefix('harmonise-')}"]
        files = checks.tree_digest(*(self.work / p for p in paths)) if paths else ""
        return files + "\n" + command.stdout

    def _check(self, command: Command, by_label: dict) -> list[str]:
        label, work = command.label, self.work
        if label == "convert":
            errors, self.conll = checks.conll_dir(work / "conll", self.texts,
                                                  encoded=True)
            return errors
        if label == "roundtrip-eval":
            rows = checks.report_rows(command.stdout)
            errors = [] if len(rows) == 6 else ["roundtrip grid without 6 rows"]
            for row in rows:
                preds = None
                if row["strategy"] == "first-span/keep-longer" and "convert" in by_label:
                    preds = checks.entity_count(self.conll)
                errors += checks.counts(row, self.n_refs, preds)
            return errors
        if label == "dict-tag":
            errors, self.tagged = checks.conll_dir(work / "tagged", self.texts)
            return (errors + checks.same_tokens(self.tagged, self.conll, 5)
                    + checks.dictionary_hits(self.tagged, self.docs))
        if label == "baseline-train":
            return checks.lexicon(work / "lexicon.json")
        if label == "baseline-tag":
            errors, predicted = checks.conll_dir(work / "pred-conll", self.texts)
            return errors + checks.same_tokens(predicted, self.tagged, 3)
        if label in ("tune", "tune-jobs2"):
            errors, command.selected = checks.tune_table(command.stdout, STRATEGIES)
            first = by_label.get("tune")
            if label == "tune-jobs2" and first is not None and \
                    first.selected != command.selected:
                errors.append("tune --jobs 2 selected another strategy than --jobs 1")
            return errors
        if label.startswith("harmonise-"):
            errors, command.predictions = checks.standoff_dir(
                work / "pred-ann" / label.removeprefix("harmonise-"), self.texts)
            return errors
        if label == "evaluate":
            harmonised = by_label[f"harmonise-{EVALUATED_STRATEGY}"]
            rows = checks.report_rows(command.stdout)
            if len(rows) != 1:
                return ["evaluate printed no single row"]
            return checks.counts(rows[0], self.n_refs, harmonised.predictions)
        return []


def check_control(runner: Runner) -> None:
    """Simple annotations must survive the round trip at F = 1.0."""
    command = runner.cli("control-roundtrip",
                         ["roundtrip-eval", "control", "--ontology", "onto.obo",
                          "--grid"])
    if not command.errors:
        try:
            n_refs = sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (runner.work / "control").glob("*.ann"))
            for row in checks.report_rows(command.stdout):
                command.errors += checks.counts(row, n_refs, n_refs)
                if row["F"] != 1.0:
                    command.errors.append(f"{row['strategy']}: control F {row['F']} != 1.0")
        except (ValueError, KeyError, IndexError) as exc:
            command.errors.append(f"unreadable output: {exc!r}")
    runner.tally([command])


def measure_setup(runner: Runner, root: Path) -> float:
    """Fresh interpreter + import + parse_obo + build_index, timed."""
    command = runner.run("setup", [sys.executable, "-c", SETUP_CODE,
                                   str(root / "src"), "onto.obo"])
    runner.tally([command])
    return command.seconds


def end_to_end(flows: list[tuple[list[Command], dict]], setup: list[float],
               tokens: int) -> dict[str, float]:
    """Medians over the flows' stage times; the pipeline is their sum.

    A flow cut short by the end of the window adds its stage samples but
    not its memory.
    """
    metrics = {"setup_s": statistics.median(setup)}
    stages = {f"{stage}_s": statistics.median(
        samples[stage] for _, samples in flows if stage in samples)
        for stage in STAGES}
    pipeline = sum(stages.values())
    metrics.update({"pipeline_s": pipeline, "tokens_per_s": tokens / pipeline,
                    **stages})
    metrics["peak_rss_mb"] = statistics.median(
        max(c.max_rss_kb for c in commands) for commands, samples in flows
        if len(samples) == len(STAGES)) / 1024
    return metrics


# ---------------------------------------------------------------------------
# Per-layer metrics from traced flows

LAYERS = ("cli", "formats", "simplify", "codec", "dicttag", "harmonise",
          "evaluate", "ontology", "tuning")

SELF_TIMES = (
    "formats.parse_standoff", "formats.parse_conll", "formats.write_conll",
    "formats.tokenize", "simplify.extend_subword", "simplify.unnest",
    "codec.encode", "codec.decode_iobes", "dicttag.build_index", "dicttag.tag",
    "harmonise.harmonise_document", "evaluate.score_document",
    "ontology.parse_obo", "tuning.grid_search", "tuning.LexiconTagger.train",
    "tuning.LexiconTagger.tag_rows", "cli.read_standoff_dir",
    "cli.read_conll_dir", "cli.write_outputs",
)
CALL_COUNTS = ("evaluate.score_document", "ontology.wang_similarity")


def layer_metrics(traces: list[dict], docs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced flow, with their units."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    tokenize_calls = 0
    for trace in traces:
        for name, (calls, total, self_s) in trace["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if trace["label"] == "roundtrip-eval":
            tokenize_calls = trace["stats"].get("formats.tokenize", [0])[0]

    def stat(name):
        return stats.get(name, (0, 0.0, 0.0))

    out = {f"{n}.self_s": (stat(n)[2], "s") for n in SELF_TIMES}
    out.update({f"{n}.calls": (stat(n)[0], "count") for n in CALL_COUNTS})
    out["ontology.wang_similarity.total_s"] = (stat("ontology.wang_similarity")[1], "s")
    out["formats.tokenize.calls_per_doc"] = (tokenize_calls / docs, "count")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (sum(
            s[2] for n, s in stats.items() if n.split(".")[0] == layer), "s")

    def ratio(a, b):
        return counters.get(a, 0) / counters[b] if counters.get(b) else 0.0

    out.update({
        "simplify.overlapping_pairs": (counters.get("simplify.overlapping_pairs", 0), "count"),
        "simplify.kept_ratio": (ratio("simplify.annotations_out", "simplify.annotations_in"), "ratio"),
        "dicttag.index_entries": (counters.get("dicttag.index_entries", 0), "count"),
        "dicttag.matched_token_ratio": (ratio("dicttag.matched_tokens", "dicttag.tokens"), "ratio"),
        "harmonise.annotations_out": (counters.get("harmonise.annotations_out", 0), "count"),
        "tuning.cells": (counters.get("tuning.cells", 0), "count"),
        "tuning.pickled_bytes": (counters.get("tuning.pickled_bytes", 0), "bytes"),
        "evaluate.candidate_pairs": (counters.get("evaluate.candidate_pairs", 0), "count"),
        "evaluate.overlapping_pairs": (counters.get("evaluate.overlapping_pairs", 0), "count"),
        "evaluate.useful_pair_ratio": (ratio("evaluate.overlapping_pairs", "evaluate.candidate_pairs"), "ratio"),
    })
    return out


def top_layers(metrics: dict, n: int = 5) -> list[tuple[str, float]]:
    layers = [(k.split(".")[1], v[0]) for k, v in metrics.items()
              if k.startswith("layer.")]
    return sorted(layers, key=lambda kv: -kv[1])[:n]


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "start_method": multiprocessing.get_start_method(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def command_layers(trace: dict) -> dict[str, float]:
    """Self seconds per layer within one traced command."""
    layers: dict[str, float] = {}
    for name, (_, _, self_s) in trace["stats"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers


def listed_metrics(root: Path) -> tuple[list[str], list[str]]:
    """Names of the end-to-end and per-layer metrics BENCHMARK.json lists.

    The result line carries exactly these; every metric is printed above it.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "conceptkit" / "__init__.py").is_file():
        print(f"perfbench: no src/conceptkit under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out_root = root / ".bench_build" / "perfbench"
        work = out_root / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            results[name] = run(name, args, root, work, out_root)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if results[name] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()}}))
    return 0


def run(name: str, args, root: Path, work: Path, out_root: Path) -> dict | None:
    """Measure one workload; print its summary and return its result."""
    workload = WORKLOADS[name]
    facts_before = machine_facts()
    shape, docs = corpus.generate(workload.spec, args.seed, work)
    n_refs = shape["annotations"]
    runner = Runner(root, work)

    setup = [measure_setup(runner, root)]
    if runner.failed:
        print(f"perfbench: set-up failed: {runner.failures[0]}", file=sys.stderr)
        return None
    check_control(runner)

    def sample_setup() -> None:
        setup.append(measure_setup(runner, root))


    flow = Flow(runner, workload, docs, n_refs)
    untraced: list[tuple[list[Command], dict]] = []
    traced: list[tuple[list[Command], dict, list[dict]]] = []
    deadline = time.perf_counter() + args.seconds
    # Two whole flows at least; then flows until the window closes, the
    # last one possibly cut short (its samples count, its memory not).
    while len(untraced) + len(traced) < 2 or time.perf_counter() < deadline:
        whole = len(untraced) + len(traced) < 2
        trace_now = bool(args.trace) and len(traced) < len(untraced)
        commands, samples, traces = flow.iterate(
            trace_now, sample_setup,
            math.inf if whole or trace_now else deadline)
        if trace_now:
            traced.append((commands, samples, traces))
        else:
            untraced.append((commands, samples))
    while len(setup) < SETUP_REPEATS:
        sample_setup()

    e2e = end_to_end(untraced, setup, shape["tokens"])
    gated, layered = listed_metrics(root)
    result_metrics = {m: {"value": e2e[m], "unit": END_TO_END_UNITS[m]}
                      for m in gated}
    report = {"workload": name, "seed": args.seed,
              "trace": args.trace, "shape": shape,
              "machine_before": facts_before,
              "setup_samples_s": setup,
              "flows": [samples for _, samples in untraced],
              "end_to_end": e2e}
    if args.trace:
        per_flow = [layer_metrics(traces, shape["docs"]) for _, _, traces in traced]
        layers = {metric: (statistics.median(m[metric][0] for m in per_flow), unit)
                  for metric, (_, unit) in per_flow[0].items()}
        traced_pipeline = statistics.median(
            sum(c.seconds for c in commands) for commands, _, _ in traced)
        layers["trace.pipeline_s"] = (traced_pipeline, "s")
        layers["trace.overhead_s"] = (traced_pipeline - e2e["pipeline_s"], "s")
        layers["trace.overhead_ratio"] = (
            traced_pipeline / e2e["pipeline_s"] - 1.0, "ratio")
        report["per_layer"] = {m: {"value": v, "unit": u}
                               for m, (v, u) in sorted(layers.items())}
        result_metrics = {m: report["per_layer"][m] for m in layered}
        report["top_layers"] = top_layers(layers)
        report["traced_flows"] = [samples for _, samples, _ in traced]
        report["command_layers"] = {t["label"]: command_layers(t)
                                    for t in traced[-1][2]}
        report["spans"] = [
            {"command": t["label"], "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in t["spans"]]}
            for t in traced[-1][2]]
    report["machine_after"] = machine_facts()
    report["attempted"], report["failed"] = runner.attempted, runner.failed
    report["failures"] = runner.failures

    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report), encoding="utf-8")

    print(f"workload {name} seed {args.seed}: {shape}")
    print(f"machine: {facts_before}")
    print(f"flows: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up samples {len(setup)}")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}")
    for metric, value in e2e.items():
        print(f"{metric}\t{value:.4f}\t{END_TO_END_UNITS[metric]}")
    print(f"failed_ratio\t{runner.failed / runner.attempted:.4f}\tratio"
          f"\t({runner.failed} of {runner.attempted} commands)")
    if args.trace:
        print("top layers by self time: " + ", ".join(
            f"{layer} {seconds:.3f} s" for layer, seconds in report["top_layers"]))
        print(f"tracing overhead: {layers['trace.overhead_s'][0]:.3f} s "
              f"({100 * layers['trace.overhead_ratio'][0]:.1f}%)")
        grid = report["command_layers"].get("roundtrip-eval")
        if grid:
            total = sum(grid.values())
            print("roundtrip-eval --grid self time by layer: " + ", ".join(
                f"{layer} {100 * t / total:.0f}%"
                for layer, t in sorted(grid.items(), key=lambda kv: -kv[1])[:4]))
    print(f"results: {result_file.relative_to(root)}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": result_metrics}


if __name__ == "__main__":
    sys.exit(main())
