"""genonet CLI benchmark: seeded syngen workloads, one command at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload analytics --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7      # every workload in turn
    python3 perfbench/run.py --smoke                      # tiny sizes, checks + shims
    python3 perfbench/run.py --write-reference            # refresh reference outputs

The load is a closed loop with one client: this process starts one
``python -m genonet.cli`` child at a time, waits for it with
``os.wait4`` and starts the next, which is how an analyst runs the
pipeline.  A run generates the workload's dataset from ``--seed``, then
repeats passes over the workload's commands until the next pass would
end after ``--seconds`` of pass time, generating the dataset again after
each pass (``setup_s`` is the median of up to ``SETUP_REPEATS``).  Every
output is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics, with times scaled to the
reference host's speed by probes timed around every child (see
``host_spin``).  ``--trace 1`` alternates untraced passes with passes
whose children run under ``traced_cli.py``, and reports the per-layer
metrics: self times and call counts of the layer functions, plus the
tracing overhead (traced minus untraced time).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
from traced_cli import TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 7
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# Median time of host_spin() on the reference host (2 vCPUs, Python 3.11.7).
SPIN_REF = 0.025
DATASET_FILES = ("edges.tsv", "events.tsv", "topics.tsv", "truth.json", "dataset.manifest")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: tuple[str, ...]
    smoke_gen: tuple[str, ...]
    # (label, CLI arguments without --manifest/--out; "{seed}" is the run's seed)
    commands: tuple[tuple[str, tuple[str, ...]], ...]


# Sizes are small enough that one pass takes 5-9 s and a 30 s run holds
# several passes.  The shapes pick the layers: analytics runs every
# per-pair and per-hashtag layer and no latmin; latmin-dense has a
# strongly connected t0 component (all-finite path) and a weakly
# connected t1 component with some unreachable pairs (masked path); hubs
# is preferential attachment, whose backbone is acyclic, so its latmin
# component has few reachable pairs.  Its 30 cascades per hashtag
# saturate each hashtag's reach: with a few, event counts and the latmin
# component size vary so much between seeds that the time does too.
WORKLOADS = (
    Workload(
        name="analytics",
        why="per-pair and per-hashtag layers (ingest, genotype, backbone, classify, predict); no latmin",
        gen=("--users", "180", "--topics", "3", "--hashtags-per-topic", "6",
             "--cascades", "3", "--edge-prob", "0.06"),
        smoke_gen=("--users", "90", "--topics", "2", "--hashtags-per-topic", "3",
                   "--cascades", "2", "--edge-prob", "0.12"),
        commands=(
            ("ingest_check", ("ingest-check",)),
            ("genome", ("genome",)),
            ("backbone", ("backbone",)),
            ("classify", ("classify", "--metric", "LAT,TIME",
                          "--ensemble-sizes", "1,4,16,64", "--seed", "{seed}")),
            ("predict", ("predict",)),
        ),
    ),
    Workload(
        name="latmin-dense",
        why="graph kernels and greedy scoring on dense reachability (strict all-finite and permissive masked latmin)",
        gen=("--users", "340", "--topics", "2", "--hashtags-per-topic", "4",
             "--cascades", "3", "--edge-prob", "0.0353"),
        smoke_gen=("--users", "60", "--topics", "2", "--hashtags-per-topic", "3",
                   "--cascades", "3", "--edge-prob", "0.2"),
        commands=(
            ("latmin_strict", ("latmin", "--topic", "t0", "--k", "5")),
            ("latmin_permissive", ("latmin", "--topic", "t1", "--k", "5", "--permissive")),
        ),
    ),
    Workload(
        name="hubs",
        why="predict and permissive latmin on a preferential-attachment graph: skewed degrees, sparse reachability",
        gen=("--users", "320", "--topics", "3", "--hashtags-per-topic", "12",
             "--cascades", "30", "--graph-model", "preferential-attachment",
             "--attach-count", "12"),
        smoke_gen=("--users", "60", "--topics", "2", "--hashtags-per-topic", "4",
                   "--cascades", "4", "--graph-model", "preferential-attachment",
                   "--attach-count", "6"),
        commands=(
            ("predict", ("predict",)),
            ("latmin_permissive", ("latmin", "--topic", "t0", "--k", "5", "--permissive")),
        ),
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}
LABELS = ("ingest_check", "genome", "backbone", "classify", "predict",
          "latmin_strict", "latmin_permissive")

END_TO_END = (
    ("total_s", "s"),
    ("total_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (name, unit, better); every name is reported on every workload, 0 where
# the workload does not reach that layer.
PER_LAYER = (
    ("host.spin_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.missing_shims", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.outputs_byte_identical", "count", "higher"),
    ("cli.outputs_compared", "count", "higher"),
    *((f"cmd.wall_s.{lb}", "s", "lower") for lb in LABELS),
    *((f"cli.command_self_s.{lb}", "s", "lower") for lb in LABELS),
    *((f"proc.cpu_s.{lb}", "s", "lower") for lb in LABELS),
    *((f"proc.rss_mb.{lb}", "MB", "lower") for lb in LABELS),
    ("ingest.load_dataset_s", "s", "lower"),
    ("ingest.build_adoption_index_s", "s", "lower"),
    ("ingest.events", "count", "higher"),
    ("ingest.adopted_pairs", "count", "higher"),
    ("genotype.build_genome_s", "s", "lower"),
    ("genotype.hashtag_mean_lats_s", "s", "lower"),
    ("genotype.compute_metric_calls", "count", "lower"),
    ("genotype.compute_metric_calls_per_pair", "ratio", "lower"),
    ("backbone.extract_backbone_s", "s", "lower"),
    ("backbone.extract_backbone_calls", "count", "lower"),
    ("backbone.compare_with_follower_s", "s", "lower"),
    ("backbone.exclude_hashtag_s", "s", "lower"),
    ("backbone.exclude_hashtag_calls", "count", "lower"),
    ("graph.pagerank_s", "s", "lower"),
    ("graph.pagerank_calls", "count", "lower"),
    ("graph.betweenness_centrality_s", "s", "lower"),
    ("graph.strongly_connected_components_s", "s", "lower"),
    ("graph.weakly_connected_components_s", "s", "lower"),
    ("graph.kendall_tau_s", "s", "lower"),
    ("classify.leave_one_out_s", "s", "lower"),
    ("classify.accuracy_curve_s", "s", "lower"),
    ("classify.fit_logistic_s", "s", "lower"),
    ("classify.pair_metric_values_calls_per_metric", "ratio", "lower"),
    ("predict.build_instances_s", "s", "lower"),
    ("predict.evaluate_s", "s", "lower"),
    ("predict.instances", "count", "higher"),
    ("predict.score_candidates_calls", "count", "lower"),
    ("predict.roc_auc_calls", "count", "lower"),
    ("latmin.minimize_s.MaxLat", "s", "lower"),
    ("latmin.minimize_s.MaxBC", "s", "lower"),
    ("latmin.minimize_s.Greedy", "s", "lower"),
    ("latmin.average_network_latency_s", "s", "lower"),
    ("latmin.count_reachable_pairs_s", "s", "lower"),
    ("latmin.greedy_candidate_us", "us", "lower"),
    ("latmin.component_nodes.strict", "count", "higher"),
    ("latmin.component_nodes.permissive", "count", "higher"),
    ("latmin.reachable_pair_fraction.strict", "ratio", "higher"),
    ("latmin.reachable_pair_fraction.permissive", "ratio", "higher"),
    ("syngen.generate_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER} | dict(END_TO_END)

# --- child processes ------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str
    probe: float  # mean of the host probes taken just before and after

    @property
    def wall_adj(self) -> float:
        """Wall time scaled to the reference host's speed."""
        return self.wall * SPIN_REF / self.probe

    @property
    def cpu_adj(self) -> float:
        return self.cpu * SPIN_REF / self.probe


class Runner:
    """Starts one child at a time and kills it when the run's deadline passes."""

    def __init__(self, work: Path):
        self.work = work
        self.start = time.perf_counter()
        self.child: int | None = None
        self.timed_out = False
        self.probes: list[float] = []
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame):
        if self.child is not None:
            self.timed_out = True
            os.kill(self.child, signal.SIGKILL)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def run(self, argv: list[str]) -> Proc:
        remaining = self.remaining()
        if remaining <= 1.0:
            self.timed_out = True
            return Proc(code=-1, wall=0.0, cpu=0.0, rss_mb=0.0,
                        stderr="run deadline reached", probe=SPIN_REF)
        before = host_spin()
        err_path = self.work / "stderr.txt"
        with err_path.open("wb") as err:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=err)
            self.child = child.pid
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - t0
            self.child = None
            signal.setitimer(signal.ITIMER_REAL, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        after = host_spin()
        self.probes += [before, after]
        return Proc(code=child.returncode, wall=wall,
                    cpu=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss / 1024.0,
                    stderr=err_path.read_text(errors="replace").strip()[-500:],
                    probe=(before + after) / 2)

    def cli(self, args: list[str], spans: Path | None = None) -> Proc:
        if spans is None:
            return self.run([sys.executable, "-m", "genonet.cli", *args])
        return self.run([sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args])


# --- bookkeeping ----------------------------------------------------------


class SetupError(Exception):
    pass


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, proc: Proc, problems: list[str]) -> bool:
        self.attempted += 1
        if proc.code != 0:
            problems = [f"exit {proc.code}: {proc.stderr}"] + problems
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])
        return not problems


@dataclass
class Pass:
    traced: bool
    procs: dict[str, Proc] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def upper_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples above it: (pct, value)."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10  # 1-based rank of the sample with 10 samples beyond it
    return 100.0 * rank / n, sorted(values)[rank - 1]


def host_spin() -> float:
    """A fixed pure-Python loop, timed just before and after every child.

    Its time tracks the host's speed and nothing of genonet.  On a shared
    host that speed switches by 20-40% every few seconds to minutes, for
    start-up, import and computation alike.  Scaling each child's times
    by SPIN_REF over the mean of its two probes removes most of that
    drift from the end-to-end times.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i % 7
    return time.perf_counter() - t0


def environment(sizes: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "genonet").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "inputs": sizes,
    }


# --- one workload run -----------------------------------------------------


class WorkloadRun:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.work = WORK / f"{wl.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runner = Runner(self.work)
        self.ops = Ops()
        self.setup_procs: list[Proc] = []
        self.passes: list[Pass] = []
        self.first: dict[str, tuple[dict[str, bytes], bool]] = {}
        self.identical = 0
        self.compared = 0
        self.syngen_spans: dict | None = None
        self.data_digests: dict[str, str] = {}
        self.sizes: dict[str, int] = {}
        self.env: dict = {}
        self.reference = self._reference()

    def _reference(self) -> dict | None:
        if self.seed != DEFAULT_SEED:
            return None
        ref = checks.load_reference(reference_path(self.wl, self.smoke))
        gen = list(self.wl.smoke_gen if self.smoke else self.wl.gen)
        if ref is not None and ref["gen"] != gen:
            self.ops.problems.append("reference was made for other workload sizes")
            return {"gen": ref["gen"], "files": {}}
        return ref

    def commands(self) -> list[tuple[str, list[str]]]:
        return [(label, [a.replace("{seed}", str(self.seed)) for a in args])
                for label, args in self.wl.commands]

    def generate(self, out: Path, spans: Path | None = None) -> Proc:
        """One timed ``syngen``; every copy must equal the first."""
        gen = self.wl.smoke_gen if self.smoke else self.wl.gen
        proc = self.runner.cli(["syngen", "--out", str(out), "--seed", str(self.seed), *gen],
                               spans=spans)
        problems = []
        if proc.code == 0:
            digests = {n: sha256(out / n) for n in DATASET_FILES}
            self.data_digests = self.data_digests or digests
            if digests != self.data_digests:
                problems.append("syngen output differs between repeats")
        self.ops.record("syngen", proc, problems)
        return proc

    def setup_again(self) -> None:
        """Another ``setup_s`` sample, up to ``SETUP_REPEATS``.  One is taken
        after each pass, so that they meet the same host phases as the
        commands."""
        if len(self.setup_procs) < SETUP_REPEATS and not self.runner.timed_out:
            out = self.work / "data-repeat"
            proc = self.generate(out)
            if proc.code == 0:
                self.setup_procs.append(proc)
            shutil.rmtree(out, ignore_errors=True)

    def setup(self) -> None:
        self.data = self.work / "data"
        proc = self.generate(self.data)
        if proc.code != 0:
            raise SetupError(f"syngen failed with exit {proc.code}: {proc.stderr}")
        self.setup_procs.append(proc)
        self.manifest = self.data / "dataset.manifest"
        self.input_digests = {k: self.data_digests[f"{k}.tsv"]
                              for k in ("edges", "events", "topics")}
        if self.trace:
            spans = self.work / "syngen.spans.json"
            out = self.work / "data-traced"
            if self.generate(out, spans=spans).code == 0:
                self.syngen_spans = json.loads(spans.read_text())
            shutil.rmtree(out, ignore_errors=True)
        # input sizes come from one untimed ingest-check
        proc = self.runner.cli(["ingest-check", "--manifest", str(self.manifest),
                                "--out", str(self.work / "inventory")])
        problems = []
        if proc.code == 0:
            problems = checks.parse_problems(checks.read_outputs(self.work / "inventory"),
                                             self.input_digests)
        if self.ops.record("ingest-check (inventory)", proc, problems):
            doc = json.loads((self.work / "inventory" / "ingest_check.json").read_text())
            self.sizes = {k: doc[k] for k in ("nodes", "edges", "events", "adopted_pairs")}

    def check_outputs(self, label: str, out: Path) -> list[str]:
        files = checks.read_outputs(out)
        if label in self.first:
            want, ok = self.first[label]
            if files == want:
                return [] if ok else ["same outputs as the failed first pass"]
            return ["outputs differ from the first pass"] + checks.parse_problems(
                files, self.input_digests)
        problems = checks.parse_problems(files, self.input_digests)
        if self.reference is not None:
            want = self.reference["files"].get(label, {})
            ref_problems, identical = checks.reference_problems(files, want)
            problems += ref_problems
            self.identical += identical
            self.compared += len(want)
        self.first[label] = (files, not problems)
        return problems

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced=traced)
        index = len(self.passes)
        for label, args in self.commands():
            out = self.work / f"p{index}" / label
            spans = self.work / f"p{index}.{label}.spans.json" if traced else None
            proc = self.runner.cli([args[0], "--manifest", str(self.manifest),
                                    "--out", str(out), *args[1:]], spans=spans)
            problems = self.check_outputs(label, out) if proc.code == 0 else []
            self.ops.record(f"pass {index} {label}", proc, problems)
            if proc.code == 0:  # timed even when an output check failed
                p.procs[label] = proc
                if traced:
                    p.spans[label] = json.loads(spans.read_text())
            if self.runner.timed_out:
                break
        shutil.rmtree(self.work / f"p{index}", ignore_errors=True)
        return p

    def measure(self) -> None:
        """Passes until the next one would end after ``seconds`` of pass time."""
        elapsed = 0.0
        last = {False: 0.0, True: 0.0}
        min_passes = 2 if self.trace else 1
        while not self.runner.timed_out:
            traced = self.trace and len(self.passes) % 2 == 1
            if len(self.passes) >= min_passes and (
                    elapsed + last[traced] > self.seconds
                    or last[traced] > self.runner.remaining() - 10):
                break
            start = time.perf_counter()
            self.passes.append(self.run_pass(traced))
            last[traced] = time.perf_counter() - start
            elapsed += last[traced]
            self.setup_again()

    # --- metrics ----------------------------------------------------------

    def samples(self, label: str, attr: str, traced: bool = False) -> list[float]:
        return [getattr(p.procs[label], attr) for p in self.passes
                if p.traced == traced and label in p.procs]

    def end_to_end(self) -> dict[str, tuple[float, list[float]]]:
        """Each end-to-end metric with the samples it summarises.

        Times are host-adjusted (``Proc.wall_adj``).  A pass total sums
        each command's median rather than taking the median of whole-pass
        times: with a few passes per run that is the steadier estimate.
        The samples of the totals are whole-pass times; peak_rss_mb is the
        maximum of its samples.
        """
        labels = [lb for lb, _ in self.wl.commands]
        full = [p for p in self.passes if not p.traced and len(p.procs) == len(labels)]
        rss = [c.rss_mb for p in self.passes if not p.traced for c in p.procs.values()]
        return {
            "total_s": (sum(median(self.samples(lb, "wall_adj")) for lb in labels),
                        [sum(c.wall_adj for c in p.procs.values()) for p in full]),
            "total_cpu_s": (sum(median(self.samples(lb, "cpu_adj")) for lb in labels),
                            [sum(c.cpu_adj for c in p.procs.values()) for p in full]),
            "peak_rss_mb": (max(rss, default=0.0), rss),
            "setup_s": (median(p.wall_adj for p in self.setup_procs),
                        [p.wall_adj for p in self.setup_procs]),
        }

    def latmin_summaries(self) -> dict[str, dict]:
        out = {}
        for label in ("latmin_strict", "latmin_permissive"):
            if label in self.first:
                out[label] = json.loads(self.first[label][0]["latmin_summary.json"])
        return out

    def per_layer(self) -> dict[str, float]:
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        values["host.spin_s"] = median(self.runner.probes)
        values["cli.outputs_byte_identical"] = float(self.identical)
        values["cli.outputs_compared"] = float(self.compared)
        for label in LABELS:
            if any(label in p.procs for p in self.passes):
                values[f"cmd.wall_s.{label}"] = median(self.samples(label, "wall"))
                values[f"proc.cpu_s.{label}"] = median(self.samples(label, "cpu"))
                values[f"proc.rss_mb.{label}"] = max(self.samples(label, "rss_mb"), default=0.0)
        traced = [p for p in self.passes if p.traced]
        labels = [lb for lb, _ in self.wl.commands]
        if all(self.samples(lb, "wall", traced=t) for lb in labels for t in (False, True)):
            values["trace.overhead_s"] = sum(
                median(self.samples(lb, "wall", traced=True)) - median(self.samples(lb, "wall"))
                for lb in labels)
        docs = [d for p in traced for d in p.spans.values()]
        if docs:
            values["cli.import_s"] = median(d["import_s"] for d in docs)
        if self.syngen_spans is not None:
            docs.append(self.syngen_spans)
            generate = span_stats(self.syngen_spans).get("syngen.generate", (0, 0.0, 0.0))
            values["syngen.generate_s"] = generate[2]
        values["trace.missing_shims"] = float(len({m for d in docs for m in d["missing"]}))
        per_pass = [pass_layers(p, self.latmin_summaries()) for p in traced]
        for key in {k for layer in per_pass for k in layer}:
            values[key] = median(layer.get(key, 0.0) for layer in per_pass)
        for label, summary in self.latmin_summaries().items():
            mode = label.split("_", 1)[1]
            n = summary["component_nodes"]
            values[f"latmin.component_nodes.{mode}"] = float(n)
            values[f"latmin.reachable_pair_fraction.{mode}"] = summary["reachable_pairs"] / (n * (n - 1))
        return values

    def spans_table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive s, self s), summed over traced passes."""
        table: dict[str, list] = {}
        for p in self.passes:
            for doc in p.spans.values():
                for name, (calls, incl, self_s) in span_stats(doc).items():
                    row = table.setdefault(name, [0, 0.0, 0.0])
                    row[0] += calls
                    row[1] += incl
                    row[2] += self_s
        return {k: tuple(v) for k, v in sorted(table.items())}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def span_stats(doc: dict) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive s, self s) for one traced process."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None and end is not None:
            child[parent] += end - start
    stats: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        row = stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return {k: tuple(v) for k, v in stats.items()}


def pass_layers(p: Pass, latmin_summaries: dict[str, dict]) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over its commands."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    metric_calls = genome_pairs = 0.0
    pmv_calls = loo_calls = 0
    candidates = 0
    for label, doc in p.spans.items():
        stats = span_stats(doc)
        counts = doc["counts"]
        for name, (calls, _incl, self_s) in stats.items():
            if name.startswith("cli.cmd_"):
                add(f"cli.command_self_s.{label}", self_s)
            elif name.split(".")[1].startswith("write_"):
                add("cli.write_s", self_s)
            elif name.startswith("latmin.minimize."):
                add("latmin.minimize_s." + name.split(".", 2)[2], self_s)
            elif name + "_s" in UNITS:
                add(name + "_s", self_s)
            if name + "_calls" in UNITS:
                add(name + "_calls", calls)
        for name, value in counts.items():
            if name in ("ingest.events", "ingest.adopted_pairs"):  # sizes, not work
                out[name] = max(out.get(name, 0.0), value)
            elif name in UNITS:
                add(name, value)
        genomes = stats.get("genotype.build_genome", (0,))[0]
        if genomes:
            metric_calls += counts.get("genotype.compute_metric_calls", 0)
            genome_pairs += genomes * counts.get("ingest.adopted_pairs", 0)
        pmv_calls += stats.get("classify.pair_metric_values", (0,))[0]
        loo_calls += stats.get("classify.leave_one_out", (0,))[0]
        if label in latmin_summaries:
            n, k = latmin_summaries[label]["component_nodes"], latmin_summaries[label]["k"]
            candidates += k * n - k * (k - 1) // 2
    if genome_pairs:
        out["genotype.compute_metric_calls_per_pair"] = metric_calls / genome_pairs
    if loo_calls:
        out["classify.pair_metric_values_calls_per_metric"] = pmv_calls / loo_calls
    if candidates:
        scoring = out.get("latmin.minimize_s.Greedy", 0.0) - out.get("latmin.minimize_s.MaxLat", 0.0)
        out["latmin.greedy_candidate_us"] = 1e6 * scoring / candidates
    return out


def reference_path(wl: Workload, smoke: bool) -> Path:
    return REFERENCE / f"{'smoke-' if smoke else ''}{wl.name}.json.gz"


# --- reporting ------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(run: WorkloadRun) -> dict:
    """Print the human-readable tables and return the result object."""
    wl = run.wl
    correct = run.ops.failed == 0 and not run.runner.timed_out and not run.ops.problems
    print(f"== workload {wl.name}  seed {run.seed}  trace {int(run.trace)}  "
          f"passes {len(run.passes)}")
    print(f"host.spin_s {fmt(median(run.runner.probes))} (median of {len(run.runner.probes)} "
          f"probes); times below are host-adjusted: each child's time is scaled by "
          f"{SPIN_REF} / (mean of its two probes)")
    print("env " + json.dumps(run.env, sort_keys=True))
    ratio = run.ops.failed / run.ops.attempted if run.ops.attempted else 0.0
    print(f"failed_op_ratio {fmt(ratio)}  ({run.ops.failed} failed of {run.ops.attempted} commands attempted)")
    for problem in run.ops.problems[:20]:
        print("  problem: " + problem)
    if run.reference is None:
        print("reference comparison: unavailable (seed is not the default seed "
              f"{DEFAULT_SEED} or no reference file)")
    else:
        print(f"reference comparison: cli.outputs_byte_identical {run.identical} of {run.compared} files")

    print(f"{'metric':<24} {'unit':<6} {'value':>12} {'upper pct':>22} {'n':>4}")

    def row(name, unit, value, samples):
        hi = upper_percentile(samples)
        hi_s = f"p{hi[0]:.0f} {fmt(hi[1])}" if hi else "n/a (n < 11)"
        print(f"{name:<24} {unit:<6} {fmt(value):>12} {hi_s:>22} {len(samples):>4}")

    for label, _ in wl.commands:
        samples = run.samples(label, "wall_adj")
        row(label + "_s", "s", median(samples), samples)
    e2e = run.end_to_end()
    for name, (value, samples) in e2e.items():
        row(name, UNITS[name], value, samples)
    metrics: dict[str, dict] = {}
    if run.trace:
        layers = run.per_layer()
        print(f"{'span':<44} {'calls':>8} {'inclusive s':>12} {'self s':>10}")
        for name, (calls, incl, self_s) in run.spans_table().items():
            print(f"{name:<44} {calls:>8} {fmt(incl):>12} {fmt(self_s):>10}")
        print("per-layer metrics (self times; medians over traced passes):")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<46} {fmt(layers[name]):>12} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": wl.name, "seed": run.seed, "trace": int(run.trace),
        "env": run.env, "passes": len(run.passes), "host_probes": run.runner.probes,
        "setup": {a: [getattr(p, a) for p in run.setup_procs] for a in ("wall", "wall_adj", "probe")},
        "commands": {lb: {a: run.samples(lb, a)
                          for a in ("wall", "wall_adj", "cpu", "cpu_adj", "rss_mb", "probe")}
                     for lb, _ in wl.commands},
        "spans": run.spans_table(), "problems": run.ops.problems, "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{run.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return {"correct": correct, "attempted": run.ops.attempted,
            "failed": run.ops.failed, "metrics": metrics}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[WorkloadRun, dict]:
    run = WorkloadRun(wl, seed, seconds, trace, smoke)
    try:
        run.setup()
        run.measure()
        run.env = environment({**run.sizes, **{
            f"{lb}_component_nodes": s["component_nodes"]
            for lb, s in run.latmin_summaries().items()}})
        return run, report(run)
    finally:
        run.close()


# --- modes ----------------------------------------------------------------


def write_reference() -> int:
    """Record every workload's outputs for the default seed, at both sizes."""
    for smoke in (False, True):
        for wl in WORKLOADS:
            run = WorkloadRun(wl, DEFAULT_SEED, 0.0, False, smoke)
            run.reference = None
            try:
                run.setup()
                run.measure()
            finally:
                run.close()
            if run.ops.failed:
                print("\n".join(run.ops.problems), file=sys.stderr)
                return 1
            doc = {"gen": list(wl.smoke_gen if smoke else wl.gen),
                   "files": {lb: {n: b.decode("utf-8") for n, b in files.items()}
                             for lb, (files, _ok) in run.first.items()}}
            checks.save_reference(reference_path(wl, smoke), doc)
            print(f"wrote {reference_path(wl, smoke).relative_to(ROOT)}")
    return 0


def smoke() -> int:
    """Tiny sizes: one untraced and one traced pass per workload."""
    ok = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != [n for n, _, _ in PER_LAYER]:
        print("BENCHMARK.json per_layer differs from PER_LAYER")
        ok = False
    if sorted(m["name"] for m in spec["end_to_end"]) != sorted(n for n, _ in END_TO_END):
        print("BENCHMARK.json end_to_end differs from END_TO_END")
        ok = False
    if [w["name"] for w in spec["workloads"]] != [w.name for w in WORKLOADS]:
        print("BENCHMARK.json workloads differ from WORKLOADS")
        ok = False
    called = set()
    missing = set()
    for wl in WORKLOADS:
        run, result = run_workload(wl, DEFAULT_SEED, 0.0, True, smoke=True)
        ok &= result["correct"] and run.reference is not None and run.identical == run.compared > 0
        for p in run.passes:
            for doc in p.spans.values():
                called |= {".".join(name.split(".")[:2]) for name in span_stats(doc)}
                called |= {k.removesuffix("_calls") for k in doc["counts"]}
                missing |= set(doc["missing"])
        if run.syngen_spans:
            called |= set(span_stats(run.syngen_spans))
    never = sorted(f"{m}.{f}" for m, f, _ in TARGETS if f"{m}.{f}" not in called | missing)
    print(f"shims: {len(TARGETS)} targets, missing {sorted(missing)}, never called {never}")
    ok &= not never
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w.name for w in WORKLOADS] + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, checks and shims only")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"record the outputs for seed {DEFAULT_SEED} as the reference")
    args = ap.parse_args(argv)
    if not (SRC / "genonet" / "cli.py").is_file():
        print(f"error: {SRC / 'genonet' / 'cli.py'} not found; run from a genonet checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.smoke:
        return smoke()
    chosen = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    results = {}
    for wl in chosen:
        try:
            _run, results[wl.name] = run_workload(wl, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: {wl.name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
