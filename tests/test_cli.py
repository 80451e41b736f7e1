import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from genonet import classify, cli, genotype, ingest, latmin, predict
from genonet.cli import main
from genonet.graph import DirectedGraph
from genonet.ingest import load_dataset
from genonet.syngen import GenParams, TopicProfile, generate

import oracles


def run(*args):
    return main([str(a) for a in args])


def digest_dir(path: Path) -> dict[str, str]:
    out = {}
    for p in sorted(path.iterdir()):
        if p.is_file():
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def toy_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    (root / "edges.tsv").write_text("A\tB\nC\tB\n")
    (root / "events.tsv").write_text(
        "10\tA\t#x\n12\tC\t#x\n14\tC\t#y\n20\tB\t#x\n21\tB\t#x\n"
    )
    (root / "topics.tsv").write_text("x\tT\ny\tT\n")
    manifest = root / "dataset.manifest"
    manifest.write_text("edges = edges.tsv\nevents = events.tsv\ntopics = topics.tsv\n")
    return manifest


@pytest.fixture(scope="module")
def syn_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("syn")
    code = run(
        "syngen", "--out", out, "--seed", 5, "--users", 40, "--topics", 2,
        "--hashtags-per-topic", 4, "--cascades", 3, "--edge-prob", 0.25,
    )
    assert code == 0
    return out / "dataset.manifest"


def test_ingest_check(toy_manifest, tmp_path):
    assert run("ingest-check", "--manifest", toy_manifest, "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "ingest_check.json").read_text())
    assert doc["nodes"] == 3
    assert doc["edges"] == 2
    assert doc["events"] == 5
    assert "provenance" in doc


def test_genome_summary_row(toy_manifest, tmp_path):
    assert run("genome", "--manifest", toy_manifest, "--out", tmp_path) == 0
    lines = (tmp_path / "genome_summary.tsv").read_text().splitlines()
    rows = [l.split("\t") for l in lines if not l.startswith("#")]
    match = [
        r for r in rows
        if r[0] == "B" and r[1] == "T" and r[2] == "TIME"
    ]
    assert len(match) == 1
    assert float(match[0][3]) == 10.0
    assert int(match[0][4]) == 1


def test_backbone_outputs(toy_manifest, tmp_path):
    assert run("backbone", "--manifest", toy_manifest, "--out", tmp_path) == 0
    body = [
        l for l in (tmp_path / "backbone_T.tsv").read_text().splitlines()
        if not l.startswith("#")
    ]
    assert body[0] == "topic\tfollowee\tfollower\tweight"
    assert "T\tA\tB\t1" in body and "T\tC\tB\t1" in body
    report = json.loads((tmp_path / "backbone_report_T.json").read_text())
    assert report["jaccard"] == 1.0


def test_classify_unknown_metric_exits_1(toy_manifest, tmp_path, capsys):
    code = run(
        "classify", "--manifest", toy_manifest, "--out", tmp_path / "out",
        "--metric", "NOPE",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "TIME" in err and "LOG-LAT" in err
    assert not (tmp_path / "out").exists()  # rejected before any work


def test_classify_sizes_require_seed(syn_manifest, tmp_path):
    code = run(
        "classify", "--manifest", syn_manifest, "--out", tmp_path / "out",
        "--metric", "TIME", "--ensemble-sizes", "1,2",
    )
    assert code == 1
    assert not (tmp_path / "out").exists()  # rejected before any work


@pytest.mark.parametrize(
    "flags",
    [("classify", "--repetitions", 0, "--ensemble-sizes", "1,2"),
     ("classify", "--repetitions", -1, "--ensemble-sizes", "1,2"),
     ("classify", "--ensemble-sizes", "0,2,4"),
     ("classify", "--ensemble-sizes", "1,-2"),
     ("syngen", "--users", 0),
     ("syngen", "--topics", 0),
     ("syngen", "--hashtags-per-topic", 0),
     ("syngen", "--attach-count", 0)],
)
def test_classify_bad_sizes_or_repetitions_exit_1(syn_manifest, tmp_path, capsys, flags):
    """A count below 1 is a usage error, for classify and syngen alike."""
    command, *rest = flags
    common = {
        "classify": ("--manifest", syn_manifest, "--metric", "TIME"),
        "syngen": (),
    }[command]
    code = run(command, *common, "--out", tmp_path, "--seed", 7, *rest)
    assert code == 1
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["genome", "backbone", "latmin"])
@pytest.mark.parametrize("workers", ["0", "-3", "two", "2"])
def test_bad_workers_exits_1(syn_manifest, tmp_path, capsys, command, workers):
    """--workers is no longer an option: any value is an unknown argument."""
    extra = ("--topic", "t0") if command == "latmin" else ()
    code = run(
        command, "--manifest", syn_manifest, "--out", tmp_path / "out",
        "--workers", workers, *extra,
    )
    assert code == 1
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any work


def test_import_loads_no_scipy():
    """Start-up cost: importing the CLI loads no scipy module."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import genonet.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_main_in_process_leaves_the_collector_alone(toy_manifest, tmp_path):
    """Calling ``main`` in-process, as tests and traced runs do, neither
    switches the cyclic collector off nor freezes any object."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert run("genome", "--manifest", toy_manifest, "--out", tmp_path) == 0
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_entry_runs_without_the_collector_and_freezes(toy_manifest, tmp_path, monkeypatch):
    """The process entry runs the command with the collector off and
    freezes every object before it exits with the command's code."""
    argv = ["genonet", "genome", "--manifest", str(toy_manifest), "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    collecting = []
    monkeypatch.setattr(cli, "main", lambda: collecting.append(gc.isenabled()) or main())
    try:
        with pytest.raises(SystemExit) as done:
            cli.entry()
        assert done.value.code == 0 and collecting == [False]
        assert not gc.isenabled() and gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        gc.enable()
    assert (tmp_path / "genome_summary.tsv").is_file()


def test_classify_loads_no_scipy(syn_manifest, tmp_path):
    """classify, logistic fits included, runs without importing scipy."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["classify", "--manifest", str(syn_manifest), "--out", str(tmp_path),
            "--metric", "LAT,TIME", "--ensemble-sizes", "1,2,4", "--seed", "3"]
    probe = (
        f"import genonet.cli, sys; code = genonet.cli.main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0 []"
    assert (tmp_path / "logistic_fits.json").exists()


@pytest.mark.parametrize("command", [
    ("ingest-check",), ("genome",), ("backbone",),
    ("latmin", "--topic", "t0", "--strict"), ("latmin", "--topic", "t0", "--permissive"),
    ("predict",),
    ("classify", "--metric", "LAT,TIME", "--ensemble-sizes", "1,2,4", "--seed", "3"),
    ("syngen", "--seed", "5", "--users", "40", "--graph-model", "uniform-random"),
    ("syngen", "--seed", "5", "--users", "40", "--graph-model", "preferential-attachment",
     "--attach-count", "3"),
])
def test_commands_load_no_numpy_ma(syn_manifest, tmp_path, command):
    """Start-up cost: these commands run without importing ``numpy.ma``,
    which plain ``np.unique``, ``np.union1d``, ``np.intersect1d`` and
    ``np.median`` load, and ``np.isin`` does on large inputs."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    manifest = ("--manifest", str(syn_manifest)) if command[0] != "syngen" else ()
    argv = [*command, *manifest, "--out", str(tmp_path)]
    probe = (
        f"import genonet.cli, sys; code = genonet.cli.main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0 []"


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 200000])
def test_input_digest_equals_hashlib(tmp_path, size):
    """The provenance digest is the file's SHA-256 on either side of the
    64 KiB read size."""
    body = random.Random(size).randbytes(size)
    path = tmp_path / "input.tsv"
    path.write_bytes(body)
    assert cli._sha256_file(path) == hashlib.sha256(body).hexdigest()


@pytest.mark.parametrize("command", [
    ("ingest-check",), ("genome",), ("backbone",), ("predict",),
    ("latmin", "--topic", "t0", "--strict"), ("latmin", "--topic", "t0", "--permissive"),
    ("report",),
])
def test_commands_map_no_openssl(syn_manifest, tmp_path, command):
    """Start-up cost: these commands hash their inputs without importing
    ``_hashlib``, which maps OpenSSL's libcrypto.  classify and syngen are
    left out: ``numpy.random`` imports it for them."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    manifest = ("--manifest", str(syn_manifest)) if command[0] != "report" else ()
    if command[0] == "report":  # an output for report to hash
        (tmp_path / "genome_summary.tsv").write_text("topic\tpairs\nt0\t3\n")
    argv = [*command, *manifest, "--out", str(tmp_path)]
    probe = (
        f"import genonet.cli, sys; code = genonet.cli.main({argv!r}); "
        "print(code, '_hashlib' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0 False"


_LOADED_BY_ALL = {"genonet", "genonet.cli", "genonet.errors", "genonet.ingest"}


@pytest.mark.parametrize("command, loads", [
    (("ingest-check",), ()),
    (("genome",), ("genotype",)),
    (("backbone",), ("graph", "backbone")),
    (("classify", "--metric", "LAT,TIME", "--ensemble-sizes", "1,2,4", "--seed", "3"),
     ("genotype", "classify")),
    (("predict",), ("graph", "backbone", "predict")),
    (("latmin", "--topic", "t0", "--permissive"), ("genotype", "graph", "backbone", "latmin")),
    (("syngen", "--seed", "5", "--users", "12"), ("syngen",)),
    (("report",), ()),
], ids=["ingest-check", "genome", "backbone", "classify", "predict", "latmin", "syngen", "report"])
def test_commands_load_only_their_modules(syn_manifest, tmp_path, command, loads):
    """Start-up cost: a command imports only the genonet modules it runs,
    and numpy's OpenBLAS starts no thread pool unless the caller asks for
    one with ``OPENBLAS_NUM_THREADS``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    manifest = ("--manifest", str(syn_manifest)) if command[0] not in ("syngen", "report") else ()
    argv = [*command, *manifest, "--out", str(tmp_path)]
    probe = (
        f"import genonet.cli, json, os, sys; code = genonet.cli.main({argv!r}); "
        "status = '/proc/self/status'; "
        "threads = [int(l.split()[1]) for l in open(status) if l.startswith('Threads:')] "
        "if os.path.exists(status) else []; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'genonet'); "
        "print(json.dumps([code, loaded, threads]))"
    )
    want = sorted(_LOADED_BY_ALL | {"genonet." + name for name in loads})
    callers = [({}, 1)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) >= 2:
        callers.append(({"OPENBLAS_NUM_THREADS": "2"}, 2))  # the caller's setting wins
    for extra, threads in callers:
        done = subprocess.run([sys.executable, "-c", probe], env={**env, **extra},
                              capture_output=True, text=True, check=True)
        code, modules, seen = json.loads(done.stdout)
        assert (code, modules) == (0, want)
        assert seen in ([], [threads])


def test_missing_manifest_exits_2(tmp_path):
    code = run("genome", "--manifest", tmp_path / "nope.manifest", "--out", tmp_path)
    assert code == 2


def _write_dataset(root: Path, edges: str, events: str, topics: str) -> Path:
    (root / "edges.tsv").write_text(edges)
    (root / "events.tsv").write_text(events)
    (root / "topics.tsv").write_text(topics)
    manifest = root / "m"
    manifest.write_text("edges = edges.tsv\nevents = events.tsv\ntopics = topics.tsv\n")
    return manifest


_ALL_COMMANDS = [("ingest-check",), ("genome",), ("backbone",), ("classify",), ("predict",),
                 ("latmin", "--topic", "T")]


@pytest.mark.parametrize("edges, events, counts", [
    ("", "1\ta\t#x\n2\tb\t#x\n", {"nodes": 0, "edges": 0, "exposed_pairs": 0}),
    ("a\tb\nb\tc\n", "", {"events": 0, "users_posting": 0, "hashtags_seen": 0,
                           "adopted_pairs": 0, "skipped_event_lines": 0}),
    ("a\tb\nb\tc\n", "1\ta\t#\n2\tb\t,#\n", {"events": 0, "users_posting": 0, "hashtags_seen": 0,
                                                  "adopted_pairs": 0, "skipped_event_lines": 2}),
], ids=["empty-edges", "empty-events", "all-event-lines-skipped"])
def test_empty_datasets(tmp_path, capsys, edges, events, counts):
    """An empty edges or events file, or an events file whose every line
    is skipped, runs every command; only latmin stops, on its empty
    backbone."""
    manifest = _write_dataset(tmp_path, edges, events, "x\tT\ny\tT\n")
    for command in _ALL_COMMANDS:
        code = run(*command, "--manifest", manifest, "--out", tmp_path / command[0])
        err = capsys.readouterr().err
        if command[0] == "latmin":
            assert code == 2 and "data error: backbone for topic 'T' is empty" in err
        else:
            assert (code, err) == (0, ""), command
    doc = json.loads((tmp_path / "ingest-check" / "ingest_check.json").read_text())
    assert {key: doc[key] for key in counts} == counts


def test_manifest_repeated_key_or_empty_value_exits_2(tmp_path, capsys):
    manifest = _write_dataset(tmp_path, "a\tb\n", "1\ta\t#x\n", "x\tT\n")
    for body, problem in [
        ("edges = edges.tsv\nevents = events.tsv\ntopics = topics.tsv\nevents = e2\n",
         "line 4: repeated manifest key 'events'"),
        ("edges = edges.tsv\nevents = \ntopics = topics.tsv\n",
         "line 2: empty value for manifest key 'events'"),
    ]:
        manifest.write_text(body)
        assert run("genome", "--manifest", manifest, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"data error: {problem}\n"


def test_parse_error_exits_2(tmp_path):
    manifest = _write_dataset(tmp_path, "a\ta\n", "", "")
    assert run("genome", "--manifest", manifest, "--out", tmp_path / "out") == 2


def test_time_above_int64_exits_2(tmp_path, capsys):
    manifest = _write_dataset(tmp_path, "a\tb\n", f"1\ta\t#x\n{2**63}\tb\t#x\n", "x\tT\n")
    assert run("genome", "--manifest", manifest, "--out", tmp_path / "out") == 2
    assert "data error: line 2: time 9223372036854775808 above 2^63-1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["edges.tsv", "events.tsv", "topics.tsv", "m"])
def test_undecodable_input_exits_2(tmp_path, capsys, name):
    manifest = _write_dataset(tmp_path, "a\tb\n", "1\ta\t#x\n2\tb\t#x\n", "x\tT\n")
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert run("genome", "--manifest", manifest, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path} is not UTF-8")


@pytest.mark.parametrize("name, body, problem", [
    ("bad.json", b'{"a": ', "is not JSON"),
    ("bad.json", b'{"a": "\xff"}', "is not UTF-8"),
    ("bad.tsv", b"a\t\xff\n", "is not UTF-8"),
])
def test_report_undecodable_output_exits_2(tmp_path, capsys, name, body, problem):
    (tmp_path / name).write_bytes(body)
    assert run("report", "--out", tmp_path) == 2
    assert capsys.readouterr().err.startswith(f"data error: {tmp_path / name} {problem}")


def test_classify_without_topics_exits_2(tmp_path, capsys):
    manifest = _write_dataset(tmp_path, "a\tb\n", "1\ta\t#x\n2\tb\t#x\n", "# no topics\n")
    assert run("classify", "--manifest", manifest, "--out", tmp_path / "out") == 2
    assert "data error: the topic map has no topics" in capsys.readouterr().err


def test_bad_flag_exits_1(tmp_path):
    assert run("latmin", "--out", tmp_path) == 1  # --manifest/--topic missing


@pytest.mark.parametrize("topic", ["news\0x", "news/sub", "n" * 300], ids=["nul", "slash", "long"])
def test_backbone_topic_that_cannot_name_a_file_exits_2(tmp_path, capsys, topic):
    """A topic that cannot be part of a file name stops backbone with exit
    2, naming it, before the topic listed ahead of it writes any file or
    ``--out`` is made."""
    manifest = _write_dataset(tmp_path, "a\tb\n", "1\ta\t#x\n2\tb\t#y\n",
                              f"x\tok\ny\t{topic}\n")
    out = tmp_path / "out"
    assert run("backbone", "--manifest", manifest, "--out", out) == 2
    assert f"data error: topic {topic!r} cannot name an output file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dataset, argv, code", [
    *(pytest.param("missing", command, 2, id=f"{command[0]}-missing-manifest")
      for command in _ALL_COMMANDS),
    pytest.param("syn", ("backbone", "--topic", "nope"), 2, id="backbone-unknown-topic"),
    pytest.param("syn", ("latmin", "--topic", "nope"), 2, id="latmin-unknown-topic"),
    pytest.param(None, ("syngen", "--edge-prob", 1.5), 1, id="syngen-edge-prob"),
    pytest.param(None, ("syngen", "--cascades", -1), 1, id="syngen-cascades"),
    pytest.param(None, ("syngen", "--users", 5, "--graph-model", "preferential-attachment",
                        "--attach-count", 5), 2, id="syngen-attach-count"),
])
def test_errors_leave_no_out_directory(syn_manifest, tmp_path, capsys, dataset, argv, code):
    """A command makes ``--out`` only after it has checked its inputs and
    computed every output, so a usage or data error leaves no directory."""
    extra = {
        "missing": ("--manifest", tmp_path / "nope.manifest"),
        "syn": ("--manifest", syn_manifest),
        None: ("--seed", 1),
    }[dataset]
    out = tmp_path / "out"
    assert run(*argv, *extra, "--out", out) == code
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


def test_unknown_topic_exits_2(syn_manifest, tmp_path):
    code = run(
        "latmin", "--manifest", syn_manifest, "--out", tmp_path,
        "--topic", "nope", "--k", 2,
    )
    assert code == 2


@pytest.mark.parametrize("mode", ["--strict", "--permissive"])
def test_latmin_solves_one_apsp(syn_manifest, tmp_path, monkeypatch, mode):
    calls = []
    apsp = latmin._apsp_matrix
    monkeypatch.setattr(latmin, "_apsp_matrix", lambda *a: calls.append(a) or apsp(*a))
    assert run("latmin", "--manifest", syn_manifest, "--out", tmp_path,
               "--topic", "t0", "--k", 2, mode) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command, extra", [
    ("ingest-check", ()), ("genome", ()), ("backbone", ()), ("classify", ("--metric", "TIME")),
    ("predict", ()), ("latmin", ("--topic", "t0", "--k", 2)),
])
def test_each_command_maps_topics_once(syn_manifest, tmp_path, monkeypatch, command, extra):
    """Each command looks up its hashtags' topics once, in the index, however
    many topics it works on."""
    calls = []
    topic_ids = ingest.TopicMap.topic_ids
    monkeypatch.setattr(ingest.TopicMap, "topic_ids",
                        lambda self, *a: calls.append(a) or topic_ids(self, *a))
    assert run(command, "--manifest", syn_manifest, "--out", tmp_path, *extra) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["--strict", "--permissive"])
def test_latmin_component_choice(tmp_path, mode):
    """Two 3-cycles tie in size, and in permissive mode so do their weakly
    connected components, each with a source that has no TIME mean.  The
    sorted member list picks the p-q-r component; its source s is dropped
    with its edge."""
    edges = "".join(f"{u}\t{v}\n" for u, v in
                    ("pq", "qr", "rp", "sp", "ab", "bc", "ca", "da"))
    events = "".join(
        f"{t}\t{u}\t#{h}\n"
        for a, b, c, src in ("abcd", "pqrs")
        for t, u, h in ((0, src, "x"), (1, a, "x"), (3, b, "x"), (10, c, "x"),
                        (0, c, "y"), (5, a, "y"))
    )
    manifest = _write_dataset(tmp_path, edges, events, "x\tT\ny\tT\n")
    out = tmp_path / "out"
    assert run("latmin", "--manifest", manifest, "--out", out, "--topic", "T",
               "--k", 2, mode) == 0
    summary = json.loads((out / "latmin_summary.json").read_text())
    assert (summary["component_nodes"], summary["component_edges"]) == (3, 3)
    rows = [line.split("\t") for line in (out / "latmin_trace.tsv").read_text().splitlines()[2:]]
    assert {row[2] for row in rows} <= {"p", "q", "r"}
    # TIME means: p (1 + 5) / 2 = 3, q 2, r 7
    assert [row[2] for row in rows if row[0] == "MaxLat"] == ["r", "p"]


def test_classify_prepares_loo_once_per_metric(syn_manifest, tmp_path, monkeypatch):
    calls = []
    prepare = classify.prepare_loo
    monkeypatch.setattr(classify, "prepare_loo",
                        lambda metric, *rest: calls.append(metric) or prepare(metric, *rest))
    assert run("classify", "--manifest", syn_manifest, "--out", tmp_path,
               "--metric", "LAT,TIME", "--ensemble-sizes", "1,2,4", "--seed", 3) == 0
    assert len(calls) == 2
    calls.clear()
    assert run("classify", "--manifest", syn_manifest, "--out", tmp_path / "dup",
               "--metric", "LAT,TIME,lat") == 0
    assert calls == [genotype.MetricKind.LAT, genotype.MetricKind.TIME]


@pytest.mark.parametrize("command", ["genome", "classify"])
def test_one_metric_pass_per_pair(syn_manifest, tmp_path, monkeypatch, command):
    """genome and classify with every metric compute each pair's row once,
    in one timeline count."""
    _net, events, topics = load_dataset(syn_manifest)
    log, topic_of = oracles.named(events), oracles.assignment(topics)
    pairs = len({(e.user, e.hashtag) for e in log.events if e.hashtag in topic_of})
    rows, counts = [], []
    build, lat_counts = genotype.pair_metrics, genotype._lat_counts
    monkeypatch.setattr(genotype, "pair_metrics",
                        lambda *args: rows.append(build(*args)) or rows[-1])
    monkeypatch.setattr(genotype, "_lat_counts",
                        lambda *args: counts.append(1) or lat_counts(*args))
    assert run(command, "--manifest", syn_manifest, "--out", tmp_path) == 0
    assert len(rows) == len(counts) == 1
    assert len(rows[0].user) == pairs > 0


def test_latmin_memory_guard_exits_2(syn_manifest, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(latmin, "MEMORY_BUDGET_BYTES", 1000)
    assert run("latmin", "--manifest", syn_manifest, "--out", tmp_path,
               "--topic", "t0", "--k", 2) == 2
    err = capsys.readouterr().err
    assert "data error: latency graph of n=" in err and "over the budget of 1,000 bytes" in err


def test_full_pipeline_deterministic(syn_manifest, tmp_path):
    """Re-running every command with the same seed reproduces byte-identical
    outputs."""
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert run("ingest-check", "--manifest", syn_manifest, "--out", out) == 0
        assert run("genome", "--manifest", syn_manifest, "--out", out) == 0
        assert run("backbone", "--manifest", syn_manifest, "--out", out) == 0
        assert run("classify", "--manifest", syn_manifest, "--out", out,
                   "--metric", "TIME,N-USES", "--ensemble-sizes", "1,3",
                   "--repetitions", 2, "--seed", 7) == 0
        assert run("predict", "--manifest", syn_manifest, "--out", out,
                   "--direction", "influencer") == 0
        assert run("latmin", "--manifest", syn_manifest, "--out", out,
                   "--topic", "t0", "--k", 2, "--permissive") == 0
        assert run("report", "--out", out) == 0
    d1, d2 = digest_dir(outs[0]), digest_dir(outs[1])
    assert d1 == d2
    assert "report.json" in d1


def test_syngen_deterministic(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run("syngen", "--out", out, "--seed", 11, "--users", 20,
                   "--topics", 2, "--hashtags-per-topic", 3, "--cascades", 2) == 0
    assert digest_dir(outs[0]) == digest_dir(outs[1])


@pytest.mark.parametrize("body, code", [
    ('{"latency_mean": [5, 15]}', 1),
    ("[1, 2]", 1),
    ("{bad", 1),
    ('[{"latency_mean": 5}, {}]', 1),
    ('[{"adoption_prob": [0.3, 0.9, 1]}, {}]', 1),
    ('[{"latency_mean": [5, 15], "latency_spread": 3}, {}]', 1),
    ('[{"latency_jitter": Infinity}, {}]', 1),
    ('[{"adoption_prob": [0.9, 0.3]}, {}]', 2),
    ('[{"repeat_horizon": 1000000000, "repeat_rate": [0.5, 0.5]}, {}]', 2),
])
def test_syngen_malformed_profiles_file(tmp_path, capsys, body, code):
    """A malformed profiles file is a usage error naming the file; an
    out-of-range value is still a data error."""
    path = tmp_path / "profiles.json"
    path.write_text(body)
    assert run("syngen", "--out", tmp_path / "out", "--seed", 1, "--topics", 2,
               "--profiles-file", path) == code
    err = capsys.readouterr().err
    assert "internal error" not in err
    if code == 1:
        assert str(path) in err
    assert not (tmp_path / "out").exists()  # rejected before anything is written


def test_syngen_profiles_file_matches_generate(tmp_path):
    profiles = (
        TopicProfile(latency_mean=(2.0, 4.0), latency_jitter=1.5, adoption_prob=(0.5, 1.0),
                     repeat_rate=(0.1, 0.2), repeat_horizon=3),
        TopicProfile(latency_mean=(20, 30)),
    )
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([
        {"latency_mean": [2.0, 4.0], "latency_jitter": 1.5, "adoption_prob": [0.5, 1.0],
         "repeat_rate": [0.1, 0.2], "repeat_horizon": 3},
        {"latency_mean": [20, 30]},
    ]))
    assert run("syngen", "--out", tmp_path / "cli", "--seed", 4, "--users", 30, "--topics", 2,
               "--cascades", 2, "--profiles-file", path) == 0
    generate(GenParams(n_users=30, seed=4, edge_prob=0.08, n_topics=2, hashtags_per_topic=4,
                       cascades_per_hashtag=2, topic_profiles=profiles)).write(tmp_path / "api")
    written = digest_dir(tmp_path / "api")
    assert {k: v for k, v in digest_dir(tmp_path / "cli").items() if k in written} == written


def test_commands_do_not_touch_inputs(syn_manifest, tmp_path):
    before = digest_dir(syn_manifest.parent)
    assert run("genome", "--manifest", syn_manifest, "--out", tmp_path) == 0
    assert digest_dir(syn_manifest.parent) == before


def test_predict_builds_no_graph_per_hashtag(syn_manifest, tmp_path, monkeypatch):
    """predict builds no ``DirectedGraph`` at all, and scores and ranks
    each (direction, predictor) once."""
    graphs, scored, ranked = [], [], []
    score, auc = predict.score_candidates, predict.roc_auc
    build = DirectedGraph.from_keys
    monkeypatch.setattr(DirectedGraph, "from_keys", classmethod(
        lambda cls, *args, **kw: graphs.append(1) or build(*args, **kw)))
    monkeypatch.setattr(predict, "score_candidates",
                        lambda kind, *rest: scored.append(kind) or score(kind, *rest))
    monkeypatch.setattr(predict, "roc_auc", lambda *args: ranked.append(1) or auc(*args))
    assert run("predict", "--manifest", syn_manifest, "--out", tmp_path,
               "--direction", "both") == 0
    rows = (tmp_path / "predictor_auc.tsv").read_text().splitlines()
    assert {r.split("\t")[0] for r in rows[2:]} == {"influencer", "adopter"}
    assert len(graphs) == 0
    assert len(ranked) == 12 and sorted(scored, key=list(predict.PredictorKind).index) == [
        kind for kind in predict.PredictorKind for _ in range(2)
    ]
