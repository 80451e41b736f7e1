"""Command-line pipelines over a dataset manifest.

Every command reads the three dataset files named by ``--manifest``,
writes only into ``--out``, and embeds the input digests (plus the seed,
where sampling is involved) into each output for provenance.  A handler
checks its arguments, loads and computes, and returns its outputs;
``main`` alone makes ``--out`` and writes them, so an error leaves no
``--out`` behind.  Outputs are byte-identical across re-runs with the
same inputs and seed.

Exit codes: 0 success, 1 usage/config error, 2 data/parse error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

# OpenBLAS starts a pool of spinning threads when numpy is imported, and no
# command uses them.  No output depends on this: the one BLAS call in
# genonet is fit_logistic's np.dot over a few points, which OpenBLAS runs
# on one thread at any setting.  A value set by the caller still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

# each handler imports the modules it runs, so a command loads only those
from .errors import DataError, ParseError  # noqa: E402
from .ingest import build_adoption_index, load_dataset, load_manifest, open_utf8  # noqa: E402

if TYPE_CHECKING:
    from . import genotype as gt
    from . import syngen as sg

    # a command's outputs: file name -> JSON document, or TSV body writer
    Outputs = dict[str, dict | Callable[[TextIO], None]]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _positive_int(raw: str) -> int:
    if int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {raw}")
    return int(raw)


def _nonnegative_int(raw: str) -> int:
    if int(raw) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {raw}")
    return int(raw)


def _probability(raw: str) -> float:
    if not 0.0 <= float(raw) <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {raw}")
    return float(raw)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_digests(manifest: Path) -> dict[str, str]:
    paths = load_manifest(manifest)
    return {key: _sha256_file(Path(p)) for key, p in sorted(paths.items())}


# tag of the removed --workers option; pinned output digests include its bytes
_ANY_WORKERS = {"workers": "any"}


def _provenance(args) -> dict[str, object]:
    prov: dict[str, object] = {"command": args.command, **args.tags}
    if getattr(args, "manifest", None):
        prov["inputs"] = _input_digests(Path(args.manifest))
    if getattr(args, "seed", None) is not None:
        prov["seed"] = args.seed
    if getattr(args, "permissive", None) is not None:
        prov["mode"] = "permissive" if args.permissive else "strict"
    return prov


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _write_outputs(args, outputs: Outputs) -> None:
    """Make ``--out`` and write each output there, stamped with the provenance."""
    prov = _provenance(args)
    out = _outdir(args)
    for name, body in outputs.items():
        with (out / name).open("w", encoding="utf-8") as fh:
            if isinstance(body, dict):
                json.dump({**body, "provenance": prov}, fh, sort_keys=True, indent=1)
                fh.write("\n")
            else:
                fh.write("# provenance: " + json.dumps(prov, sort_keys=True) + "\n")
                body(fh)


def _load(args):
    net, events, topics = load_dataset(Path(args.manifest))
    return build_adoption_index(events, net, topics)


# --- commands -------------------------------------------------------------


def cmd_ingest_check(args) -> Outputs:
    net, events, topics = load_dataset(Path(args.manifest))
    index = build_adoption_index(events, net, topics)
    unmapped = np.flatnonzero(index.hashtag_topic == len(index.topics))
    return {"ingest_check.json": {
        "nodes": len(net.nodes),
        "edges": len(net.keys),
        "events": len(events.time),
        "users_posting": len(events.users),
        "hashtags_seen": len(events.hashtags),
        "hashtags_mapped": len(topics.hashtags),
        "unmapped_hashtags": [index.hashtags[i] for i in unmapped.tolist()],
        "skipped_event_lines": events.skipped_lines,
        "adopted_pairs": len(index.first_use),
        "exposed_pairs": index.exposed_pairs,
        "topics": list(index.topics),
    }}


def cmd_genome(args) -> Outputs:
    from . import genotype as gt

    genome = gt.build_genome(_load(args))
    return {
        "genome_values.tsv": partial(gt.write_genome_values, genome),
        "genome_summary.tsv": partial(gt.write_genome_summary, genome),
    }


def cmd_backbone(args) -> Outputs:
    from . import backbone as bb

    index = _load(args)
    wanted = [args.topic] if args.topic else list(index.topics)
    out = Path(args.out)  # made only once every output is computed: ask its nearest ancestor
    longest = os.pathconf(next(d for d in (out, *out.parents) if d.exists()), "PC_NAME_MAX")
    for t in wanted:  # each topic names two files, so all are checked first
        index.topic_id(t)
        if "/" in t or "\0" in t or len(f"backbone_report_{t}.json".encode()) > longest:
            raise DataError(f"topic {t!r} cannot name an output file")
    backbones = {t: bb.extract_backbone(t, index) for t in wanted}
    outputs: Outputs = {}
    for t, b in backbones.items():
        outputs[f"backbone_{t}.tsv"] = partial(bb.write_backbone_tsv, b)
        outputs[f"backbone_report_{t}.json"] = (
            bb.compare_with_follower(b, index).to_dict() if len(b.keys)
            else {"topic": t, "empty": True}
        )
    if len(wanted) >= 2:
        overlap = bb.cross_topic_overlap([backbones[t] for t in wanted])

        def body(fh):
            fh.write("topic\t" + "\t".join(overlap.topics) + "\n")
            for t, row in zip(overlap.topics, overlap.values):
                fh.write(t + "\t" + "\t".join(repr(v) for v in row) + "\n")

        outputs["overlap_matrix.tsv"] = body
    return outputs


def _parse_metrics(raw: str | None) -> list[gt.MetricKind]:
    from . import genotype as gt

    if not raw:
        return list(gt.MetricKind)
    try:
        # first occurrence of each metric: a repeat would only redo its LOO
        return list(dict.fromkeys(gt.MetricKind.from_tag(tag) for tag in raw.split(",")))
    except DataError as exc:
        raise UsageError(str(exc)) from exc


def cmd_classify(args) -> Outputs:
    from . import classify as cl
    from . import genotype as gt

    metrics = _parse_metrics(args.metric)
    sizes = None
    if args.ensemble_sizes:
        try:
            sizes = [_positive_int(s) for s in args.ensemble_sizes.split(",")]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"bad --ensemble-sizes: {exc}") from exc
        if args.seed is None:
            raise UsageError("--seed is required with --ensemble-sizes")
    pairs = gt.pair_metrics(_load(args))
    results: dict[str, cl.LeaveOneOutResult] = {}
    curves: dict[str, cl.AccuracyCurve] = {}
    fits: dict[str, dict] = {}
    for metric in metrics:
        data = cl.prepare_loo(metric, pairs)
        results[metric.value] = cl.leave_one_out(data)
        if sizes:
            curve = cl.accuracy_curve(data, sizes, args.repetitions, args.seed)
            curves[metric.value] = curve
            if len(curve.points) >= 3:
                fit = cl.fit_logistic(curve.points)
                fits[metric.value] = {
                    "l": fit.l, "k": fit.k, "x0": fit.x0, "residual": fit.residual,
                }
    outputs: Outputs = {
        f"error_table_{split}.tsv": partial(cl.write_error_tables, results, pairs.topics, split)
        for split in ("test", "train")
    }
    skipped = {m: list(r.skipped) for m, r in results.items() if r.skipped}
    outputs["classify_summary.json"] = {"skipped_hashtags": skipped}
    if sizes:
        outputs["accuracy_curves.tsv"] = partial(cl.write_accuracy_rows, curves)
        outputs["logistic_fits.json"] = {"fits": fits}
    return outputs


def cmd_predict(args) -> Outputs:
    from . import predict as pr

    ctx = pr.PredictionContext(_load(args))
    results = []
    for direction in pr.Direction:
        if args.direction in ("both", direction.value):
            results += pr.evaluate(direction, pr.build_instances(direction, ctx), ctx)
    return {"predictor_auc.tsv": partial(pr.write_evaluation_tsv, results)}


def cmd_latmin(args) -> Outputs:
    from . import backbone as bb
    from . import genotype as gt
    from . import latmin as lm

    index = _load(args)
    user, mean = gt.node_topic_latency(index, args.topic)  # checks the topic
    b = bb.extract_backbone(args.topic, index)
    if not len(b.keys):
        raise DataError(f"backbone for topic {args.topic!r} is empty")
    graph, lat = lm.latency_component(b.graph, user, mean, strict=not args.permissive)
    k = min(args.k, graph.n)
    if k < 1:
        raise DataError("latency component too small to target")
    state = lm.prepare(graph, lat, strict=not args.permissive)
    traces = [lm.minimize(state, k, h) for h in lm.Heuristic]
    return {
        "latmin_trace.tsv": partial(lm.write_trace_tsv, traces, graph, index.users),
        "latmin_summary.json": {
            "topic": args.topic,
            "component_nodes": graph.n,
            "component_edges": len(graph.indices),
            "k": k,
            "original_avg_latency": state.base_avg,
            "reachable_pairs": int(state.denom),
        },
    }


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON number of ``kinds``; booleans, NaN and infinities are not."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _is_range(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


# the TopicProfile fields a profiles file may set, with the check of each value
_PROFILE_FIELDS = {
    "latency_mean": _is_range, "latency_jitter": _is_number, "adoption_prob": _is_range,
    "repeat_rate": _is_range, "repeat_horizon": lambda value: _is_number(value, int),
}


def _parse_profiles(path: str | None, n_topics: int) -> tuple[sg.TopicProfile, ...] | None:
    """One ``TopicProfile`` per topic from a JSON list of objects; each
    object sets any of ``_PROFILE_FIELDS``, and the rest keep their defaults."""
    from . import syngen as sg

    if not path:
        return None
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise UsageError(f"profiles file {path} is not JSON: {exc}") from exc
    if not isinstance(raw, list) or len(raw) != n_topics:
        raise UsageError(f"profiles file {path} must hold a list of {n_topics} objects")
    for i, entry in enumerate(raw):
        where = f"profiles file {path}, entry {i}"
        if not isinstance(entry, dict):
            raise UsageError(f"{where}: expected an object, got {entry!r}")
        for key, value in entry.items():
            if key not in _PROFILE_FIELDS:
                raise UsageError(f"{where}: unknown key {key!r}")
            if not _PROFILE_FIELDS[key](value):
                raise UsageError(f"{where}: bad {key} {value!r}")
    return tuple(
        sg.TopicProfile(**{k: tuple(v) if isinstance(v, list) else v for k, v in entry.items()})
        for entry in raw
    )


def cmd_syngen(args) -> Outputs:
    from . import syngen as sg

    profiles = _parse_profiles(args.profiles_file, args.topics)
    dataset = sg.generate(sg.GenParams(
        n_users=args.users,
        seed=args.seed,
        graph_model=args.graph_model,
        edge_prob=args.edge_prob,
        attach_count=args.attach_count,
        n_topics=args.topics,
        hashtags_per_topic=args.hashtags_per_topic,
        cascades_per_hashtag=args.cascades,
        topic_profiles=profiles,
    ))  # validates the parameters before anything is written
    out = _outdir(args)
    dataset.write(out)  # the dataset files carry no provenance
    return {"syngen_config.json": {
        "users": args.users,
        "graph_model": args.graph_model,
        "edge_prob": args.edge_prob,
        "attach_count": args.attach_count,
        "topics": args.topics,
        "hashtags_per_topic": args.hashtags_per_topic,
        "cascades_per_hashtag": args.cascades,
        "outputs": {
            name: _sha256_file(out / name)
            for name in ("edges.tsv", "events.tsv", "topics.tsv", "truth.json")
        },
    }}


def cmd_report(args) -> Outputs:
    out = Path(args.out)
    entries: dict[str, dict] = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        if not path.is_file() or path.name == "report.json":
            continue
        entry: dict[str, object] = {
            "sha256": _sha256_file(path),
            "bytes": path.stat().st_size,
        }
        if path.suffix == ".json":
            with open_utf8(path) as fh:
                try:
                    entry["content"] = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path} is not JSON: {exc}") from exc
        elif path.suffix == ".tsv":
            with open_utf8(path) as fh:
                entry["rows"] = sum(
                    1 for line in fh if line.strip() and not line.startswith("#")
                )
        entries[path.name] = entry
    return {"report.json": {"outputs": entries}}


# --- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="genonet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_manifest=True, tags=None):
        p = sub.add_parser(name)
        # tags: fixed provenance entries of the command's outputs
        p.set_defaults(func=func, command=name, tags=tags or {})
        if needs_manifest:
            p.add_argument("--manifest", required=True, help="dataset manifest path")
        p.add_argument("--out", required=True, help="output directory")
        return p

    add("ingest-check", cmd_ingest_check)

    add("genome", cmd_genome, tags=_ANY_WORKERS)

    p = add("backbone", cmd_backbone, tags=_ANY_WORKERS)
    p.add_argument("--topic", default=None)

    p = add("classify", cmd_classify)
    p.add_argument("--metric", default=None, help="comma-separated metric tags")
    p.add_argument("--ensemble-sizes", default=None, help="e.g. 1,4,16,64")
    p.add_argument("--repetitions", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=None)

    p = add("predict", cmd_predict)
    p.add_argument(
        "--direction", choices=("influencer", "adopter", "both"), default="both"
    )

    p = add("latmin", cmd_latmin, tags=_ANY_WORKERS)
    p.add_argument("--topic", required=True)
    p.add_argument("--k", type=_positive_int, default=5)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="permissive", action="store_false")
    mode.add_argument("--permissive", dest="permissive", action="store_true")
    p.set_defaults(permissive=False)

    p = add("syngen", cmd_syngen, needs_manifest=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--users", type=_positive_int, default=60)
    p.add_argument("--topics", type=_positive_int, default=2)
    p.add_argument("--hashtags-per-topic", type=_positive_int, default=4)
    p.add_argument("--cascades", type=_nonnegative_int, default=2)
    # syngen.UNIFORM and syngen.PREFERENTIAL, spelled out so that parsing
    # any command does not import the generator
    p.add_argument(
        "--graph-model",
        choices=("uniform-random", "preferential-attachment"),
        default="uniform-random",
    )
    p.add_argument("--edge-prob", type=_probability, default=0.08)
    p.add_argument("--attach-count", type=_positive_int, default=1)
    p.add_argument("--profiles-file", default=None)

    add("report", cmd_report, needs_manifest=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_outputs(args, args.func(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation / bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
