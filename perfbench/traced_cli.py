"""Run one ``genonet.cli`` command with timing shims on the layer functions.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

The shims live here, outside the package: each target function is
replaced by a wrapper in every ``genonet`` module namespace that binds
it, so ``from .graph import pagerank`` call sites are covered too.  A
timed target records a span (name, start, end, parent); a count-only
target, used for functions called once per item, only bumps a counter.
Spans and counters stay in memory and are written to SPANS_JSON when the
command returns.  A target that no longer exists is listed as missing.
The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, function, kind); kind is "span" or "count".
TARGETS = (
    ("cli", "cmd_ingest_check", "span"),
    ("cli", "cmd_genome", "span"),
    ("cli", "cmd_backbone", "span"),
    ("cli", "cmd_classify", "span"),
    ("cli", "cmd_predict", "span"),
    ("cli", "cmd_latmin", "span"),
    ("cli", "cmd_syngen", "span"),
    ("ingest", "load_dataset", "span"),
    ("ingest", "build_adoption_index", "span"),
    ("genotype", "build_genome", "span"),
    ("genotype", "hashtag_mean_lats", "span"),
    ("genotype", "compute_metric", "count"),
    ("genotype", "write_genome_values", "span"),
    ("genotype", "write_genome_summary", "span"),
    ("backbone", "extract_backbone", "span"),
    ("backbone", "compare_with_follower", "span"),
    ("backbone", "exclude_hashtag", "span"),
    ("backbone", "write_backbone_tsv", "span"),
    ("graph", "pagerank", "span"),
    ("graph", "betweenness_centrality", "span"),
    ("graph", "strongly_connected_components", "span"),
    ("graph", "weakly_connected_components", "span"),
    ("graph", "kendall_tau", "span"),
    ("classify", "leave_one_out", "span"),
    ("classify", "accuracy_curve", "span"),
    ("classify", "fit_logistic", "span"),
    ("classify", "pair_metric_values", "span"),
    ("classify", "write_error_tables", "span"),
    ("classify", "write_accuracy_rows", "span"),
    ("predict", "build_instances", "span"),
    ("predict", "evaluate", "span"),
    ("predict", "score_candidates", "count"),
    ("predict", "roc_auc", "count"),
    ("predict", "write_evaluation_tsv", "span"),
    ("latmin", "minimize", "span"),
    ("latmin", "average_network_latency", "span"),
    ("latmin", "count_reachable_pairs", "span"),
    ("latmin", "write_trace_tsv", "span"),
    ("syngen", "generate", "span"),
)


def _span_suffix(func: str, args: tuple) -> str:
    """Split ``latmin.minimize`` spans by heuristic (its third argument)."""
    if func == "minimize" and len(args) >= 3:
        return "." + str(getattr(args[2], "value", args[2]))
    return ""


def _observe(name: str, result, counts: dict) -> None:
    """Input-size counters read off a layer's return value."""
    if name == "ingest.load_dataset":
        counts["ingest.events"] = len(result[1].events)
    elif name == "ingest.build_adoption_index":
        counts["ingest.adopted_pairs"] = len(result.first_use)
    elif name == "predict.build_instances":
        counts["predict.instances"] = counts.get("predict.instances", 0) + len(result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def span_wrapper(self, name: str, func_name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name + _span_suffix(func_name, args), time.perf_counter(),
                          None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            _observe(name, result, counts)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + "_calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "genonet" or n.startswith("genonet."))]
        for mod_name, func_name, kind in TARGETS:
            mod = sys.modules.get("genonet." + mod_name)
            original = getattr(mod, func_name, None) if mod is not None else None
            name = f"{mod_name}.{func_name}"
            if not callable(original):
                self.missing.append(name)
                continue
            if kind == "span":
                wrapper = self.span_wrapper(name, func_name, original)
            else:
                wrapper = self.count_wrapper(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    import genonet.cli  # noqa: E402  (the import itself is measured)

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = 3
    try:
        code = genonet.cli.main(cli_args)
    finally:
        doc = {
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "missing": tracer.missing,
            "exit": code,
        }
        out_path.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
