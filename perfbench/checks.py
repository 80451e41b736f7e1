"""Output checks for the benchmark's CLI commands.

Every command output must parse: JSON files load and carry a
``provenance`` object; TSV files open with a ``# provenance: {...}``
line whose input digests match the dataset, followed by rows of one
field count.  With the default seed the outputs are also compared with
the committed reference outputs of the seed commit: tokens that are not
floats (node ids, picks, topics, counts, headers, digests) must match
exactly, and floats must agree within ``REL_TOL``.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9  # floor for values that should be zero

_TOKEN = re.compile(r'[^\s,:{}\[\]"]+')
_FLOAT = re.compile(r"^[-+]?(\d+\.\d*|\.\d+|\d+(\.\d*)?[eE][-+]?\d+|inf|nan|Infinity|NaN)$")


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def parse_problems(files: dict[str, bytes], input_digests: dict[str, str]) -> list[str]:
    """Why the outputs fail to parse; empty when they all parse."""
    problems = []
    if not files:
        return ["no output files"]
    for name, raw in files.items():
        try:
            text = raw.decode("utf-8")
            if name.endswith(".json"):
                prov = json.loads(text)["provenance"]
            elif name.endswith(".tsv"):
                head, _, body = text.partition("\n")
                if not head.startswith("# provenance: "):
                    raise ValueError("missing provenance line")
                prov = json.loads(head[len("# provenance: "):])
                widths = {len(line.split("\t")) for line in body.splitlines() if line}
                if len(widths) != 1:
                    raise ValueError(f"rows of field counts {sorted(widths)}")
            else:
                raise ValueError("unexpected output type")
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if prov.get("inputs", input_digests) != input_digests:
            problems.append(f"{name}: provenance digests differ from the dataset")
    return problems


def _float_token(tok: str) -> bool:
    return bool(_FLOAT.match(tok))


def compare_text(got: str, want: str) -> str | None:
    """First disagreement between two outputs, or None when they agree."""
    got_t, want_t = _TOKEN.findall(got), _TOKEN.findall(want)
    if len(got_t) != len(want_t):
        return f"{len(got_t)} tokens, reference has {len(want_t)}"
    for i, (g, w) in enumerate(zip(got_t, want_t)):
        if g == w:
            continue
        if _float_token(g) and _float_token(w):
            a, b = float(g), float(w)
            if math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                continue
            return f"token {i}: {g} != {w} (beyond rel {REL_TOL})"
        return f"token {i}: {g!r} != {w!r}"
    return None


def reference_problems(files: dict[str, bytes], want: dict[str, str]) -> tuple[list[str], int]:
    """Mismatches against one command's reference outputs, and how many
    files are byte-identical to it."""
    problems = []
    identical = 0
    if sorted(files) != sorted(want):
        problems.append(f"files {sorted(files)} != reference {sorted(want)}")
    for name in sorted(set(files) & set(want)):
        ref = want[name].encode("utf-8")
        if files[name] == ref:
            identical += 1
            continue
        diff = compare_text(files[name].decode("utf-8", "replace"), want[name])
        if diff:
            problems.append(f"{name}: {diff}")
    return problems, identical


def load_reference(path: Path) -> dict | None:
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the archive byte-stable across regenerations
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=0).encode("utf-8"))
