"""Golden digests: every CLI output on two small seeded datasets is pinned.

The sha256 of each file written by each command is compared with
``golden_digests.json``.  A change that moves any output byte fails here,
so a refactor or speedup shows that its answers did not change.  The
second dataset lists its topics out of name order and does not map
every hashtag it uses, so each topic lookup is pinned where
first-appearance order and name order differ.  A change
that is meant to move outputs regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py

and names the affected files and the size of the difference.

The fixture was made with Python 3.11.7 and numpy 2.4.6 on x86_64.
There ``numpy.show_runtime()`` reports the SIMD baseline X86_V2 with
X86_V3, X86_V4, AVX512_ICL and AVX512_SPR found, so numpy dispatches its
AVX-512 loops, and numpy's bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH) picks
the SkylakeX core type.  Float means add left to right through
``ingest.ordered_sum`` (or ``genotype._groups``' longest-first loop), so
CPython 3.12's compensated ``sum()`` moves no byte; numpy's pairwise
summation can still make a mismatch under other numpy versions.  ``classify/logistic_fits.json`` (and with it both tests
here) moves on a host without AVX-512, or with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, or under
``OPENBLAS_CORETYPE=Haswell``: ``classify.fit_logistic`` calls numpy's
``exp``, ``log`` and ``dot``, whose results depend on the SIMD loop and
the BLAS kernel chosen.  Every other file keeps its digest there.

``test_golden_digests_in_fresh_processes`` runs each command as
``python -m genonet.cli``, so the outputs are also pinned under the
CLI's import-time default of one OpenBLAS thread, which an in-process
run cannot see because pytest has already imported numpy.
"""

import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from genonet.cli import main

import oracles

FIXTURE = Path(__file__).with_name("golden_digests.json")

SYNGEN = ("--seed", "5", "--users", "40", "--topics", "2",
          "--hashtags-per-topic", "4", "--cascades", "3", "--edge-prob", "0.25")

# label -> CLI arguments after --manifest/--out
COMMANDS = {
    "ingest-check": ("ingest-check",),
    "genome": ("genome",),
    "backbone": ("backbone",),
    "classify": ("classify", "--metric", "TIME,N-USES,LAT",
                 "--ensemble-sizes", "1,2,4", "--repetitions", "2", "--seed", "3"),
    "classify-rest": ("classify", "--metric", "N-PAR,F-PAR,LOG-LAT"),
    "predict": ("predict",),
    "latmin-strict": ("latmin", "--topic", "t0", "--k", "3"),
    "latmin-permissive": ("latmin", "--topic", "t1", "--k", "3", "--permissive"),
}

# three topics, whose topics.tsv ``_reorder_topics`` rewrites; its labels
# carry the TOPIC_ORDER prefix in the fixture
TOPIC_ORDER = "topic-order/"
TOPIC_ORDER_SYNGEN = ("--seed", "5", "--users", "40", "--topics", "3",
                      "--hashtags-per-topic", "4", "--cascades", "3", "--edge-prob", "0.25")
TOPIC_ORDER_COMMANDS = {
    **COMMANDS,
    "latmin-strict": ("latmin", "--topic", "t2", "--k", "3"),
    "latmin-permissive": ("latmin", "--topic", "t1", "--k", "3", "--permissive"),
}


def _reorder_topics(data: Path) -> None:
    """Reverse ``topics.tsv``, so its topics appear as t2, t1, t0; drop
    ``t1h0``, so one used hashtag has no topic; and map ``zz``, which no
    event uses."""
    path = data / "topics.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in reversed(lines) if not line.startswith("t1h0\t")]
    path.write_text("".join(kept) + "zz\tt0\n", encoding="utf-8")


# (label prefix, syngen flags, commands, edit of the generated files)
DATASETS = (
    ("", SYNGEN, COMMANDS, None),
    (TOPIC_ORDER, TOPIC_ORDER_SYNGEN, TOPIC_ORDER_COMMANDS, _reorder_topics),
)


def _digests(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def _fresh_process(argv: list[str]) -> int:
    """``python -m genonet.cli`` with the caller's ``OPENBLAS_NUM_THREADS``
    removed, so the CLI's own import-time default applies."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "genonet.cli", *argv], env=env).returncode


def compute_digests(root: Path, run=main) -> dict[str, dict[str, str]]:
    out = {}
    for prefix, syngen, commands, edit in DATASETS:
        data = root / f"{prefix}data"
        assert run(["syngen", "--out", str(data), *syngen]) == 0
        if edit:
            edit(data)
        manifest = str(data / "dataset.manifest")
        out[f"{prefix}syngen"] = _digests(data)
        for label, (command, *flags) in commands.items():
            dest = root / f"{prefix}{label}"
            code = run([command, "--manifest", manifest, "--out", str(dest), *flags])
            assert code == 0, prefix + label
            out[prefix + label] = _digests(dest)
    return out


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = compute_digests(tmp_path)
    for label in want:
        assert got[label] == want[label], label
    assert got.keys() == want.keys()


def test_golden_digests_in_fresh_processes(tmp_path):
    """Each command run as its own process gives the pinned outputs, under
    the CLI's import-time defaults (see the module docstring)."""
    assert compute_digests(tmp_path, _fresh_process) == json.loads(
        FIXTURE.read_text(encoding="utf-8"))


def test_golden_digests_under_compensated_sum(tmp_path, monkeypatch):
    """The outputs do not move when ``sum()`` compensates float sums, as
    it does from CPython 3.12 on."""
    monkeypatch.setattr(builtins, "sum", oracles.compensated_sum)
    assert compute_digests(tmp_path) == json.loads(FIXTURE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
