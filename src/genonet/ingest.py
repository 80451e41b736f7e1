"""Loading and indexing of the three dataset artifacts.

A dataset consists of three TSV files:

* ``edges.tsv``   -- one follow link per line, ``followee<TAB>follower``.
  Information flows followee -> follower.  Lines with a single field
  declare isolated nodes.
* ``events.tsv``  -- one post per line, ``time<TAB>user<TAB>hashtag[,...]``.
  Times are integer seconds in [0, 2^63-1]; hashtags are case-insensitive
  and may carry a leading ``#``.
* ``topics.tsv``  -- ``hashtag<TAB>topic``, each hashtag in exactly one
  topic.

Lines starting with ``#`` are comments, empty lines are skipped.  Each
loader interns its own file once, through :func:`intern`: a name's id is
its position among the file's sorted distinct names, so id order is name
order, and every tie-break by id downstream is a tie-break by name.  The
one exception is topic ids, which follow the topics' first appearance
in ``topics.tsv``: :class:`TopicMap` decides here, once, which topic each
hashtag has, and every other module reads its id column.  Nothing here
is modified after construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError, ParseError

__all__ = [
    "intern",
    "EventLog",
    "FollowerNetwork",
    "TopicMap",
    "AdoptionIndex",
    "load_follower_edges",
    "load_events",
    "load_topic_map",
    "build_adoption_index",
    "gather_rows",
    "row_sums",
    "in_sorted",
    "touched_ids",
    "run_starts",
    "ordered_sum",
    "libm",
    "open_utf8",
    "load_manifest",
    "load_dataset",
    "normalize_hashtag",
    "write_follower_edges",
    "write_events",
    "write_topic_map",
    "write_manifest",
]


def normalize_hashtag(raw: str) -> str:
    """Lowercase and strip one leading ``#``; empty result is invalid."""
    tag = raw.strip().lower()
    if tag.startswith("#"):
        tag = tag[1:]
    return tag


def _iter_content_lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield line_no, line


def intern(names: Iterable[Hashable]) -> tuple[tuple, np.ndarray]:
    """The sorted distinct ``names`` and each name's id, its position among
    them: the one place that turns names into ids."""
    names = list(names)
    labels = tuple(sorted(set(names)))
    ids = {x: i for i, x in enumerate(labels)}
    return labels, np.fromiter((ids[x] for x in names), np.int64, len(names))


def _sorted_rows(*columns: np.ndarray) -> np.ndarray:
    """Indices of the distinct rows of ``columns``, sorted by the first
    column, then the next; ``np.unique`` would import ``numpy.ma``."""
    order = np.lexsort(columns[::-1])
    return order[run_starts(*(c[order] for c in columns))]


@dataclass(frozen=True, eq=False)
class FollowerNetwork:
    """Directed follow structure over the sorted node names: key
    ``u * n + v`` means v follows u.  ``keys`` are sorted and distinct,
    and no key is a self-loop."""

    nodes: tuple[str, ...]
    keys: np.ndarray


@dataclass(frozen=True, eq=False)
class EventLog:
    """Post events as id columns over the sorted posting users and
    hashtags: distinct (time, user, hashtag) rows, sorted."""

    users: tuple[str, ...]
    hashtags: tuple[str, ...]
    time: np.ndarray
    user: np.ndarray
    hashtag: np.ndarray
    skipped_lines: int = 0

    @classmethod
    def from_rows(cls, time: Iterable[int], user: Iterable[str], hashtag: Iterable[str],
                  skipped_lines: int = 0) -> "EventLog":
        """The log of (time, user, hashtag) rows in any order, repeats allowed."""
        users, u = intern(user)
        hashtags, h = intern(hashtag)
        t = np.fromiter(time, np.int64, len(u))
        rows = _sorted_rows(t, u, h)
        return cls(users, hashtags, t[rows], u[rows], h[rows], skipped_lines)

    # the time column, under the name perfbench/traced_cli.py counts events by
    events = property(lambda self: self.time)


@dataclass(frozen=True, eq=False)
class TopicMap:
    """Each mapped hashtag's topic as one id column.

    ``hashtags`` are the sorted mapped names and ``topic[i]`` is
    ``hashtags[i]``'s id into ``topics``.  Topics keep their order of
    first appearance in the source, which fixes classify's column order
    and tie-breaks; ``rank`` is each topic's position in name order.
    """

    hashtags: tuple[str, ...]
    topic: np.ndarray
    topics: tuple[str, ...]

    @classmethod
    def from_rows(cls, rows: Mapping[str, str]) -> "TopicMap":
        """The map of ``{hashtag: topic}`` rows, its topics in their order of
        first appearance among the rows."""
        topics = tuple(dict.fromkeys(rows.values()))
        hashtags = intern(rows)[0]
        # intern numbers the topics in name order; the inverse of the
        # topics' name ranks turns those numbers into ids
        by_name = np.argsort(intern(topics)[1])
        return cls(hashtags, by_name[intern(rows[h] for h in hashtags)[1]], topics)

    @cached_property
    def rank(self) -> np.ndarray:
        """Each topic's position among the topic names in sorted order."""
        return intern(self.topics)[1]

    def topic_ids(self, hashtags: Sequence[str]) -> np.ndarray:
        """Each hashtag's topic id; ``len(topics)`` for one without a topic."""
        labels, ids = intern(self.hashtags + tuple(hashtags))
        column = np.full(len(labels), len(self.topics))
        column[ids[:len(self.hashtags)]] = self.topic
        return column[ids[len(self.hashtags):]]

    def topic_id(self, name: str) -> int:
        """The id of topic ``name``, which must be in the map."""
        if name not in self.topics:
            raise DataError(f"unknown topic {name!r}; dataset has {list(self.topics)}")
        return self.topics.index(name)


@dataclass(frozen=True, eq=False)
class AdoptionIndex:
    """The dataset as integer columns over one id space.

    ``users`` is the sorted union of ``net.nodes`` and ``events.users``,
    ``hashtags`` is ``events.hashtags``; ids are positions in them, so id
    order is name order, as in every loader.  The columns:

    * ``event_time``, ``event_user``, ``event_hashtag``: the log, sorted by
      (time, user, hashtag);
    * ``followee_ptr``/``followee_ids`` and ``follower_ptr``/``follower_ids``:
      each user's followees and followers as CSR rows, sorted by id;
    * per adopted (user, hashtag) pair, in first-use order (first use,
      user, hashtag): ``pair_user``, ``pair_hashtag``, ``first_use``,
      ``use_count``; ``prior_ptr``/``prior_ids``, the followees whose first
      use is strictly earlier than the user's (ties never count), in
      first-use order and empty for an originator; and ``first_exposure``,
      the earliest of those first uses, -1 where there is none.

    ``exposed_pairs`` counts the (user, hashtag) pairs with a followee
    that used the hashtag, adopted or not.
    """

    users: tuple[str, ...]
    hashtags: tuple[str, ...]
    event_time: np.ndarray
    event_user: np.ndarray
    event_hashtag: np.ndarray
    followee_ptr: np.ndarray
    followee_ids: np.ndarray
    follower_ptr: np.ndarray
    follower_ids: np.ndarray
    pair_user: np.ndarray
    pair_hashtag: np.ndarray
    first_use: np.ndarray
    use_count: np.ndarray
    first_exposure: np.ndarray
    prior_ptr: np.ndarray
    prior_ids: np.ndarray
    exposed_pairs: int

    @cached_property
    def precedence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hashtag, followee, follower) id columns of every prior adopter."""
        sizes = np.diff(self.prior_ptr)
        return (
            np.repeat(self.pair_hashtag, sizes), self.prior_ids, np.repeat(self.pair_user, sizes)
        )


def gather_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets of ``rows`` laid end to end, and the source slot of each."""
    sizes = np.diff(indptr)[rows]
    out = np.concatenate(([0], np.cumsum(sizes)))
    return out, np.repeat(indptr[:-1][rows] - out[:-1], sizes) + np.arange(out[-1])


def row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum of every CSR row of integer or boolean ``values``."""
    total = np.concatenate(([0], np.cumsum(values)))
    return total[indptr[1:]] - total[indptr[:-1]]


def in_sorted(keys: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Which ``keys`` occur in the sorted array ``ordered``; ``np.isin``
    would import ``numpy.ma`` on large inputs."""
    return np.searchsorted(ordered, keys, "right") > np.searchsorted(ordered, keys)


def touched_ids(keys: np.ndarray, n: int) -> np.ndarray:
    """A mask over ids ``0..n-1``: the ends of the edge keys ``u * n + v``."""
    touched = np.zeros(n, bool)
    touched[keys // n] = touched[keys % n] = True
    return touched


def run_starts(*sorted_columns: np.ndarray) -> np.ndarray:
    """A mask over the rows of the jointly sorted columns: where each run
    of rows equal on every column starts."""
    start = np.zeros(len(sorted_columns[0]), bool)
    start[:1] = True
    for column in sorted_columns:
        start[1:] |= column[1:] != column[:-1]
    return start


def ordered_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """0.0 plus the terms along ``axis`` one at a time in index order, as a
    Python loop adds them: ``np.sum`` adds pairwise and Python 3.12's
    ``sum()`` compensates, and either moves the last bits."""
    terms = np.asarray(terms, float)
    if terms.shape[axis] == 0:
        return np.zeros(np.delete(terms.shape, axis))
    return np.add.accumulate(terms, axis=axis).take(-1, axis=axis) + 0.0


def libm(fn: Callable[..., float], x: np.ndarray, *args) -> np.ndarray:
    """``fn`` of each element of the 1-d float ``x`` as ``math`` computes it;
    numpy's log, exp and square round differently on some inputs.  Each
    distinct bit pattern is evaluated once, so -0.0 and 0.0 stay apart;
    ``args`` are iterables of further arguments, such as ``repeat(2.0)``."""
    distinct, inverse = np.unique(np.asarray(x, float).view(np.int64), return_inverse=True)
    values = map(fn, distinct.view(float).tolist(), *args)
    return np.fromiter(values, float, len(distinct))[inverse]


def load_follower_edges(source: Iterable[str]) -> FollowerNetwork:
    """Parse ``followee<TAB>follower`` lines into a FollowerNetwork.

    Single-field lines declare isolated nodes.  Duplicate edges collapse;
    self-loops and empty fields are rejected with their line number.
    """
    names, ends = [], []  # declared nodes; each edge's two ends
    for line_no, line in _iter_content_lines(source):
        parts = line.split("\t")
        if len(parts) == 1:  # never blank: blank lines are skipped
            names.append(parts[0].strip())
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no)
        followee, follower = (p.strip() for p in parts)
        if not followee or not follower:
            raise ParseError("empty field in edge", line_no)
        if followee == follower:
            raise ParseError(f"self-loop on {followee!r}", line_no)
        ends += (followee, follower)
    nodes, ids = intern(names + ends)
    ids = ids[len(names):]
    keys = ids[::2] * len(nodes) + ids[1::2]
    return FollowerNetwork(nodes, keys[_sorted_rows(keys)])


def load_events(source: Iterable[str]) -> EventLog:
    """Parse ``time<TAB>user<TAB>hashtag[,hashtag...]`` lines.

    Each (line, hashtag) pair becomes one event; identical
    (time, user, hashtag) triples collapse to one.  Lines whose hashtag
    list is empty after normalization are skipped and counted in
    ``skipped_lines``.
    """
    times, users, hashtags, skipped = [], [], [], 0
    for line_no, line in _iter_content_lines(source):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", line_no)
        time_raw, user, tags_raw = (p.strip() for p in parts)
        # int() alone would also take "1_000", "+5" and non-ASCII digits
        digits = time_raw.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"non-integer time {time_raw!r}", line_no)
        time = int(time_raw)
        if time < 0:
            raise ParseError(f"negative time {time}", line_no)
        if time >= 2**63:  # times are indexed as int64
            raise ParseError(f"time {time} above 2^63-1", line_no)
        if not user:
            raise ParseError("empty user", line_no)
        tags = [normalize_hashtag(t) for t in tags_raw.split(",")]
        tags = [t for t in tags if t]
        if not tags:
            skipped += 1
            continue
        times += [time] * len(tags)
        users += [user] * len(tags)
        hashtags += tags
    return EventLog.from_rows(times, users, hashtags, skipped)


def load_topic_map(source: Iterable[str]) -> TopicMap:
    """Parse ``hashtag<TAB>topic`` lines; each hashtag gets one topic."""
    rows: dict[str, str] = {}
    for line_no, line in _iter_content_lines(source):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no)
        tag = normalize_hashtag(parts[0])
        topic = parts[1].strip()
        if not tag or not topic:
            raise ParseError("empty field in topic assignment", line_no)
        if rows.setdefault(tag, topic) != topic:
            raise ParseError(f"hashtag {tag!r} mapped to both {rows[tag]!r} and {topic!r}", line_no)
    return TopicMap.from_rows(rows)


def build_adoption_index(events: EventLog, net: FollowerNetwork) -> AdoptionIndex:
    """Remap both files' ids into the union of their users and derive
    every pair column.

    The remap is monotone, so the follow keys stay sorted and the log
    stays in (time, user, hashtag) order.  One join of each hashtag's
    adopters with their followers fills the prior adopters, first
    exposure and the exposed-pair count; the strict first-use comparison
    lives only here.
    """
    users, remap = intern(net.nodes + events.users)  # net's ids first, then the log's
    hashtags, n, m = events.hashtags, len(users), len(net.nodes)
    time, user, tag = events.time, remap[m:][events.user], events.hashtag
    src, dst = (remap[c] for c in np.divmod(net.keys, m))
    follower_ptr, follower_ids = np.searchsorted(src, np.arange(n + 1)), dst
    # a stable sort keeps each followee row in ascending id order
    by_followee = np.argsort(dst, kind="stable")
    followee_ptr = np.searchsorted(dst[by_followee], np.arange(n + 1))

    # the log is sorted by time, so each pair's first row holds its first use
    _keys, first, use_count = np.unique(
        user * len(hashtags) + tag, return_index=True, return_counts=True
    )
    first_use = time[first]
    order = np.lexsort((tag[first], user[first], first_use))
    pair_user, pair_hashtag = user[first][order], tag[first][order]
    first_use, use_count = first_use[order], use_count[order]

    # each hashtag's adopters, in first-use order, joined with their followers
    by_tag = np.argsort(pair_hashtag, kind="stable")
    bounds = np.searchsorted(pair_hashtag[by_tag], np.arange(len(hashtags) + 1))
    pair_of = np.full(n, -1)  # the current hashtag's pair of each user
    targets, sources, exposed = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], 0
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        adopters = by_tag[lo:hi]
        pair_of[pair_user[adopters]] = adopters
        indptr, slots = gather_rows(follower_ptr, pair_user[adopters])
        follower = follower_ids[slots]
        source, target = np.repeat(adopters, np.diff(indptr)), pair_of[follower]
        prior = (target >= 0) & (first_use[source] < first_use[target])
        targets.append(target[prior])
        sources.append(source[prior])
        exposed += int(np.count_nonzero(run_starts(np.sort(follower))))
        pair_of[pair_user[adopters]] = -1
    target = np.concatenate(targets)
    # a stable sort keeps each pair's prior adopters in first-use order
    source = np.concatenate(sources)[np.argsort(target, kind="stable")]
    prior_ptr = np.concatenate(([0], np.cumsum(np.bincount(target, minlength=len(first_use)))))
    first_exposure = np.full(len(first_use), -1)
    has_prior = np.flatnonzero(np.diff(prior_ptr))
    first_exposure[has_prior] = first_use[source[prior_ptr[has_prior]]]
    return AdoptionIndex(
        users, hashtags, time, user, tag,
        followee_ptr, src[by_followee], follower_ptr, follower_ids,
        pair_user, pair_hashtag, first_use, use_count, first_exposure,
        prior_ptr, pair_user[source], exposed,
    )


# --- manifest + serialization -------------------------------------------


@contextmanager
def open_utf8(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; a byte that does not decode, wherever
    the reader meets it, raises :class:`DataError` naming the file."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: {exc}") from exc


_MANIFEST_KEYS = ("edges", "events", "topics")


def load_manifest(path: str | Path) -> dict[str, Path]:
    """Read a ``key = value`` manifest naming the three dataset files.

    Values may be quoted.  Relative paths resolve against the manifest's
    own directory.
    """
    path = Path(path)
    base = path.parent
    found: dict[str, Path] = {}
    with open_utf8(path) as fh:
        for line_no, line in _iter_content_lines(fh):
            if "=" not in line:
                raise ParseError("expected key = value", line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip().strip("\"'")
            if key not in _MANIFEST_KEYS:
                raise ParseError(f"unknown manifest key {key!r}", line_no)
            if key in found:
                raise ParseError(f"repeated manifest key {key!r}", line_no)
            if not value:
                raise ParseError(f"empty value for manifest key {key!r}", line_no)
            p = Path(value)
            found[key] = p if p.is_absolute() else base / p
    missing = [k for k in _MANIFEST_KEYS if k not in found]
    if missing:
        raise DataError(f"manifest {path} missing keys: {missing}")
    return found


def load_dataset(manifest_path: str | Path) -> tuple[FollowerNetwork, EventLog, TopicMap]:
    paths = load_manifest(manifest_path)
    with open_utf8(paths["edges"]) as fh:
        net = load_follower_edges(fh)
    with open_utf8(paths["events"]) as fh:
        events = load_events(fh)
    with open_utf8(paths["topics"]) as fh:
        topics = load_topic_map(fh)
    return net, events, topics


def write_follower_edges(net: FollowerNetwork, fh) -> None:
    """Isolated nodes, then the edges, each in name order."""
    src, dst = np.divmod(net.keys, len(net.nodes))
    isolated = ~touched_ids(net.keys, len(net.nodes))
    fh.writelines(f"{net.nodes[i]}\n" for i in np.flatnonzero(isolated).tolist())
    fh.writelines(f"{net.nodes[u]}\t{net.nodes[v]}\n" for u, v in zip(src.tolist(), dst.tolist()))


def write_events(log: EventLog, fh) -> None:
    rows = zip(log.time.tolist(), log.user.tolist(), log.hashtag.tolist())
    fh.writelines(f"{t}\t{log.users[u]}\t{log.hashtags[h]}\n" for t, u, h in rows)


def write_topic_map(topics: TopicMap, fh) -> None:
    """Each topic's hashtags in name order, the topics in map order."""
    for t, topic in enumerate(topics.topics):
        fh.writelines(f"{topics.hashtags[i]}\t{topic}\n" for i in np.flatnonzero(topics.topic == t))


def write_manifest(paths: Mapping[str, str | Path], fh) -> None:
    for key in _MANIFEST_KEYS:
        fh.write(f"{key} = {paths[key]}\n")
