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

Lines starting with ``#`` are comments, empty lines are skipped.  All
structures returned here, the adoption index's numpy columns included,
are never modified after construction and are safe to share between
threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

import numpy as np

from .errors import DataError, ParseError

__all__ = [
    "Event",
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


class Event(NamedTuple):
    time: int
    user: str
    hashtag: str


@dataclass(frozen=True)
class FollowerNetwork:
    """Directed follow structure: edge (u, v) means v follows u."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise DataError(f"self-loop on {u!r}")
            if u not in self.nodes or v not in self.nodes:
                raise DataError(f"edge ({u!r}, {v!r}) references unknown node")


@dataclass(frozen=True)
class EventLog:
    """Deduplicated post events, sorted by (time, user, hashtag)."""

    events: tuple[Event, ...]
    skipped_lines: int = 0

    @cached_property
    def users(self) -> frozenset[str]:
        return frozenset(e.user for e in self.events)

    @cached_property
    def hashtags(self) -> frozenset[str]:
        return frozenset(e.hashtag for e in self.events)


@dataclass(frozen=True)
class TopicMap:
    """Hashtag -> topic assignment with a fixed topic order.

    Topic order is the order of first appearance in the source and is
    used for deterministic tie-breaking downstream.
    """

    assignment: Mapping[str, str]
    topics: tuple[str, ...]

    def __post_init__(self):
        missing = set(self.assignment.values()) - set(self.topics)
        if missing:
            raise DataError(f"topics missing from order: {sorted(missing)}")

    @cached_property
    def by_topic(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {t: [] for t in self.topics}
        for tag, topic in self.assignment.items():
            out[topic].append(tag)
        return {t: tuple(sorted(tags)) for t, tags in out.items()}

    def topic_of(self, hashtag: str) -> str | None:
        return self.assignment.get(hashtag)

    def hashtags_for(self, topic: str) -> tuple[str, ...]:
        if topic not in self.by_topic:
            raise DataError(f"unknown topic {topic!r}")
        return self.by_topic[topic]

    def topic_ids(self, hashtags: Iterable[str]) -> np.ndarray:
        """Each hashtag's position in ``topics``; ``len(topics)`` without a topic."""
        pos = {t: i for i, t in enumerate(self.topics)}
        return np.array([pos.get(self.topic_of(h), len(pos)) for h in hashtags], np.int64)


@dataclass(frozen=True, eq=False)
class AdoptionIndex:
    """The dataset as integer columns over one id space.

    Users (``sorted(net.nodes | events.users)``) and hashtags
    (``sorted(events.hashtags)``) get ids in sorted-name order, so id
    order is name order.  The columns:

    * ``event_time``, ``event_user``, ``event_hashtag``: the log, in log order;
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


def _csr(row: np.ndarray, col: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers over ``0..n-1`` and each row's columns, sorted."""
    return np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n)))), col[np.lexsort((col, row))]


def load_follower_edges(source: Iterable[str]) -> FollowerNetwork:
    """Parse ``followee<TAB>follower`` lines into a FollowerNetwork.

    Single-field lines declare isolated nodes.  Duplicate edges collapse;
    self-loops and empty fields are rejected with their line number.
    """
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for line_no, line in _iter_content_lines(source):
        parts = line.split("\t")
        if len(parts) == 1:
            node = parts[0].strip()
            if not node:
                raise ParseError("empty node declaration", line_no)
            nodes.add(node)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no)
        followee, follower = (p.strip() for p in parts)
        if not followee or not follower:
            raise ParseError("empty field in edge", line_no)
        if followee == follower:
            raise ParseError(f"self-loop on {followee!r}", line_no)
        nodes.add(followee)
        nodes.add(follower)
        edges.add((followee, follower))
    return FollowerNetwork(nodes=frozenset(nodes), edges=frozenset(edges))


def load_events(source: Iterable[str]) -> EventLog:
    """Parse ``time<TAB>user<TAB>hashtag[,hashtag...]`` lines.

    Each (line, hashtag) pair becomes one event; identical
    (time, user, hashtag) triples collapse to one.  Lines whose hashtag
    list is empty after normalization are skipped and counted in
    ``skipped_lines``.
    """
    seen: set[Event] = set()
    skipped = 0
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
        for tag in tags:
            seen.add(Event(time, user, tag))
    return EventLog(events=tuple(sorted(seen)), skipped_lines=skipped)


def load_topic_map(source: Iterable[str]) -> TopicMap:
    """Parse ``hashtag<TAB>topic`` lines; each hashtag gets one topic."""
    assignment: dict[str, str] = {}
    topics: list[str] = []
    for line_no, line in _iter_content_lines(source):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no)
        tag = normalize_hashtag(parts[0])
        topic = parts[1].strip()
        if not tag or not topic:
            raise ParseError("empty field in topic assignment", line_no)
        if tag in assignment and assignment[tag] != topic:
            raise ParseError(
                f"hashtag {tag!r} mapped to both {assignment[tag]!r} and {topic!r}",
                line_no,
            )
        assignment[tag] = topic
        if topic not in topics:
            topics.append(topic)
    return TopicMap(assignment=assignment, topics=tuple(topics))


def build_adoption_index(events: EventLog, net: FollowerNetwork) -> AdoptionIndex:
    """Intern the log and the follow edges and derive every pair column.

    Output is independent of input event order: only minima and counts
    over (user, hashtag) groups are used.  One join of each hashtag's
    adopters with their followers fills the prior adopters, first
    exposure and the exposed-pair count; the strict first-use comparison
    lives only here.
    """
    users = tuple(sorted(net.nodes | events.users))
    hashtags = tuple(sorted(events.hashtags))
    user_ids = {u: i for i, u in enumerate(users)}
    hashtag_ids = {h: i for i, h in enumerate(hashtags)}
    n, ev, edges = len(users), events.events, net.edges
    time = np.fromiter((e.time for e in ev), np.int64, len(ev))
    user = np.fromiter((user_ids[e.user] for e in ev), np.int64, len(ev))
    tag = np.fromiter((hashtag_ids[e.hashtag] for e in ev), np.int64, len(ev))
    src, dst = (np.fromiter((user_ids[e[i]] for e in edges), np.int64, len(edges)) for i in (0, 1))
    follower_ptr, follower_ids = _csr(src, dst, n)

    _keys, first, pair, use_count = np.unique(
        user * len(hashtags) + tag, return_index=True, return_inverse=True, return_counts=True
    )
    first_use = np.full(len(first), np.iinfo(np.int64).max)
    np.minimum.at(first_use, pair, time)
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
        seen = np.sort(follower)
        exposed += int(np.count_nonzero(seen[1:] != seen[:-1])) + (len(seen) > 0)
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
        *_csr(dst, src, n), follower_ptr, follower_ids,
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
    touched = {n for e in net.edges for n in e}
    for node in sorted(net.nodes - touched):
        fh.write(f"{node}\n")
    for u, v in sorted(net.edges):
        fh.write(f"{u}\t{v}\n")


def write_events(log: EventLog, fh) -> None:
    for t, u, tag in log.events:
        fh.write(f"{t}\t{u}\t{tag}\n")


def write_topic_map(topics: TopicMap, fh) -> None:
    for topic in topics.topics:
        for tag in topics.by_topic[topic]:
            fh.write(f"{tag}\t{topic}\n")


def write_manifest(paths: Mapping[str, str | Path], fh) -> None:
    for key in _MANIFEST_KEYS:
        fh.write(f"{key} = {paths[key]}\n")
