"""Loading and indexing of the three dataset artifacts.

A dataset consists of three TSV files:

* ``edges.tsv``   -- one follow link per line, ``followee<TAB>follower``.
  Information flows followee -> follower.  Lines with a single field
  declare isolated nodes.
* ``events.tsv``  -- one post per line, ``time<TAB>user<TAB>hashtag[,...]``.
  Times are integer seconds; hashtags are case-insensitive and may carry
  a leading ``#``.
* ``topics.tsv``  -- ``hashtag<TAB>topic``, each hashtag in exactly one
  topic.

Lines starting with ``#`` are comments, empty lines are skipped.  All
structures returned here are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

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

    @cached_property
    def _followees(self) -> dict[str, tuple[str, ...]]:
        by_node: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            by_node[v].append(u)
        return {n: tuple(sorted(vs)) for n, vs in by_node.items()}

    @cached_property
    def _followers(self) -> dict[str, tuple[str, ...]]:
        by_node: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            by_node[u].append(v)
        return {n: tuple(sorted(vs)) for n, vs in by_node.items()}

    def followees_of(self, user: str) -> tuple[str, ...]:
        """Users that ``user`` follows (its information sources)."""
        return self._followees.get(user, ())

    def followers_of(self, user: str) -> tuple[str, ...]:
        return self._followers.get(user, ())


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

    @cached_property
    def by_user(self) -> dict[str, tuple[Event, ...]]:
        out: dict[str, list[Event]] = {}
        for e in self.events:
            out.setdefault(e.user, []).append(e)
        return {u: tuple(es) for u, es in out.items()}

    @cached_property
    def times_by_user(self) -> dict[str, list[int]]:
        # aligned with by_user, for bisect windows
        return {u: [e.time for e in es] for u, es in self.by_user.items()}


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


@dataclass(frozen=True)
class AdoptionIndex:
    """First-use / first-exposure / use-count / precedence maps derived from a log.

    ``first_exposure[(u, h)]`` is the earliest first use of ``h`` among
    the followees of ``u``; the key is absent when no followee ever used
    the hashtag.  ``prior_adopters[(u, h)]`` holds, for every adopted
    pair, the followees of ``u`` whose first use of ``h`` is strictly
    earlier than ``u``'s (ties never count), ordered as ``first_use``;
    the tuple is empty for an originator.
    """

    first_use: Mapping[tuple[str, str], int]
    first_exposure: Mapping[tuple[str, str], int]
    use_counts: Mapping[tuple[str, str], int]
    prior_adopters: Mapping[tuple[str, str], tuple[str, ...]]

    @cached_property
    def users_by_hashtag(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for (u, h) in self.first_use:
            out.setdefault(h, []).append(u)
        return {h: tuple(sorted(us)) for h, us in out.items()}

    def precedence_edges(self, hashtag: str) -> list[tuple[str, str]]:
        """Follower edges (u, v) where u first used ``hashtag`` strictly before v."""
        prior = self.prior_adopters
        adopters = self.users_by_hashtag.get(hashtag, ())
        return [(u, v) for v in adopters for u in prior[(v, hashtag)]]


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
    """Derive first-use, first-exposure, use-count and prior-adopter maps.

    Output is independent of input event order: only minima and counts
    over (user, hashtag) groups are used.  One walk over every (adopter,
    hashtag, follower) triple fills both first exposure and prior
    adopters; the strict first-use comparison lives only here.
    """
    first_use: dict[tuple[str, str], int] = {}
    use_counts: dict[tuple[str, str], int] = {}
    for t, u, h in events.events:
        key = (u, h)
        use_counts[key] = use_counts.get(key, 0) + 1
        if key not in first_use or t < first_use[key]:
            first_use[key] = t

    first_exposure: dict[tuple[str, str], int] = {}
    # one tuple per pair, extended by concatenation: a list per pair
    # converted at the end nearly triples the peak memory of this map
    prior: dict[tuple[str, str], tuple[str, ...]] = dict.fromkeys(first_use, ())
    for (v, h), t in first_use.items():
        for w in net.followers_of(v):
            key = (w, h)
            if key not in first_exposure or t < first_exposure[key]:
                first_exposure[key] = t
            if t < first_use.get(key, t):
                prior[key] += (v,)
    return AdoptionIndex(
        first_use=first_use,
        first_exposure=first_exposure,
        use_counts=use_counts,
        prior_adopters=prior,
    )


# --- manifest + serialization -------------------------------------------

_MANIFEST_KEYS = ("edges", "events", "topics")


def load_manifest(path: str | Path) -> dict[str, Path]:
    """Read a ``key = value`` manifest naming the three dataset files.

    Values may be quoted.  Relative paths resolve against the manifest's
    own directory.
    """
    path = Path(path)
    base = path.parent
    found: dict[str, Path] = {}
    with path.open(encoding="utf-8") as fh:
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
    with Path(paths["edges"]).open(encoding="utf-8") as fh:
        net = load_follower_edges(fh)
    with Path(paths["events"]).open(encoding="utf-8") as fh:
        events = load_events(fh)
    with Path(paths["topics"]).open(encoding="utf-8") as fh:
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
