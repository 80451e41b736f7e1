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
loader parses its file a bounded chunk of whole lines at a time, with
whole-string and whole-column operations, and names the first bad line
with the first rule it breaks.  Each loader interns its own file once,
through :func:`intern`: a name's id is
its position among the file's sorted distinct names, so id order is name
order, and every tie-break by id downstream is a tie-break by name.  The
one exception is topic ids, which follow the topics' first appearance
in ``topics.tsv``: :func:`build_adoption_index` decides, once, which topic
each index hashtag has, and every other module reads the index's id
column.  Nothing here is modified after construction.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, repeat
from operator import eq, ne
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
    "row_blocks",
    "row_sums",
    "in_sorted",
    "touched_ids",
    "run_starts",
    "ordered_sum",
    "libm",
    "open_utf8",
    "load_manifest",
    "load_dataset",
    "write_follower_edges",
    "write_events",
    "write_topic_map",
    "write_manifest",
]


def intern(names: Iterable[Hashable]) -> tuple[tuple, np.ndarray]:
    """The sorted distinct ``names`` and each name's id, its position among
    them: the one place that turns names into ids."""
    names = list(names)
    labels = tuple(sorted(set(names)))
    ids = {x: i for i, x in enumerate(labels)}
    return labels, np.fromiter(map(ids.__getitem__, names), np.int64, len(names))


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
    def from_rows(cls, time: Sequence[int], user: Iterable[str], hashtag: Iterable[str],
                  skipped_lines: int = 0) -> "EventLog":
        """The log of (time, user, hashtag) rows in any order, repeats allowed."""
        users, u = intern(user)
        hashtags, h = intern(hashtag)
        t = np.asarray(time, np.int64)
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
    and tie-breaks.
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

    def topic_ids(self, hashtags: Sequence[str]) -> np.ndarray:
        """Each hashtag's topic id; ``len(topics)`` for one without a topic."""
        labels, ids = intern(self.hashtags + tuple(hashtags))
        column = np.full(len(labels), len(self.topics))
        column[ids[:len(self.hashtags)]] = self.topic
        return column[ids[len(self.hashtags):]]


@dataclass(frozen=True, eq=False)
class AdoptionIndex:
    """The dataset as integer columns over one id space.

    ``users`` is the sorted union of ``net.nodes`` and ``events.users``,
    ``hashtags`` is ``events.hashtags``; ids are positions in them, so id
    order is name order, as in every loader.  ``topics`` are the topic
    map's names in first-appearance order.  The columns:

    * ``hashtag_topic``: each hashtag's topic id, ``len(topics)`` for none;
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
    topics: tuple[str, ...]
    hashtag_topic: np.ndarray
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

    @cached_property
    def topic_rank(self) -> np.ndarray:
        """Each topic's position among the topic names in sorted order."""
        return intern(self.topics)[1]

    def topic_id(self, name: str) -> int:
        """The id of topic ``name``, which must be in the topic map."""
        if name not in self.topics:
            raise DataError(f"unknown topic {name!r}; dataset has {list(self.topics)}")
        return self.topics.index(name)


def gather_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets of ``rows`` laid end to end, and the source slot of each."""
    sizes = np.diff(indptr)[rows]
    out = np.concatenate(([0], np.cumsum(sizes)))
    return out, np.repeat(indptr[:-1][rows] - out[:-1], sizes) + np.arange(out[-1])


def row_blocks(indptr: np.ndarray, max_slots: int) -> list[tuple[int, int]]:
    """The CSR rows cut, in order, into runs ``(lo, hi)`` of consecutive
    rows that hold at most ``max_slots`` slots, or of one row that alone
    holds more; one empty run when there is no row."""
    starts = [0]
    while starts[-1] < len(indptr) - 1:
        lo = starts[-1]
        hi = int(np.searchsorted(indptr, indptr[lo] + max_slots, "right")) - 1
        starts.append(max(hi, lo + 1))
    return list(zip(starts[:-1], starts[1:])) or [(0, 0)]


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
    numpy's log and exp round differently from libm's on some inputs.  (A
    square is another matter: ``x * x`` is correctly rounded everywhere,
    and libm's ``math.pow(x, 2.0)`` is not.)  Each distinct bit pattern is
    evaluated once, so -0.0 and 0.0 stay apart; ``args`` are iterables of
    further arguments, such as ``repeat(2.0)``."""
    distinct, inverse = np.unique(np.asarray(x, float).view(np.int64), return_inverse=True)
    values = map(fn, distinct.view(float).tolist(), *args)
    return np.fromiter(values, float, len(distinct))[inverse]


# Characters of a file parsed at once, which bounds the loaders'
# transient strings and lists whatever the file's size; larger chunks
# parse faster but raise a small dataset's peak memory.
_CHUNK = 1 << 13


def _offsets(fields: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``fields`` joined by tabs, which none of them
    holds, and where each field starts and ends in them; an ASCII byte in
    them is that character."""
    code = np.frombuffer(("\t".join(fields) + "\t").encode("utf-8", "surrogatepass"), np.uint8)
    end = np.flatnonzero(code == ord("\t"))[:len(fields)]
    return code, np.concatenate(([0], end + 1))[:len(fields)], end


def _chunks(source: TextIO | Iterable[str]) -> Iterator[tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The lines of a text file, or of an iterable of lines that hold no
    line break but at their end, a chunk of whole lines at a time: the
    lines' tab-separated fields, each stripped, laid end to end; each
    line's field count, whether it is content, and its number; and each
    field's length in UTF-8 bytes.

    Blank lines and lines whose first non-blank character is ``#`` are
    not content.
    """
    if not hasattr(source, "read"):
        source = io.StringIO("\n".join(map(str.rstrip, source, repeat("\n"))))
    first, rest = 1, ""
    # the line break appended at the end ends a last line that has none
    for block in chain(iter(partial(source.read, _CHUNK), ""), ["\n"]):
        text, newline, rest = (rest + block).rpartition("\n")
        if not newline:
            continue
        code = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
        end = np.append(np.flatnonzero(code == 10), len(code))  # where each line ends
        width = np.diff(np.searchsorted(np.flatnonzero(code == 9), end), prepend=0) + 1
        numbers = np.arange(first, first + len(width))
        first += len(width)
        fields = list(map(str.strip, text.replace("\n", "\t").split("\t")))
        code, start, end = _offsets(fields)
        # a line is content if it has a non-empty field, the first not a comment
        bounds = np.cumsum(width)
        filled = np.append(np.flatnonzero(end > start), len(fields))
        lead = filled[np.searchsorted(filled, bounds - width)]
        content = (lead < bounds) & (np.append(code[start], 0)[lead] != ord("#"))
        yield fields, width, content, numbers, end - start


def _each(fn: Callable, *columns, dtype=bool) -> np.ndarray:
    """``fn`` of each row of ``columns``, the first a list, as an array."""
    return np.fromiter(map(fn, *columns), dtype, len(columns[0]))


def _hashtags(fields: list[str], sep: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ``sep``-separated hashtags of ``fields``, each stripped,
    lower-cased and without one leading ``#``; which of them are then
    empty, which is invalid; and how many each field holds.  Lower-casing the
    joined fields lowers each tag as it would alone, since neither a comma
    nor a tab is cased or case-ignorable."""
    text = "\t".join(["", *fields]).lower()  # a separator before each tag
    code = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    opens = code[np.flatnonzero((code == ord("\t")) | (code == ord(sep)))] == ord("\t")
    count = np.diff(np.append(np.flatnonzero(opens), len(opens)))
    text = sep.join(["", *map(str.strip, text.replace("\t", sep).split(sep)[1:])]).replace(sep + "#", sep)
    code = np.frombuffer((text + sep).encode("utf-8", "surrogatepass"), np.uint8)
    return text.split(sep)[1:], np.diff(np.flatnonzero(code == ord(sep))) == 1, count


def _raise_first(*rules: tuple[np.ndarray, np.ndarray, Callable[[int], str]]) -> None:
    """Raise the ParseError of the first line that breaks a rule, naming
    the first rule, in argument order, that it breaks.  A rule is the line
    numbers of some rows, the mask of those that break it and the message
    of row ``i``."""
    broken = [(int(numbers[bad.argmax()]), r) for r, (numbers, bad, _) in enumerate(rules) if bad.any()]
    if broken:
        line, r = min(broken)
        _, bad, message = rules[r]
        raise ParseError(message(int(bad.argmax())), line)


def load_follower_edges(source: TextIO | Iterable[str]) -> FollowerNetwork:
    """Parse ``followee<TAB>follower`` lines into a FollowerNetwork.

    Single-field lines declare isolated nodes.  Duplicate edges collapse;
    self-loops and empty fields are rejected with their line number.
    """
    names, ends = [], []  # declared nodes; each edge's two ends
    same: dict[str, str] = {}  # one string per name, so each chunk's copies can go
    for fields, width, content, numbers, length in _chunks(source):
        edge = content & (width == 2)
        on = np.repeat(edge, width)
        pair = list(compress(fields, on.tolist()))
        followee, follower = pair[0::2], pair[1::2]
        _raise_first(
            (numbers, content & (width > 2), lambda i: f"expected 2 fields, got {width[i]}"),
            (numbers[edge], length[on].reshape(-1, 2).min(1, initial=1) == 0,
             lambda i: "empty field in edge"),
            (numbers[edge], _each(eq, followee, follower), lambda i: f"self-loop on {followee[i]!r}"),
        )
        names += compress(fields, np.repeat(content & (width == 1), width).tolist())
        ends += map(same.setdefault, pair, pair)
    nodes, ids = intern(names + ends)
    ids = ids[len(names):]
    keys = ids[::2] * len(nodes) + ids[1::2]
    return FollowerNetwork(nodes, keys[_sorted_rows(keys)])


def load_events(source: TextIO | Iterable[str]) -> EventLog:
    """Parse ``time<TAB>user<TAB>hashtag[,hashtag...]`` lines.

    Each (line, hashtag) pair becomes one event; identical
    (time, user, hashtag) triples collapse to one.  Lines whose hashtag
    list is empty after normalization are skipped and counted in
    ``skipped_lines``.
    """
    times, users, hashtags, skipped = [], [], [], 0
    same: dict[str, str] = {}  # one string per name, so each chunk's copies can go
    for fields, width, content, numbers, length in _chunks(source):
        row = content & (width == 3)
        on = np.repeat(row, width)
        columns = list(compress(fields, on.tolist()))
        time_raw, user, tags_raw = columns[0::3], columns[1::3], columns[2::3]
        # a time is ASCII digits after at most one "-": int() alone would
        # also take "1_000", "+5" and non-ASCII digits
        code, start, end = _offsets(time_raw)
        minus = code[start] == ord("-")  # an empty field's first byte is its tab
        start = start + minus
        other = np.append(0, np.cumsum((code < ord("0")) | (code > ord("9"))))  # non-digits before
        integer = (end > start) & (other[end] == other[start])
        # times are indexed as int64, and leading zeros do not count
        nonzero = np.flatnonzero(code != ord("0"))
        size = end - nonzero[np.searchsorted(nonzero, start)]
        large = size > 19
        top = np.flatnonzero(integer & (size == 19))
        large[top] = [int(time_raw[i]) >= 2**63 for i in top.tolist()]
        _raise_first(
            (numbers, content & (width != 3), lambda i: f"expected 3 fields, got {width[i]}"),
            (numbers[row], ~integer, lambda i: f"non-integer time {time_raw[i]!r}"),
            (numbers[row], minus & (size > 0), lambda i: f"negative time {int(time_raw[i])}"),
            (numbers[row], large, lambda i: f"time {int(time_raw[i])} above 2^63-1"),
            (numbers[row], length[on][1::3] == 0, lambda i: "empty user"),
        )
        tags, empty, count = _hashtags(tags_raw, ",")
        per_line = row_sums(~empty, np.concatenate(([0], np.cumsum(count))))
        skipped += int(np.count_nonzero(per_line == 0))
        times.append(np.repeat(np.fromstring(code, np.int64, len(time_raw), sep="\t"), per_line))
        user = np.repeat(np.array(user, object), per_line).tolist()
        tags = list(compress(tags, (~empty).tolist()))
        users += map(same.setdefault, user, user)
        hashtags += map(same.setdefault, tags, tags)
    return EventLog.from_rows(np.concatenate([np.zeros(0, np.int64), *times]), users, hashtags, skipped)


def load_topic_map(source: TextIO | Iterable[str]) -> TopicMap:
    """Parse ``hashtag<TAB>topic`` lines; each hashtag gets one topic."""
    rows: dict[str, str] = {}
    for fields, width, content, numbers, length in _chunks(source):
        row = content & (width == 2)
        on = np.repeat(row, width)
        columns = list(compress(fields, on.tolist()))
        tags, empty, _ = _hashtags(columns[0::2], "\t")
        topics = columns[1::2]
        # each hashtag's first topic: in an earlier chunk, else in this one
        first = dict(zip(reversed(tags), reversed(topics)))
        first.update({tag: rows[tag] for tag in first.keys() & rows.keys()})
        _raise_first(
            (numbers, content & (width != 2), lambda i: f"expected 2 fields, got {width[i]}"),
            (numbers[row], empty | (length[on][1::2] == 0), lambda i: "empty field in topic assignment"),
            (numbers[row], _each(ne, topics, map(first.__getitem__, tags)),
             lambda i: f"hashtag {tags[i]!r} mapped to both {first[tags[i]]!r} and {topics[i]!r}"),
        )
        rows.update(zip(tags, topics))
    return TopicMap.from_rows(rows)


def build_adoption_index(events: EventLog, net: FollowerNetwork, topics: TopicMap) -> AdoptionIndex:
    """Remap both files' ids into the union of their users, look up each
    hashtag's topic and derive every pair column.

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
        users, hashtags, topics.topics, topics.topic_ids(hashtags), time, user, tag,
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
        for line_no, line in enumerate(map(str.strip, fh), start=1):
            if not line or line.startswith("#"):
                continue
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
