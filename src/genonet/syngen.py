"""Seeded generator of follower graphs, planted behavior, and cascades.

Every user draws, per topic, a mean adoption delay, an adoption
probability and a repeat-post rate from the topic's planted ranges.
Each hashtag then spreads in independent-cascade style: adopting a
hashtag exposes one's followers, every newly exposed follower flips
once, and successful flips adopt after a geometric delay around the
user's planted mean.  Cascades occupy disjoint time bands so different
hashtags never interleave.

Generation is single-threaded and fully determined by the seed; the
emitted files are byte-identical across runs.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DataError
from .ingest import (
    EventLog,
    FollowerNetwork,
    TopicMap,
    write_events,
    write_follower_edges,
    write_manifest,
    write_topic_map,
)

__all__ = [
    "TopicProfile",
    "GenParams",
    "CascadeRecord",
    "PlantedTruth",
    "GeneratedDataset",
    "generate",
]

UNIFORM = "uniform-random"
PREFERENTIAL = "preferential-attachment"


@dataclass(frozen=True)
class TopicProfile:
    """Planted per-topic ranges for user behavior draws.

    With ``engagement_coupling`` one latent draw per user drives all
    three traits: engaged users adopt more readily, react faster (the
    latency range is traversed top-down) and repeat more.  Without it
    the three draws are independent.
    """

    latency_mean: tuple[float, float] = (5.0, 15.0)
    latency_jitter: float = 2.0  # geometric tail mean, >= 1
    adoption_prob: tuple[float, float] = (0.3, 0.9)
    repeat_rate: tuple[float, float] = (0.0, 0.3)
    repeat_horizon: int = 5
    engagement_coupling: bool = False

    def validate(self) -> None:
        lo, hi = self.latency_mean
        if not (0 <= lo <= hi):
            raise DataError(f"bad latency_mean range {self.latency_mean}")
        if self.latency_jitter < 1.0:
            raise DataError("latency_jitter must be >= 1")
        plo, phi = self.adoption_prob
        if not (0.0 <= plo <= phi <= 1.0):
            raise DataError(f"bad adoption_prob range {self.adoption_prob}")
        rlo, rhi = self.repeat_rate
        if not (0.0 <= rlo <= rhi <= 1.0):
            raise DataError(f"bad repeat_rate range {self.repeat_rate}")
        if self.repeat_horizon < 0:
            raise DataError("repeat_horizon must be >= 0")


@dataclass(frozen=True)
class GenParams:
    n_users: int
    seed: int
    graph_model: str = UNIFORM
    edge_prob: float = 0.05
    attach_count: int = 1
    n_topics: int = 2
    hashtags_per_topic: int = 4
    cascades_per_hashtag: int = 1
    topic_profiles: tuple[TopicProfile, ...] | None = None
    cascade_gap: int = 1_000_000

    def validate(self) -> None:
        if self.n_users <= 0:
            raise DataError("n_users must be positive")
        if self.n_topics <= 0 or self.hashtags_per_topic <= 0:
            raise DataError("topic and hashtag counts must be positive")
        if self.cascades_per_hashtag < 0:
            raise DataError("cascades_per_hashtag must be >= 0")
        if self.graph_model == UNIFORM:
            if not (0.0 <= self.edge_prob <= 1.0):
                raise DataError(f"edge_prob {self.edge_prob} outside [0, 1]")
        elif self.graph_model == PREFERENTIAL:
            if not (1 <= self.attach_count < max(2, self.n_users)):
                raise DataError(
                    f"attach_count {self.attach_count} inconsistent with "
                    f"{self.n_users} users"
                )
        else:
            raise DataError(f"unknown graph model {self.graph_model!r}")
        if self.topic_profiles is not None and len(self.topic_profiles) != self.n_topics:
            raise DataError("need one topic profile per topic")
        if self.cascade_gap <= 0:
            raise DataError("cascade_gap must be positive")
        for profile in self.profiles():
            profile.validate()
            # repeats stay inside their cascade's band, as delays do
            if profile.repeat_horizon > self.cascade_gap // 2:
                raise DataError(
                    f"repeat_horizon {profile.repeat_horizon} exceeds cascade_gap // 2"
                    f" = {self.cascade_gap // 2}"
                )

    def profiles(self) -> tuple[TopicProfile, ...]:
        if self.topic_profiles is not None:
            return self.topic_profiles
        return tuple(TopicProfile() for _ in range(self.n_topics))


@dataclass(frozen=True)
class CascadeRecord:
    hashtag: str
    seed_user: str
    start: int
    adoptions: tuple[tuple[str, int], ...]  # (user, time) in adoption order


@dataclass(frozen=True)
class PlantedTruth:
    latency_mean: Mapping[tuple[str, str], float]  # (user, topic) -> mean delay
    adoption_prob: Mapping[tuple[str, str], float]
    hashtag_topics: Mapping[str, str]
    cascades: tuple[CascadeRecord, ...]

    def to_json_dict(self) -> dict:
        lat: dict[str, dict[str, float]] = {}
        for (u, t), v in self.latency_mean.items():
            lat.setdefault(u, {})[t] = v
        prob: dict[str, dict[str, float]] = {}
        for (u, t), v in self.adoption_prob.items():
            prob.setdefault(u, {})[t] = v
        return {
            "latency_mean": lat,
            "adoption_prob": prob,
            "hashtag_topics": dict(self.hashtag_topics),
            "cascades": [
                {
                    "hashtag": c.hashtag,
                    "seed_user": c.seed_user,
                    "start": c.start,
                    "adoptions": [[u, t] for u, t in c.adoptions],
                }
                for c in self.cascades
            ],
        }


@dataclass(frozen=True)
class GeneratedDataset:
    network: FollowerNetwork
    events: EventLog
    topics: TopicMap
    truth: PlantedTruth

    def write(self, outdir: str | Path) -> Path:
        """Emit edges/events/topics TSVs, truth.json and a manifest."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with (outdir / "edges.tsv").open("w", encoding="utf-8") as fh:
            write_follower_edges(self.network, fh)
        with (outdir / "events.tsv").open("w", encoding="utf-8") as fh:
            write_events(self.events, fh)
        with (outdir / "topics.tsv").open("w", encoding="utf-8") as fh:
            write_topic_map(self.topics, fh)
        with (outdir / "truth.json").open("w", encoding="utf-8") as fh:
            json.dump(self.truth.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
        manifest = outdir / "dataset.manifest"
        with manifest.open("w", encoding="utf-8") as fh:
            write_manifest(
                {"edges": "edges.tsv", "events": "events.tsv", "topics": "topics.tsv"},
                fh,
            )
        return manifest


def _user_names(n: int) -> list[str]:
    width = max(3, len(str(n - 1)))
    return [f"u{i:0{width}d}" for i in range(n)]


def _make_graph(p: GenParams, rng: np.random.Generator) -> list[list[int]]:
    """Follower adjacency by index: adj[u] = followers of u."""
    n = p.n_users
    followers: list[list[int]] = [[] for _ in range(n)]
    if p.graph_model == UNIFORM:
        # one row at a time: the same draws as one (n, n) matrix, without its n^2 bytes
        for u in range(n):
            row = rng.random(n) < p.edge_prob
            row[u] = False
            followers[u] = list(np.flatnonzero(row))
        return followers
    # preferential attachment: each new node follows attach_count existing
    # nodes, chosen with probability proportional to follower count + 1
    counts = np.zeros(n)
    for new in range(1, n):
        m = min(p.attach_count, new)
        weights = counts[:new] + 1.0
        chosen = rng.choice(new, size=m, replace=False, p=weights / weights.sum())
        for c in sorted(int(x) for x in chosen):
            followers[c].append(new)
            counts[c] += 1
    return followers


def generate(p: GenParams) -> GeneratedDataset:
    """Sample a dataset plus its planted ground truth from one seed."""
    p.validate()
    rng = np.random.default_rng(p.seed)
    users = _user_names(p.n_users)
    followers = _make_graph(p, rng)

    topics = [f"t{i}" for i in range(p.n_topics)]
    hashtags: dict[str, str] = {}
    for i, topic in enumerate(topics):
        for j in range(p.hashtags_per_topic):
            hashtags[f"{topic}h{j}"] = topic
    topic_map = TopicMap.from_rows(hashtags)

    profiles = p.profiles()
    lat_mean: dict[tuple[str, str], float] = {}
    adopt_p: dict[tuple[str, str], float] = {}
    # per topic, per user index: delay shift, adoption probability, repeat rate
    shift: list[list[int]] = []
    adopt: list[list[float]] = []
    repeat: list[list[float]] = []
    for ti, (topic, prof) in enumerate(zip(topics, profiles)):
        if prof.engagement_coupling:
            e = rng.uniform(0.0, 1.0, p.n_users)
            mu = prof.latency_mean[1] - e * (prof.latency_mean[1] - prof.latency_mean[0])
            q = prof.adoption_prob[0] + e * (prof.adoption_prob[1] - prof.adoption_prob[0])
            rr = prof.repeat_rate[0] + e * (prof.repeat_rate[1] - prof.repeat_rate[0])
        else:
            mu = rng.uniform(prof.latency_mean[0], prof.latency_mean[1], p.n_users)
            q = rng.uniform(prof.adoption_prob[0], prof.adoption_prob[1], p.n_users)
            rr = rng.uniform(prof.repeat_rate[0], prof.repeat_rate[1], p.n_users)
        jitter = prof.latency_jitter
        shift.append([max(0, int(round(m)) - int(round(jitter))) for m in mu])
        adopt.append(q.tolist())
        repeat.append(rr.tolist())
        for name, s, prob in zip(users, shift[ti], adopt[ti]):
            lat_mean[(name, topic)] = s + jitter
            adopt_p[(name, topic)] = prob

    # the log's rows; EventLog.from_rows sorts them and drops repeats
    ev_time, ev_user, ev_hashtag = [], [], []
    cascades: list[CascadeRecord] = []
    flipped: dict[str, set[int]] = {h: set() for h in hashtags}
    adopted: dict[str, set[int]] = {h: set() for h in hashtags}
    band = 0
    max_delay = p.cascade_gap // 2

    for ti, topic in enumerate(topics):
        prof = profiles[ti]
        geom_p = 1.0 / prof.latency_jitter
        for j in range(p.hashtags_per_topic):
            h = f"{topic}h{j}"
            for _c in range(p.cascades_per_hashtag):
                start = band * p.cascade_gap
                band += 1
                seed_user = int(rng.integers(p.n_users))
                record: list[tuple[str, int]] = []
                seq = 0
                heap: list[tuple[int, int, int]] = [(start, seq, seed_user)]
                while heap:
                    t, _s, u = heapq.heappop(heap)
                    if u in adopted[h]:
                        continue
                    adopted[h].add(u)
                    record.append((users[u], t))
                    rate = repeat[ti][u]
                    posts = [t] + [t + i for i in range(1, prof.repeat_horizon + 1)
                                   if rate > 0 and rng.random() < rate]
                    ev_time += posts
                    ev_user += [users[u]] * len(posts)
                    ev_hashtag += [h] * len(posts)
                    for w in followers[u]:
                        if w in flipped[h]:
                            continue
                        flipped[h].add(w)
                        if rng.random() < adopt[ti][w]:
                            delay = shift[ti][w] + int(rng.geometric(geom_p))
                            delay = min(delay, max_delay)
                            seq += 1
                            heapq.heappush(heap, (t + delay, seq, w))
                cascades.append(
                    CascadeRecord(h, users[seed_user], start, tuple(record))
                )

    # user names sort in index order, and each follower row is ascending
    # and distinct, so the keys come out sorted and distinct
    keys = np.repeat(np.arange(p.n_users), [len(f) for f in followers]) * p.n_users
    keys += np.fromiter((w for f in followers for w in f), np.int64, len(keys))
    network = FollowerNetwork(nodes=tuple(users), keys=keys)
    events = EventLog.from_rows(ev_time, ev_user, ev_hashtag)
    truth = PlantedTruth(lat_mean, adopt_p, hashtags, tuple(cascades))
    return GeneratedDataset(network, events, topic_map, truth)
