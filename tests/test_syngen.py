import pytest

from genonet.errors import DataError
from genonet.genotype import MetricKind, build_genome
from genonet.ingest import build_adoption_index
from genonet.syngen import (
    PREFERENTIAL,
    UNIFORM,
    GenParams,
    TopicProfile,
    generate,
)

import datasets
import oracles


def test_same_seed_byte_identical(tmp_path):
    p = GenParams(n_users=25, seed=99, edge_prob=0.1, n_topics=2,
                  hashtags_per_topic=3, cascades_per_hashtag=2)
    d1 = generate(p)
    d2 = generate(p)
    assert oracles.named(d1.events) == oracles.named(d2.events)
    assert oracles.named(d1.network) == oracles.named(d2.network)
    assert d1.truth == d2.truth
    out1, out2 = tmp_path / "a", tmp_path / "b"
    d1.write(out1)
    d2.write(out2)
    for name in ("edges.tsv", "events.tsv", "topics.tsv", "truth.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_different_seed_differs():
    base = dict(n_users=25, edge_prob=0.1, n_topics=2, hashtags_per_topic=3,
                cascades_per_hashtag=2)
    d1 = generate(GenParams(seed=1, **base))
    d2 = generate(GenParams(seed=2, **base))
    assert oracles.named(d1.events) != oracles.named(d2.events)


def test_zero_cascades_empty_log():
    p = GenParams(n_users=10, seed=0, cascades_per_hashtag=0)
    assert oracles.named(generate(p).events).events == ()


def test_chain_adoption_times():
    # fish for a seed whose 4-node attachment graph is the chain
    # u000 -> u001 -> u002 -> u003 with the cascade seeded at the head
    prof = TopicProfile(latency_mean=(1.0, 1.0), latency_jitter=1.0,
                        adoption_prob=(1.0, 1.0), repeat_rate=(0.0, 0.0),
                        repeat_horizon=0)
    chain = {("u000", "u001"), ("u001", "u002"), ("u002", "u003")}
    for seed in range(500):
        p = GenParams(n_users=4, seed=seed, graph_model=PREFERENTIAL,
                      attach_count=1, n_topics=1, hashtags_per_topic=1,
                      cascades_per_hashtag=1, topic_profiles=(prof,))
        d = generate(p)
        if oracles.named(d.network).edges == chain and d.truth.cascades[0].seed_user == "u000":
            assert d.truth.cascades[0].adoptions == (
                ("u000", 0), ("u001", 1), ("u002", 2), ("u003", 3)
            )
            times = d.events.time.tolist()
            assert times == [0, 1, 2, 3]
            return
    pytest.fail("no chain instance found in 500 seeds")


def test_every_adoption_has_causal_exposure():
    d = generate(datasets.activity_params(5))
    index = build_adoption_index(d.events, d.network, d.topics)
    seeds = {(c.hashtag, c.seed_user) for c in d.truth.cascades}
    maps = oracles.index_dicts(index)
    for (u, h), t in maps["first_use"].items():
        if (h, u) in seeds:
            continue
        exposure = maps["first_exposure"].get((u, h))
        assert exposure is not None and exposure < t, (u, h)


def test_time_metric_converges_to_planted_mean():
    prof = TopicProfile(latency_mean=(6.0, 14.0), latency_jitter=3.0,
                        adoption_prob=(1.0, 1.0), repeat_rate=(0.0, 0.0),
                        repeat_horizon=0)
    p = GenParams(n_users=12, seed=17, graph_model=UNIFORM, edge_prob=0.5,
                  n_topics=1, hashtags_per_topic=70, cascades_per_hashtag=2,
                  topic_profiles=(prof,))
    d = generate(p)
    index = build_adoption_index(d.events, d.network, d.topics)
    genome = oracles.genotypes(build_genome(index))
    checked = 0
    for user, gt in genome.items():
        cell = gt.cells.get(("t0", MetricKind.TIME))
        if cell is None or cell.count < 50:
            continue
        planted = d.truth.latency_mean[(user, "t0")]
        assert abs(cell.mean - planted) / planted < 0.10, (user, cell.mean, planted)
        checked += 1
    assert checked >= 5


def test_seed_change_preserves_structure_statistics():
    sizes = []
    for seed in range(3):
        d = generate(datasets.classification_params(seed))
        assert len(d.topics.topics) == 5
        assert len(d.topics.hashtags) == 100
        sizes.append(len(d.events.time))
    assert len(set(sizes)) > 1  # logs differ


def test_param_validation():
    with pytest.raises(DataError):
        generate(GenParams(n_users=0, seed=1))
    with pytest.raises(DataError):
        generate(GenParams(n_users=10, seed=1, graph_model="small-world"))
    with pytest.raises(DataError):
        generate(GenParams(n_users=10, seed=1, edge_prob=1.5))
    with pytest.raises(DataError):
        generate(GenParams(n_users=10, seed=1, graph_model=PREFERENTIAL,
                           attach_count=0))
    with pytest.raises(DataError):
        generate(GenParams(n_users=10, seed=1,
                           topic_profiles=(TopicProfile(),)))  # wrong count
    with pytest.raises(DataError):
        generate(GenParams(n_users=10, seed=1, n_topics=1,
                           topic_profiles=(TopicProfile(latency_jitter=0.5),)))


def test_emitted_files_reload(tmp_path):
    from genonet.ingest import load_dataset

    d = generate(GenParams(n_users=20, seed=5, edge_prob=0.15,
                           n_topics=2, hashtags_per_topic=3,
                           cascades_per_hashtag=2))
    manifest = d.write(tmp_path)
    net, events, topics = load_dataset(manifest)
    assert oracles.named(net) == oracles.named(d.network)
    assert oracles.named(events) == oracles.named(d.events)
    assert oracles.assignment(topics) == oracles.assignment(d.topics)


def test_uniform_graph_draws_rows_not_a_matrix():
    """The uniform model's peak memory stays far below one (n, n) matrix of
    draws: 8 n^2 bytes, 18 MB at 1,500 users."""
    import tracemalloc

    n = 1500
    p = GenParams(n_users=n, seed=4, edge_prob=0.002, n_topics=1,
                  hashtags_per_topic=1, cascades_per_hashtag=1)
    tracemalloc.start()
    try:
        generate(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n
