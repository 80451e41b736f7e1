import pytest

from genonet.ingest import (
    build_adoption_index,
    load_events,
    load_follower_edges,
    load_topic_map,
)


@pytest.fixture(scope="session")
def toy():
    """Toy dataset T1: B follows A and C; one topic T = {x, y}."""
    net = load_follower_edges(["A\tB", "C\tB"])
    events = load_events(
        ["10\tA\t#x", "12\tC\t#x", "14\tC\t#y", "20\tB\t#x", "21\tB\t#x"]
    )
    topics = load_topic_map(["x\tT", "y\tT"])
    index = build_adoption_index(events, net, topics)
    return net, events, topics, index
