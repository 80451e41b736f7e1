"""Topic-specific adoption behavior analytics over follower networks.

The pipeline: load a follower graph, a timestamped hashtag event log
and a hashtag-to-topic map; index first uses and first exposures;
compute per-user per-topic behavioral genotypes; extract per-topic
influence backbones; and use genotypes plus backbones for hashtag-topic
classification, influencer/adopter ranking, and network latency
minimization.
"""

from .errors import DataError, DegenerateTrainingError, ParseError, TrainingError
from .ingest import (
    AdoptionIndex,
    Event,
    EventLog,
    FollowerNetwork,
    TopicMap,
    build_adoption_index,
    load_dataset,
    load_events,
    load_follower_edges,
    load_manifest,
    load_topic_map,
)
from .graph import (
    DirectedGraph,
    betweenness_centrality,
    jaccard_keys,
    kendall_tau,
    pagerank,
    strongly_connected_components,
    weakly_connected_components,
)
from .genotype import (
    Genome,
    MetricKind,
    build_genome,
    node_topic_latency,
    pair_metrics,
)
from .backbone import (
    BackboneReport,
    InfluenceBackbone,
    compare_with_follower,
    cross_topic_overlap,
    extract_backbone,
)
from .classify import (
    AccuracyCurve,
    ErrorTable,
    LeaveOneOutResult,
    LogisticFit,
    LooData,
    accuracy_curve,
    fit_logistic,
    leave_one_out,
    prepare_loo,
)
from .predict import (
    Direction,
    InstanceTable,
    PredictionContext,
    PredictorKind,
    build_instances,
    evaluate,
    roc_auc,
    score_candidates,
)
from .latmin import (
    Heuristic,
    LatencyGraph,
    MinimizationTrace,
    LatencyState,
    exact_k_latmin,
    minimize,
    prepare,
)
from .syngen import GenParams, GeneratedDataset, PlantedTruth, TopicProfile, generate

__version__ = "0.1.0"
