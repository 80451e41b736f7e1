"""Topic-specific adoption behavior analytics over follower networks.

The pipeline: load a follower graph, a timestamped hashtag event log
and a hashtag-to-topic map; index first uses and first exposures;
compute per-user per-topic behavioral genotypes; extract per-topic
influence backbones; and use genotypes plus backbones for hashtag-topic
classification, influencer/adopter ranking, and network latency
minimization.
"""

__version__ = "0.1.0"
