"""flowlens: per-time-block flow statistics for packet traces.

Pipeline pieces: pcap ingestion with direction filtering, throughput
variability and skewness gating, per-block flow aggregation with greedy-flow
selection, heavy-tail (complementary-CDF) analysis of flow sizes, TTL and
fingerprint based hop estimation, port-based application breakdown, and a
ground-truth synthetic trace generator for end-to-end validation.
"""

__version__ = "0.1.0"
