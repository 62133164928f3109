"""flowlens: per-time-block flow statistics for packet traces.

Pipeline pieces: pcap ingestion with direction filtering, throughput
variability and skewness gating, per-block flow aggregation with greedy-flow
selection, heavy-tail (complementary-CDF) analysis of flow sizes, TTL and
fingerprint based hop estimation, port-based application breakdown, and a
ground-truth synthetic trace generator for end-to-end validation.
"""

__version__ = "0.1.0"

from .apps import AppBreakdown, AppCategory, breakdown, classify
from .flows import (BlockingConfig, FlowKey, Flows, aggregate,
                    greedy_throughput_equivalent)
from .hops import (FingerprintDb, FingerprintEntry, HopHistogram,
                   HostEstimates, HostTtlEstimate, estimate_hosts,
                   hop_histogram, infer_initial_ttl, match_fingerprint)
from .ingest import DirectionFilter, IngestSummary, read_trace
from .pcapio import PacketRecord, Packets, SynSignature, extract_syn_signature
from .report import AnalysisParams, analyze_trace, write_report
from .synth import (FlowPlan, GroundTruth, HostSpec, ScenarioError,
                    ScenarioSpec, generate, load_scenario)
from .tail import LlcdCurve, TailFit, fit_tail, llcd
from .variability import (DegenerateSeriesError, ThroughputSeries, TraceGate,
                          gate_trace, skewness, throughput_series)
