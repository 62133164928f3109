"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; plain `pytest` reports the same outcomes per test.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flowlens.apps import AppCategory, classify
from flowlens.cli import main
from flowlens.flows import BlockingConfig, aggregate, greedy_throughput_equivalent
from flowlens.report import AnalysisParams, analyze_trace
from flowlens.synth import generate, sample_flow_size
from flowlens.tail import LlcdCurve, fit_tail, llcd
from flowlens.variability import gate_trace, skewness, throughput_series

from helpers import SRC_NET, flow_keys, hop_means_scenario, mk_packet, \
    random_scenario, table1_scenario
from reference import flow_rows, from_records


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number}] FAIL  {description}")
        raise
    print(f"[ACCEPTANCE {number}] PASS  {description}")


def test_criterion_1_closed_loop_oracle(tmp_path):
    with criterion(1, "closed-loop ground-truth recovery over 20 scenarios, < 60 s"):
        start = time.monotonic()
        params = AnalysisParams(keep=f"src:{SRC_NET}", force=True)
        for seed in range(1, 21):
            spec = random_scenario(seed)
            path, gt = generate(spec, tmp_path / f"s{seed}.pcap")
            result = analyze_trace(path, params)
            keys = flow_keys(result.records)
            got = {(b, k): (n, g, classify(k)) for (b, k), n, g in zip(
                keys, result.records.n_packets.tolist(), result.records.is_greedy.tolist())}
            want = {(f.block, f.key): (f.n_packets, f.n_packets > 20, f.category)
                    for f in gt.flows if f.n_packets >= 2}
            assert got == want, f"scenario seed {seed}: flow recovery mismatch"
            path_hops = dict(zip(keys, result.flow_hops.tolist()))
            for f in gt.flows:
                if not (f.hops_exact and f.n_packets >= 2):
                    continue
                hops = path_hops[(f.block, f.key)]
                assert hops != -1, f"seed {seed}: no estimate for {f.key}"
                assert hops == f.path_hops, f"seed {seed}: hops mismatch"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_2_tail_fit_recovery():
    with criterion(2, "alpha within 0.1 at 1e5 Pareto samples; 1e-6 noiseless"):
        for alpha in (1.0, 1.5, 2.0):
            rng = random.Random(42)
            samples = [sample_flow_size(rng, alpha, cap=10**6)
                       for _ in range(100_000)]
            fit = fit_tail(llcd(samples), x_min=20)
            assert abs(fit.alpha - alpha) <= 0.1, \
                f"alpha {alpha}: estimated {fit.alpha:.4f}"
        for alpha in (1.0, 1.2, 1.5, 2.0):
            curve = LlcdCurve(points=tuple((x, x ** -alpha) for x in range(20, 201)),
                              n_samples=181)
            fit = fit_tail(curve, x_min=20)
            assert abs(fit.alpha - alpha) <= 1e-6
            assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_criterion_3_skewness_correctness():
    with criterion(3, "g1 vs 3-pass oracle 1e-12; exp/normal Monte Carlo; gate"):
        rng = random.Random(30)
        for _ in range(50):
            values = [rng.uniform(-10, 10) for _ in range(rng.randint(3, 400))]
            mean = math.fsum(values) / len(values)
            m2 = math.fsum((x - mean) ** 2 for x in values) / len(values)
            if m2 == 0:
                continue
            m3 = math.fsum((x - mean) ** 3 for x in values) / len(values)
            assert abs(skewness(values) - m3 / m2 ** 1.5) <= 1e-12

        nprng = np.random.default_rng(42)
        assert abs(skewness(nprng.exponential(1.0, 100_000)) - 2.0) <= 0.1
        assert abs(skewness(nprng.normal(0.0, 1.0, 100_000))) < 0.05

        from flowlens.variability import ThroughputSeries
        for _ in range(100):
            values = tuple(rng.uniform(0, 100) for _ in range(20))
            g1 = skewness(values)
            series = ThroughputSeries(0.1, (0,) * 20, float(np.mean(values)), g1)
            assert gate_trace(series, 0.4) == (g1 >= 0.4)


def test_criterion_4_paper_shape_reproduction(tmp_path):
    with criterion(4, "planted Table-1 mix within 1%; hop means 19.85/17.92 within 0.5"):
        params = AnalysisParams(keep=f"src:{SRC_NET}", force=True)

        path, _ = generate(table1_scenario(), tmp_path / "t1.pcap")
        result = analyze_trace(path, params)
        mix = result.app_all.proportions
        assert mix[AppCategory.HTTP] == pytest.approx(0.54, abs=0.01)
        assert mix[AppCategory.OTHER_TCP] == pytest.approx(0.38, abs=0.01)
        assert mix[AppCategory.UDP] == pytest.approx(0.07, abs=0.01)
        assert mix[AppCategory.OTHER] == pytest.approx(0.01, abs=0.01)
        assert result.app_greedy.proportions[AppCategory.HTTP] == \
            pytest.approx(0.70, abs=0.01)

        path, _ = generate(hop_means_scenario(), tmp_path / "hops.pcap")
        result = analyze_trace(path, params)
        assert result.hist_all.mean == pytest.approx(19.85, abs=0.5)
        assert result.hist_greedy.mean == pytest.approx(17.92, abs=0.5)


def test_criterion_5_throughput_equivalence():
    with criterion(5, "greedy-threshold throughput equivalence is exactly 1.12 Mbps"):
        cfg = BlockingConfig(tau=0.1, min_packets=2, greedy_threshold=20)
        assert greedy_throughput_equivalent(cfg, 700) == 1_120_000.0


def test_criterion_6_conservation_and_partition():
    with criterion(6, "conservation/partition/LLCD invariants on 100 random inputs, < 10 s"):
        start = time.monotonic()
        rng = random.Random(60)
        cfg = BlockingConfig()
        for _ in range(100):
            packets = [mk_packet(rng.randrange(0, 1_000_000) / 1e6,
                                 src=f"10.0.0.{rng.randint(1, 5)}",
                                 sport=rng.choice([1024, 1025]),
                                 dport=rng.choice([80, 53]),
                                 ip_len=rng.randint(20, 1500))
                       for _ in range(rng.randint(1, 300))]
            columns = from_records(packets)
            series = throughput_series(columns, 0.1)
            assert sum(series.byte_counts) == sum(p.ip_len for p in packets)

            flows = aggregate(columns, cfg)
            per_cell = {}
            for p in packets:
                cell = (p.ts_us // cfg.tau_us,
                        p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto)
                per_cell[cell] = per_cell.get(cell, 0) + 1
            admitted = {c: n for c, n in per_cell.items() if n >= cfg.min_packets}
            got = {tuple(row[:6]): row[6] for row in flow_rows(flows)}
            assert got == admitted
            assert sum(got.values()) <= len(packets)

            samples = [rng.randint(1, 60) for _ in range(rng.randint(1, 1000))]
            n = len(samples)
            brute = [(x, sum(1 for s in samples if s > x) / n)
                     for x in sorted(set(samples))
                     if any(s > x for s in samples)]
            assert list(llcd(samples).points) == brute
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_7_deterministic_reports(tmp_path):
    with criterion(7, "re-running analyze yields byte-identical reports (sans timestamp)"):
        trace, _ = generate(random_scenario(77), tmp_path / "trace.pcap")
        outs = (tmp_path / "r1", tmp_path / "r2")
        for out in outs:
            code = main(["analyze", str(trace), "--out", str(out),
                         "--keep", f"src:{SRC_NET}", "--force"])
            assert code in (0, 2)
        docs = []
        for out in outs:
            doc = json.loads((out / "report.json").read_text())
            doc.pop("generated_at")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]
        for name in ("throughput.csv", "flows.csv", "llcd.csv",
                     "hops_all.csv", "hops_greedy.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
