"""CLI behavior: exit codes, report layout, determinism, sidecar consistency."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from flowlens.apps import AppCategory, classify
from flowlens.cli import build_parser, main
from flowlens.flows import FlowKey
from flowlens.report import AnalysisParams
from flowlens.synth import generate
from flowlens.tail import LlcdCurve, fit_tail
from flowlens.variability import skewness

from helpers import (SRC_NET, mk_packet, random_scenario, skewed_trace,
                     table1_scenario, write_pcap)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def kept_trace(tmp_path):
    # right-skewed block loads -> g1 = +1.5, above the 0.4 gate
    return skewed_trace(tmp_path / "kept.pcap", [1, 1, 1, 1, 8])


@pytest.fixture
def rejected_trace(tmp_path):
    # left-skewed -> g1 = -1.5, below the gate
    return skewed_trace(tmp_path / "rejected.pcap", [8, 8, 8, 8, 1])


def test_analyze_kept_trace(kept_trace, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", str(kept_trace), "--out", str(out)])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["kept"] is True and line["trace"] == "kept"
    assert line["skewness"] == pytest.approx(1.5)
    report = json.loads((out / "report.json").read_text())
    assert report["gate"]["kept"] is True
    for name in ("throughput.csv", "flows.csv", "llcd.csv",
                 "hops_all.csv", "hops_greedy.csv"):
        assert (out / name).exists()


def test_gate_rejected_exit_2_gate_only(rejected_trace, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", str(rejected_trace), "--out", str(out)])
    assert code == 2
    line = json.loads(capsys.readouterr().out.strip())
    assert line["kept"] is False
    report = json.loads((out / "report.json").read_text())
    assert report["gate"]["kept"] is False
    assert "app_table" not in report and "hop_summary" not in report
    assert not (out / "flows.csv").exists()
    assert (out / "throughput.csv").exists()   # gate evidence stays recomputable


def test_force_emits_full_report(rejected_trace, tmp_path):
    out = tmp_path / "out"
    code = main(["analyze", str(rejected_trace), "--out", str(out), "--force"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gate"]["kept"] is False
    assert "app_table" in report and (out / "flows.csv").exists()


def test_parameter_echo(kept_trace, tmp_path):
    out = tmp_path / "out"
    main(["analyze", str(kept_trace), "--out", str(out),
          "--tau", "0.2", "--greedy-threshold", "40", "--skew-min", "0.3",
          "--http-ports", "80,8080", "--keep", "src:10.0.0.0/8"])
    params = json.loads((out / "report.json").read_text())["parameters"]
    assert params["tau"] == 0.2
    assert params["greedy_threshold"] == 40
    assert params["skew_min"] == 0.3
    assert params["http_ports"] == [80, 8080]
    assert params["keep"] == "src:10.0.0.0/8"
    assert params["greedy_equivalent_bps"] == 40 * 700 * 8 / 0.2


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])           # missing trace argument
    assert exc.value.code == 64
    assert main(["analyze", "x.pcap", "--keep", "bogus::"]) == 64
    assert main(["analyze", "x.pcap", "--tau", "-1"]) == 64
    capsys.readouterr()
    # block and bin indices are ts_us // tau_us in int64 microseconds
    for bad in (["--tau", "inf"], ["--tau", "1e400"], ["--tau", "nan"],
                ["--tau", "1e300"], ["--tau", "9.3e12"], ["--skew-min", "nan"]):
        assert main(["analyze", "x.pcap", *bad]) == 64, bad
        err = capsys.readouterr().err
        assert "bad arguments:" in err and "Traceback" not in err, bad
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x.pcap", "--jobs", "2"])   # traces run one after another
    assert exc.value.code == 64


def test_unreadable_input_exit_66(tmp_path):
    assert main(["analyze", str(tmp_path / "missing.pcap")]) == 66
    garbage = tmp_path / "garbage.pcap"
    garbage.write_bytes(b"\x00" * 64)
    assert main(["analyze", str(garbage), "--out", str(tmp_path / "o")]) == 66


def test_oversized_caplen_exits_66_under_memory_cap(kept_trace, tmp_path):
    # record 50 of 200 claims 2 GiB of captured bytes; the reader must
    # refuse it before allocating, so a 2 GiB address-space cap is plenty
    path = write_pcap([mk_packet(i * 1e-3, sport=1000 + i) for i in range(200)],
                      tmp_path / "huge.pcap")
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 24 + 50 * (16 + 14 + 700) + 8, 0x7FFFFFFF)
    path.write_bytes(bytes(data))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from flowlens.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, "analyze", str(path),
                           str(kept_trace), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 66, proc.stderr
    assert "Traceback" not in proc.stderr and "record 50 claims" in proc.stderr
    assert (tmp_path / "out" / "kept" / "report.json").exists()   # batch went on


def test_format_errors_name_the_trace_once(tmp_path, capsys):
    # the CLI names the trace, so the reader's messages leave the path out
    short = tmp_path / "short.pcap"
    short.write_bytes(b"\xd4\xc3\xb2\xa1")
    pcapng = tmp_path / "capture.pcapng"
    pcapng.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 40)
    garbage = tmp_path / "garbage.pcap"
    garbage.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 40)
    huge = write_pcap([mk_packet(i * 1e-3, sport=1000 + i) for i in range(3)],
                      tmp_path / "huge.pcap")
    data = bytearray(huge.read_bytes())
    struct.pack_into("<I", data, 24 + (16 + 14 + 700) + 8, 0x7FFFFFFF)
    huge.write_bytes(bytes(data))
    for path, message in ((short, "too short"), (pcapng, "pcapng"),
                          (garbage, "magic"), (huge, "record 1 claims")):
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 66
        err = capsys.readouterr().err
        assert message in err and err.count(str(path)) == 1, err


def test_pipe_input_matches_file(tmp_path):
    # a pipe is read in the same fixed-size windows as a file and analyzed the same way
    trace, _ = generate(random_scenario(31), tmp_path / "trace.pcap")
    args = ["--keep", f"src:{SRC_NET}", "--force"]
    assert main(["analyze", str(trace), "--out", str(tmp_path / "file"), *args]) in (0, 2)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "flowlens", "analyze", "/dev/stdin",
                           "--out", str(tmp_path / "pipe"), *args],
                          input=trace.read_bytes(), env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode in (0, 2), proc.stderr
    assert b"Traceback" not in proc.stderr
    for name in ("throughput.csv", "flows.csv", "llcd.csv",
                 "hops_all.csv", "hops_greedy.csv"):
        assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
    reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in ("file", "pipe")]
    for doc in reports:
        doc.pop("generated_at"), doc.pop("trace_id")
    assert reports[0] == reports[1]


def test_analyze_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma takes about 12 ms to import and no stage needs it; a plain
    # np.unique over an array imports it lazily
    trace, _ = generate(random_scenario(32), tmp_path / "trace.pcap")
    code = ("import sys\n"
            "from flowlens.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules, code)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, "analyze", str(trace), "--force",
                           "--keep", f"src:{SRC_NET}", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] in ("False 0", "False 2")
    assert (tmp_path / "out" / "llcd.csv").exists()


def test_multiple_traces_get_subdirs(kept_trace, rejected_trace, tmp_path, capsys):
    out = tmp_path / "multi"
    code = main(["analyze", str(kept_trace), str(rejected_trace),
                 "--out", str(out)])
    assert code == 2      # one trace was gate-rejected
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [l["trace"] for l in lines] == ["kept", "rejected"]
    assert (out / "kept" / "report.json").exists()
    assert (out / "rejected" / "report.json").exists()


def test_batch_error_keeps_other_traces(kept_trace, rejected_trace, tmp_path, capsys):
    out = tmp_path / "multi"
    missing = tmp_path / "missing.pcap"
    code = main(["analyze", str(kept_trace), str(missing), str(rejected_trace),
                 "--out", str(out)])
    assert code == 66     # an unreadable trace beats a gate rejection
    captured = capsys.readouterr()
    lines = [json.loads(l) for l in captured.out.strip().splitlines()]
    assert [l["trace"] for l in lines] == ["kept", "rejected"]
    assert str(missing) in captured.err
    assert (out / "kept" / "report.json").exists()
    assert (out / "rejected" / "report.json").exists()
    assert not (out / "missing").exists()

    assert main(["analyze", str(rejected_trace), str(missing),
                 "--out", str(tmp_path / "m2")]) == 66


def test_unexpected_error_isolated_per_trace(kept_trace, rejected_trace, tmp_path,
                                             capsys, monkeypatch):
    import flowlens.cli as cli
    real = cli.analyze_trace

    def failing_on_kept(path, params, db):
        if Path(path).stem == "kept":
            raise RuntimeError("boom")
        return real(path, params, db)

    monkeypatch.setattr(cli, "analyze_trace", failing_on_kept)
    out = tmp_path / "multi"
    assert main(["analyze", str(kept_trace), str(rejected_trace), "--out", str(out)]) == 65
    captured = capsys.readouterr()
    assert f"flowlens analyze: {kept_trace}: RuntimeError: boom" in captured.err
    assert "Traceback" not in captured.err
    assert [json.loads(l)["trace"] for l in captured.out.strip().splitlines()] == ["rejected"]
    assert (out / "rejected" / "report.json").exists()
    assert not (out / "kept").exists()
    # an unreadable trace still outranks a failed one
    assert main(["analyze", str(kept_trace), str(tmp_path / "missing.pcap"),
                 "--out", str(tmp_path / "m2")]) == 66


def test_duplicate_stems_rejected_before_analysis(tmp_path, capsys):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    a = skewed_trace(tmp_path / "a" / "x.pcap", [1, 1, 1, 1, 8])
    b = skewed_trace(tmp_path / "b" / "x.pcap", [8, 8, 8, 8, 1])
    out = tmp_path / "out"
    assert main(["analyze", str(a), str(b), "--out", str(out), "--force"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith("share an output directory: x")
    assert not out.exists()


def test_generate_subcommand(tmp_path, capsys):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        "duration = 0.5\nseed = 3\nflows_per_block = fixed:2\n"
        "[hosts]\n"
        "10.0.0.1 9 src os:Linux 2.4\n"
        "203.0.113.1 8 dst os:FreeBSD 4.x\n")
    out = tmp_path / "gen"
    assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out.strip())
    assert (out / "trace.pcap").exists()
    assert (out / "trace.ground_truth.json").exists()
    assert meta["flows"] > 0

    code = main(["analyze", str(out / "trace.pcap"), "--out", str(tmp_path / "an"),
                 "--keep", f"src:{SRC_NET}", "--force"])
    assert code in (0, 2)


def test_generate_bad_scenario(tmp_path, capsys):
    hosts = "[hosts]\n10.0.0.1 5 src ttl:64\n203.0.113.1 5 dst ttl:64\n"
    bad = tmp_path / "bad.scenario"
    for line, why in (("duration = -1", "duration"),
                      ("duration = inf", "duration"), ("duration = nan", "duration"),
                      ("tau = inf", "tau"), ("tau = nan", "tau"),
                      ("flow_size_alpha = nan", "flow_size_alpha"),
                      ("flows_per_block = fixed:two", "bad flows_per_block"),
                      ("flows_per_block = poisson:lots", "bad flows_per_block")):
        bad.write_text(line + "\n" + hosts)
        out = tmp_path / "new" / "dir"
        assert main(["generate", "--scenario", str(bad), "--out", str(out)]) == 65
        assert why in capsys.readouterr().err
        assert not (tmp_path / "new").exists()      # rejected before anything is made
    assert main(["generate", "--scenario", str(tmp_path / "nope"), "--out",
                 str(tmp_path)]) == 66
    # a valid scenario, but --out names an existing file
    good = tmp_path / "good.scenario"
    good.write_text("duration = 0.5\n" + hosts)
    taken = tmp_path / "taken"
    taken.write_text("")
    capsys.readouterr()
    assert main(["generate", "--scenario", str(good), "--out", str(taken)]) == 66
    assert capsys.readouterr().err.startswith("flowlens generate: ")


def test_cli_import_leaves_the_generator_unimported(tmp_path):
    # analyze never calls the generator, so the CLI imports it only for generate
    scenario = tmp_path / "s.scenario"
    scenario.write_text("duration = 0.5\nseed = 3\nflows_per_block = fixed:2\n"
                        "[hosts]\n10.0.0.1 9 src ttl:64\n203.0.113.1 8 dst ttl:128\n")
    code = ("import sys\n"
            "import flowlens.cli\n"
            "print('flowlens.synth' in sys.modules)\n"
            "code = flowlens.cli.main(sys.argv[1:])\n"
            "print('flowlens.synth' in sys.modules, code)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, "generate", "--scenario",
                           str(scenario), "--out", str(tmp_path / "gen")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "True 0", proc.stdout
    assert json.loads(lines[1])["packets"] > 0
    assert (tmp_path / "gen" / "trace.pcap").exists()


def test_fingerprint_db_check(tmp_path, capsys):
    good = tmp_path / "good.db"
    good.write_text("5840|64|1|MSS,SACK,TS,NOP,WS|*|Linux 2.4\n")
    assert main(["fingerprint-db", "check", str(good)]) == 0
    assert "OK: 1 entries" in capsys.readouterr().out

    bad = tmp_path / "bad.db"
    bad.write_text("not|a|valid|line\n")
    assert main(["fingerprint-db", "check", str(bad)]) == 65
    assert main(["fingerprint-db", "check", str(tmp_path / "missing.db")]) == 66


def test_fingerprints_env_fallback(kept_trace, tmp_path, monkeypatch):
    bad_db = tmp_path / "bad.db"
    bad_db.write_text("broken\n")
    monkeypatch.setenv("FLOWLENS_FP_DB", str(bad_db))
    assert main(["analyze", str(kept_trace), "--out", str(tmp_path / "o1")]) == 65
    good_db = tmp_path / "good.db"
    good_db.write_text("5840|64|1|MSS,SACK,TS,NOP,WS|*|Linux 2.4\n")
    assert main(["analyze", str(kept_trace), "--out", str(tmp_path / "o2"),
                 "--fingerprints", str(good_db)]) == 0   # the flag wins


def test_module_entrypoint_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "flowlens", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "flowlens" in proc.stdout


def test_analyze_defaults_are_the_analysis_defaults():
    args = build_parser().parse_args(["analyze", "x"])
    defaults = AnalysisParams()
    for name in ("tau", "min_packets", "greedy_threshold", "skew_min", "keep",
                 "http_ports", "fingerprints", "force"):
        assert getattr(args, name) == getattr(defaults, name), name


def _strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc.pop("generated_at")
    return json.dumps(doc, sort_keys=True)


def test_reports_byte_identical_modulo_timestamp(tmp_path):
    spec = random_scenario(31)
    trace, _ = generate(spec, tmp_path / "trace.pcap")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        code = main(["analyze", str(trace), "--out", str(out),
                     "--keep", f"src:{SRC_NET}", "--force"])
        assert code in (0, 2)
    assert _strip_timestamp(out1 / "report.json") == _strip_timestamp(out2 / "report.json")
    for name in ("throughput.csv", "flows.csv", "llcd.csv",
                 "hops_all.csv", "hops_greedy.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_hop_means_match_ground_truth(tmp_path):
    from helpers import hop_means_scenario
    trace, gt = generate(hop_means_scenario(), tmp_path / "hops.pcap")
    out = tmp_path / "out"
    main(["analyze", str(trace), "--out", str(out), "--keep", f"src:{SRC_NET}",
          "--force"])
    report = json.loads((out / "report.json").read_text())
    flows = [f for f in gt.flows if f.n_packets >= 2]
    truth_all = sum(f.path_hops for f in flows) / len(flows)
    greedy = [f for f in flows if f.n_packets > 20]
    truth_greedy = sum(f.path_hops for f in greedy) / len(greedy)
    assert report["hop_summary"]["mean_all"] == pytest.approx(truth_all, abs=1e-9)
    assert report["hop_summary"]["mean_greedy"] == pytest.approx(truth_greedy, abs=1e-9)
    assert report["hop_summary"]["coverage_fraction"] == 1.0


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_report_numbers_recomputable_from_sidecars(tmp_path):
    trace, _ = generate(table1_scenario(), tmp_path / "t.pcap")
    out = tmp_path / "out"
    main(["analyze", str(trace), "--out", str(out),
          "--keep", f"src:{SRC_NET}", "--force"])
    report = json.loads((out / "report.json").read_text())

    values = [float(r["bps"]) for r in _read_csv(out / "throughput.csv")]
    assert report["gate"]["mean_bps"] == sum(values) / len(values)
    if report["gate"]["skewness"] is not None:
        assert report["gate"]["skewness"] == skewness(values)

    flows_rows = _read_csv(out / "flows.csv")
    assert report["flows"]["n_records"] == len(flows_rows)
    assert report["flows"]["n_greedy"] == sum(int(r["is_greedy"]) for r in flows_rows)

    http_ports = frozenset(report["parameters"]["http_ports"])
    for greedy_only, col in ((False, "all"), (True, "greedy")):
        rows = [r for r in flows_rows if not greedy_only or int(r["is_greedy"])]
        for cat in AppCategory:
            want = report["app_table"][cat.value][col]
            got = sum(1 for r in rows if classify(
                FlowKey(r["src_ip"], r["dst_ip"], int(r["src_port"]),
                        int(r["dst_port"]), int(r["proto"])), http_ports) is cat
                      ) / len(rows)
            assert want == got

    llcd_rows = _read_csv(out / "llcd.csv")
    if report["llcd_fit"] is not None:
        curve = LlcdCurve(points=tuple((int(r["x"]), float(r["p"]))
                                       for r in llcd_rows),
                          n_samples=len(flows_rows))
        refit = fit_tail(curve, x_min=report["llcd_fit"]["x_min"])
        assert report["llcd_fit"]["alpha"] == refit.alpha
        assert report["llcd_fit"]["r_squared"] == refit.r_squared
        assert report["llcd_fit"]["n_tail"] == refit.n_tail

    for name, mean_key, n_key in (("hops_all.csv", "mean_all", "n_all"),
                                  ("hops_greedy.csv", "mean_greedy", "n_greedy")):
        rows = _read_csv(out / name)
        n = sum(int(r["count"]) for r in rows)
        assert report["hop_summary"][n_key] == n
        if n:
            mean = sum(int(r["hops"]) * int(r["count"]) for r in rows) / n
            assert report["hop_summary"][mean_key] == mean
    assert report["hop_summary"]["coverage_fraction"] == \
        report["hop_summary"]["n_all"] / report["flows"]["n_records"]
