"""CLI behavior: exit codes, report layout, determinism, sidecar consistency."""

import ast
import csv
import gc
import json
import os
import re
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.apps import AppCategory
from flowlens.cli import build_parser, main
from flowlens.report import AnalysisParams
from flowlens.synth import generate
from flowlens.tail import fit_tail
from flowlens.variability import skewness

from helpers import (SRC_NET, mk_packet, random_scenario, skewed_trace,
                     table1_scenario, write_pcap)
from reference import FlowKey, classify, true_flows

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


def test_http_port_list_edges(kept_trace, tmp_path, capsys):
    """A port list is refused as a usage error when it holds 0 or 65536, and taken
    when it holds 1 or 65535."""
    for ports in ("0", "0,80", "65536", "80,65536"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(kept_trace), "--http-ports", ports])
        assert exc.value.code == 64, ports
        assert "bad port list" in capsys.readouterr().err, ports
    for i, ports in enumerate(("1", "65535", "1,80,65535")):
        out = tmp_path / f"out{i}"
        assert main(["analyze", str(kept_trace), "--out", str(out), "--http-ports", ports]) == 0
        params = json.loads((out / "report.json").read_text())["parameters"]
        assert params["http_ports"] == sorted(map(int, ports.split(","))), ports


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
    pcapng = tmp_path / "capture.bin"      # only the message may say pcapng
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
        doc.pop("trace_id")
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


def test_generate_leaves_numpy_ma_unimported(tmp_path):
    # as for analyze: the generator's host and label sets are taken without
    # a plain np.unique, which imports numpy.ma to ask whether it is masked
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy\n"
                           "print('numpy.ma' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    if bare.stdout.strip() != "False":
        pytest.skip("a bare import numpy loads numpy.ma here")
    scenario = tmp_path / "s.scenario"
    scenario.write_text("duration = 0.5\nseed = 3\nflows_per_block = fixed:4\n" + _HOSTS
                        + "10.0.0.2 7 src os:Windows 2000\n")
    code = ("import sys\n"
            "from flowlens.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules, code)\n")
    proc = subprocess.run([sys.executable, "-c", code, "generate", "--scenario",
                           str(scenario), "--out", str(tmp_path / "gen")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0", proc.stdout
    assert (tmp_path / "gen" / "trace.pcap").exists()


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
    # a bug, not a refusal: exit 70 (EX_SOFTWARE) and its traceback
    assert main(["analyze", str(kept_trace), str(rejected_trace), "--out", str(out)]) == 70
    captured = capsys.readouterr()
    assert f"flowlens analyze: {kept_trace}: unexpected error\nTraceback" in captured.err
    assert captured.err.rstrip().endswith("RuntimeError: boom")
    assert [json.loads(l)["trace"] for l in captured.out.strip().splitlines()] == ["rejected"]
    assert (out / "rejected" / "report.json").exists()
    assert not (out / "kept").exists()
    # the batch goes on and exits with its highest code: a bug outranks an
    # unreadable trace, whichever comes first
    for traces in ((kept_trace, tmp_path / "missing.pcap"),
                   (tmp_path / "missing.pcap", kept_trace)):
        assert main(["analyze", *map(str, traces), "--out", str(tmp_path / "m2")]) == 70
        assert "missing.pcap" in capsys.readouterr().err


def test_unexpected_error_in_generate_and_db_check(tmp_path, capsys, monkeypatch):
    import flowlens.cli as cli
    import flowlens.synth as synth

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(synth, "load_scenario", boom)
    monkeypatch.setattr(cli.FingerprintDb, "load", boom)
    for argv in (["generate", "--scenario", "s.scenario", "--out", str(tmp_path / "gen")],
                 ["fingerprint-db", "check", "x.db"]):
        assert main(argv) == 70
        err = capsys.readouterr().err
        assert err.startswith(f"flowlens {argv[0]}: unexpected error\nTraceback")
        assert err.rstrip().endswith("RuntimeError: boom")
    assert not (tmp_path / "gen").exists()


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


_HOSTS = "[hosts]\n10.0.0.1 5 src os:Linux 2.4\n203.0.113.1 5 dst ttl:64\n"


@pytest.mark.parametrize("text, code, message", [
    # a pcap record holds 32-bit seconds, 16-bit ports and lengths, an 8-bit protocol
    ("duration = 2e10\ntau = 1e10\n" + _HOSTS, 65, "2**32 s"),
    ("packet_bytes = 70000\n" + _HOSTS, 65, "packet_bytes"),
    ("flow_size_cap = 100000000000000000000\n" + _HOSTS, 65, "flow_size_cap"),
    (_HOSTS + "[flows]\n0 10.0.0.1 203.0.113.1 99999 80 6 5\n", 65, "ports"),
    (_HOSTS + "[flows]\n0 10.0.0.1 203.0.113.1 1024 80 300 5\n", 65, "protocol"),
    # addresses are IPv4 dotted quads, refused with the line they are on
    (_HOSTS.replace("10.0.0.1", "10.0.0.999") + "[flows]\n", 65, "s.scenario:2:"),
    (_HOSTS.replace("203.0.113.1", "::1"), 65, "s.scenario:3:"),
    (_HOSTS + "[flows]\n0 10.0.0.1 203.0.113.256 1024 80 6 5\n", 65, "s.scenario:5:"),
    # the largest span there is: one block of 4e9 s, its 3000 packets spread over it
    ("duration = 4e9\ntau = 4e9\n" + _HOSTS
     + "[flows]\n0 10.0.0.1 203.0.113.1 1024 80 6 3000\n", 0, ""),
    # a trace the reader accepts: snaplen at most MAX_CAPLEN
    ("snaplen = 4294967296\n" + _HOSTS, 65, "snaplen"),
    ("snaplen = 99999999999999999999\n" + _HOSTS, 65, "snaplen"),
    # each fraction finite and >= 0
    ("app_mix = http:nan,udp:1.0\n" + _HOSTS, 65, "app_mix"),
    ("app_mix = http:-0.5,udp:1.5\n" + _HOSTS, 65, "app_mix"),
    # a value that does not parse is refused with its key
    ("bidirectional = maybe\n" + _HOSTS, 65, "s.scenario:1: bad bidirectional 'maybe'"),
    ("link = token\n" + _HOSTS, 65, "s.scenario:1: bad link 'token'"),
    # values whose arithmetic overflowed: seconds in microseconds, a size draw
    ("duration = 1e303\n" + _HOSTS, 65, "duration"),
    ("tau = 1e303\n" + _HOSTS, 65, "tau"),
    ("flow_size_alpha = 1e-5\n" + _HOSTS, 65, "flow_size_alpha"),
    # more new flows than a block has slots, refused before planning them
    ("flows_per_block = fixed:4294967296\n" + _HOSTS, 65, "bad flows_per_block"),
    # a random plan bounded by its expected work: 1e9 flows, or blocks carrying
    # every flow on (600 blocks of 40 new flows grow to 24,000 a block)
    ("duration = 3000\ntau = 3000\nflows_per_block = poisson:1e9\n" + _HOSTS, 65,
     "random plan too large"),
    ("duration = 60\nflows_per_block = fixed:40\nkey_repeat_prob = 1\n" + _HOSTS, 65,
     "at most 2**20 are planned"),
    # the file must be UTF-8; the message gives the byte offset
    (b"duration = 0.5\n\xff\n" + _HOSTS.encode(), 65, "not UTF-8 text at byte 15"),
], ids=["span", "packet_bytes", "flow_size_cap", "port", "protocol", "bad-ip", "ipv6",
        "flow-ip", "huge-tau", "snaplen-2**32", "snaplen-huge", "app_mix-nan",
        "app_mix-negative", "bool", "link", "duration-overflow", "tau-overflow",
        "alpha-overflow", "fixed-huge", "plan-huge", "plan-carried", "not-utf8"])
def test_generate_exit_codes_in_a_child(text, code, message, tmp_path):
    """A refused scenario exits 65 with a message, no traceback and no --out."""
    scenario = tmp_path / "s.scenario"
    scenario.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "gen"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "flowlens", "generate", "--scenario",
                           str(scenario), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and message in proc.stderr, proc.stderr
    assert out.exists() == (code == 0)


# 999 valid host lines: the refused value is on the last line of 1000
_MANY_HOSTS = "".join(f"10.0.{i // 250}.{i % 250 + 1} 5 src ttl:64\n" if i < 500
                      else f"198.18.{i // 250}.{i % 250 + 1} 5 dst os:Linux 2.4\n"
                      for i in range(999))


@pytest.mark.parametrize("last, column, value, allowed", [
    ("10.0.9.999 5 src ttl:64", "ip", "10.0.9.999", "an IPv4 dotted quad other than "
     "the beacon's 192.0.2.255 and 192.0.2.254"),
    ("192.0.2.254 5 dst ttl:64", "ip", "192.0.2.254", "an IPv4 dotted quad"),
    ("010.0.9.1 5 src ttl:64", "ip", "010.0.9.1", "an IPv4 dotted quad"),
    ("10.0.9.1 256 src ttl:64", "hops", "256", "in 0..255"),
    ("10.0.9.1 -1 src ttl:64", "hops", "-1", "in 0..255"),
    ("10.0.9.1 five src ttl:64", "hops", "five", "in 0..255"),
    ("10.0.9.1 5 up ttl:64", "side", "up", "src or dst"),
    ("10.0.9.1 5 src os:", "os", "", "a fingerprint database label"),
    ("10.0.9.1 5 src ttl:0", "ttl", "0", "in 1..255"),
    ("10.0.9.1 5 src ttl:256", "ttl", "256", "in 1..255"),
    ("10.0.9.1 5 src ttl:sixty", "ttl", "sixty", "in 1..255"),
], ids=["ip", "ip-beacon", "ip-leading-zero", "hops", "hops-negative", "hops-word",
        "side", "os-empty", "ttl-zero", "ttl-256", "ttl-word"])
def test_generate_refuses_the_last_of_1000_hosts(last, column, value, allowed, tmp_path,
                                                 capsys):
    """A host value out of range on the last line is refused with its line,
    its column and the column's range, before anything is made."""
    scenario = tmp_path / "s.scenario"
    scenario.write_text("duration = 0.5\n[hosts]\n" + _MANY_HOSTS + last + "\n")
    out = tmp_path / "gen"
    assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 65
    err = capsys.readouterr().err
    assert f"{scenario}:1002: bad {column} {value!r}: must be {allowed}" in err, err
    assert not out.exists()


# Every key set, and an explicit plan, so that no mutant plans a large trace.
_VALID_SCENARIO = b"""\
duration = 0.3
tau = 0.1
seed = 7
flows_per_block = fixed:2
flow_size_alpha = 1.5
flow_size_cap = 40
packet_bytes = 200
bidirectional = true
app_mix = http:0.5,other_tcp:0.3,udp:0.15,other:0.05
key_repeat_prob = 0.2
snaplen = 96
link = raw

[hosts]
10.0.0.1     9  src  os:Linux 2.4
10.0.0.2    12  src  ttl:128
203.0.113.1  8  dst  os:FreeBSD 4.x

[flows]
0 10.0.0.1 203.0.113.1 1024 80 6 25
2 10.0.0.2 203.0.113.1 1025 53 17 4
"""
# edge, out-of-range, NaN and non-ASCII values, and a byte that is not UTF-8
_TOKENS = [b"0", b"-1", b"1", b"64", b"255", b"256", b"65535", b"65536", b"262145",
           b"4294967296", b"99999999999999999999", b"1e-06", b"1e303", b"inf", b"nan",
           b"", b"\xc3\xa9", b"\xd9\xa3", b"\xff", b"192.0.2.255", b"::1"]
_SEPARATORS = re.compile(rb"([\s|=,:]+)")


@st.composite
def _mutants(draw, text: bytes) -> bytes:
    """``text`` with one line dropped, or one value of a line swapped for a token."""
    lines = text.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.integers(0, 3)) == 0:
        return b"\n".join(lines[:i] + lines[i + 1:])
    parts = _SEPARATORS.split(lines[i])          # values at even indices
    values = [k for k in range(0, len(parts), 2) if parts[k]]
    if values:
        parts[draw(st.sampled_from(values))] = draw(st.sampled_from(_TOKENS))
    lines[i] = b"".join(parts)
    return b"\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutants(_VALID_SCENARIO))
def test_scenario_mutants_generate_or_exit_65(tmp_path_factory, text):
    """Any mutant of a valid scenario generates, or exits 65 and makes no --out."""
    d = tmp_path_factory.mktemp("mutant")
    (d / "m.scenario").write_bytes(text)
    code = main(["generate", "--scenario", str(d / "m.scenario"), "--out", str(d / "out")])
    assert code in (0, 65)
    assert (d / "out").exists() == (code == 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutants(resources.files("flowlens.data").joinpath("fingerprints.default").read_bytes()))
def test_fingerprint_db_mutants_check_or_exit_65(tmp_path_factory, text):
    """Any mutant of the built-in database passes the check or exits 65."""
    path = tmp_path_factory.mktemp("mutant") / "m.db"
    path.write_bytes(text)
    assert main(["fingerprint-db", "check", str(path)]) in (0, 65)


def test_cli_import_leaves_the_generator_unimported(tmp_path):
    # analyze never calls the generator, so the CLI imports it only for generate;
    # nothing analyze runs formats or packs an address with socket
    scenario = tmp_path / "s.scenario"
    scenario.write_text("duration = 0.5\nseed = 3\nflows_per_block = fixed:2\n"
                        "[hosts]\n10.0.0.1 9 src ttl:64\n203.0.113.1 8 dst ttl:128\n")
    code = ("import sys\n"
            "import flowlens.cli\n"
            "print('flowlens.synth' in sys.modules, 'socket' in sys.modules)\n"
            "code = flowlens.cli.main(sys.argv[1:])\n"
            "print('flowlens.synth' in sys.modules, code)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, "generate", "--scenario",
                           str(scenario), "--out", str(tmp_path / "gen")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False False" and lines[-1] == "True 0", proc.stdout
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

    latin1 = tmp_path / "latin1.db"      # not UTF-8: a data error, not a crash
    latin1.write_bytes("5840|64|1|MSS,SACK,TS,NOP,WS|*|Linux 2.4 \xe9t\xe9\n".encode("latin-1"))
    capsys.readouterr()
    assert main(["fingerprint-db", "check", str(latin1)]) == 65
    assert "not UTF-8 text at byte 41" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "x.pcap"), "--fingerprints", str(latin1)]) == 65
    assert "not UTF-8" in capsys.readouterr().err


def test_fingerprints_env_fallback(kept_trace, tmp_path, monkeypatch):
    bad_db = tmp_path / "bad.db"
    bad_db.write_text("broken\n")
    monkeypatch.setenv("FLOWLENS_FP_DB", str(bad_db))
    assert main(["analyze", str(kept_trace), "--out", str(tmp_path / "o1")]) == 65
    bad_db.write_bytes(b"5840|64|1|MSS|*|Linux\xff\n")
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


# what the installed `flowlens` script runs, as setuptools writes it
_SCRIPT = "import sys; from flowlens.__main__ import run; sys.argv[0] = 'flowlens'; sys.exit(run())"


def test_both_entries_give_mains_exit_codes(kept_trace, rejected_trace, tmp_path):
    """`python -m flowlens` and the installed script's call pass main's exit code
    and its whole stdout through run(), for success, a gate rejection, a
    usage error raised inside argparse and an unreadable trace."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    cases = ((0, [str(kept_trace)]), (2, [str(rejected_trace)]),
             (64, [str(kept_trace), "--tau", "x"]), (66, [str(tmp_path / "missing.pcap")]))
    for code, args in cases:
        argv = ["analyze", *args, "--out", str(tmp_path / "out")]
        runs = [subprocess.run([sys.executable, *entry, *argv], capture_output=True,
                               text=True, env=env)
                for entry in (["-m", "flowlens"], ["-c", _SCRIPT])]
        for proc in runs:
            assert proc.returncode == code, (code, proc.stderr)
            assert "Traceback" not in proc.stderr
        assert runs[0].stdout == runs[1].stdout
        if code in (0, 2):
            assert runs[0].stdout.endswith("}\n") and runs[0].stdout.count("\n") == 1
            line = json.loads(runs[0].stdout)
            assert set(line) == {"trace", "mean_bps", "skewness", "kept"}
            assert line["kept"] is (code == 0)
        else:
            assert runs[0].stdout == ""


def test_run_collects_while_main_runs_and_freezes_at_exit():
    """The collector is on while main runs, after the imports were frozen, and
    what main leaves behind is frozen before the process exits."""
    probe = ("import atexit, gc, sys\n"
             "import flowlens.cli as cli\n"
             "from flowlens.__main__ import run\n"
             "left = []\n"
             "def main():\n"
             "    print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
             "    left.append([])     # a container main leaves behind\n"
             "    return 3\n"
             "cli.main = main\n"
             "atexit.register(lambda: print(not any(o is left[0] for o in gc.get_objects())))\n"
             "sys.exit(run())\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "True True\nTrue\n", "")


def test_main_leaves_the_collector_as_it_finds_it(tmp_path, capsys):
    db = tmp_path / "ok.db"
    db.write_text("5840|64|1|MSS,SACK,TS,NOP,WS|*|Linux 2.4\n")
    before = (gc.isenabled(), gc.get_freeze_count())
    assert main(["fingerprint-db", "check", str(db)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_installed_script_is_the_module_entry():
    """pyproject's `flowlens` script names the function that `python -m flowlens`
    calls: the one flowlens/__main__.py's main guard runs."""
    text = (SRC.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:     # Python 3.10: read the line as text
        target = re.search(r'^flowlens = "(.+)"$', text, re.M).group(1)
    else:
        target = tomllib.loads(text)["project"]["scripts"]["flowlens"]
    module, attr = target.split(":")
    assert module == "flowlens.__main__"
    tree = ast.parse((SRC / "flowlens" / "__main__.py").read_text())
    guard = tree.body[-1]
    assert ast.unparse(guard) == f"if __name__ == '__main__':\n    sys.exit({attr}())"
    assert attr in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_analyze_defaults_are_the_analysis_defaults():
    args = build_parser().parse_args(["analyze", "x"])
    defaults = AnalysisParams()
    for name in ("tau", "min_packets", "greedy_threshold", "skew_min", "keep",
                 "http_ports", "fingerprints", "force"):
        assert getattr(args, name) == getattr(defaults, name), name


def test_reports_byte_identical(tmp_path):
    spec = random_scenario(31)
    trace, _ = generate(spec, tmp_path / "trace.pcap")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        code = main(["analyze", str(trace), "--out", str(out),
                     "--keep", f"src:{SRC_NET}", "--force"])
        assert code in (0, 2)
    for name in ("report.json", "throughput.csv", "flows.csv", "llcd.csv",
                 "hops_all.csv", "hops_greedy.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_hop_means_match_ground_truth(tmp_path):
    from helpers import hop_means_scenario
    trace, gt = generate(hop_means_scenario(), tmp_path / "hops.pcap")
    out = tmp_path / "out"
    main(["analyze", str(trace), "--out", str(out), "--keep", f"src:{SRC_NET}",
          "--force"])
    report = json.loads((out / "report.json").read_text())
    flows = [f for f in true_flows(gt) if f.n_packets >= 2]
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
        curve = tuple((int(r["x"]), float(r["p"])) for r in llcd_rows)
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
