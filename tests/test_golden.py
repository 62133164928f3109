"""Golden outputs: sha256 of every file `flowlens analyze` writes, and its stdout.

Small seeded traces cover a dst-side keep filter, a gate-rejected trace
without --force, a forced trace with no flow records and a two-trace batch.
No output depends on record order, so the dst-side trace with its records
shuffled, under the same file name, must give the in-order digests.
Every file is hashed as written. A change that moves any output byte fails here. If a
change means to alter the output, recompute the digests with
`_run_case` and say why in CHANGES.md.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import pytest

from flowlens.cli import main
from flowlens.synth import generate

from helpers import SRC_NET, random_scenario, shuffle_records, skewed_trace


def _keep_dst(tmp):
    pcap, _ = generate(random_scenario(11), tmp / "dst.pcap")
    return [pcap], ["--keep", "dst:203.0.113.0/24", "--force"]


def _keep_dst_shuffled(tmp):
    [pcap], args = _keep_dst(tmp)
    shuffled = shuffle_records(pcap, tmp / "shuffled" / pcap.name, seed=3)
    assert shuffled.read_bytes() != pcap.read_bytes()
    return [shuffled], args


def _rejected(tmp):
    return [skewed_trace(tmp / "rejected.pcap", [8, 8, 8, 8, 1])], []


def _no_records(tmp):
    return [skewed_trace(tmp / "single.pcap", [8, 8, 8, 8, 1])], ["--force"]


def _batch(tmp):
    a, _ = generate(random_scenario(5), tmp / "a.pcap")
    b = skewed_trace(tmp / "b.pcap", [8, 8, 8, 8, 1])
    return [a, b], ["--keep", f"src:{SRC_NET}"]


CASES = {"keep-dst": _keep_dst, "keep-dst-shuffled": _keep_dst_shuffled,
         "rejected": _rejected, "no-records": _no_records, "batch": _batch}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _output_digests(out):
    return {path.relative_to(out).as_posix(): _sha256(path.read_bytes())
            for path in sorted(p for p in out.rglob("*") if p.is_file())}


def _run_case(name, tmp):
    """(exit code, stdout digest, {output file: digest}) of one golden case."""
    traces, args = CASES[name](tmp)
    out = tmp / "out"
    stdout = StringIO()
    with redirect_stdout(stdout):
        code = main(["analyze", *map(str, traces), "--out", str(out), *args])
    return code, _sha256(stdout.getvalue().encode()), _output_digests(out)


# name -> (exit code, stdout digest, {output file: digest})
GOLDEN = {
    "batch": (2, "052f91c83c99b752d011477591d70d16aac8ae8a874abbeefe6ed9e7f462e7a1", {
        "a/flows.csv": "571fa58a774036533ebb69367207a97f203811ae2626e5a077ec84bc662129ef",
        "a/hops_all.csv": "933049e45eb44ccb77bbf51ca2abbd1683ce94dd1a63b971c11e097dd169b99a",
        "a/hops_greedy.csv": "9e406343ad2b7844c8a8f8287d60e7d22a35cd5cdd097e48afeebda13e2ac814",
        "a/llcd.csv": "fdb410e076191a1d82f05c3513c46afae0ebcb1d9b7c9f264f51fa688f60c084",
        "a/report.json": "da911f5ed9f69f98da1d3c06945baf7d230d55afaf8fb0dbf15eb7956301f3db",
        "a/throughput.csv": "9fa6193f7cfdbc5342e88465e35b0b131855aa180fc803b48ea013ab4aaa4f46",
        "b/report.json": "ffd1f433f1542693e09f8663260c81c8591e7aa5b92f2488daf4525623fb2329",
        "b/throughput.csv": "e88c31f1d3feec09074091d9e226bfbfc05cd8e61354cee596cca6e67a8e1282",
    }),
    "keep-dst": (0, "cffd95efcb8cf24c88d28554eb72443d65b3a3b49f80f1f24dc138f7d431c1de", {
        "flows.csv": "36c20f4b8f77c5ed304cffdd98b421a8d6cb88ddb20e486eeb761b143051efc9",
        "hops_all.csv": "dcd8bcff3e8d2308bb0c647b5261a241de162df79ae5ae3e4e56a2e33521b283",
        "hops_greedy.csv": "0ea0a713aee82e8eca744524ad48383f0af454467d7a8a65f3f4c994a480280b",
        "llcd.csv": "223d114eb8c1e174930e796fe560f042f96e3f9da04cf9331a945860b9007ab4",
        "report.json": "f353dc8234d104586e75f838aa1e7985b08fa6462119b3b368a65a6b7a45acb8",
        "throughput.csv": "4c7ba0da57f7b04db019acd20c1a6b1ab009b5eb75ca59a987b43ffb7c6c32bc",
    }),
    "no-records": (0, "802cfed3594d1af2caf355522774fa0f82b67bd0df51a59f1957fa41fea10ea9", {
        "flows.csv": "cdc4018d0b1a5777c49540d196d93acd23b89fc486ed7fa9b6418e78121668ed",
        "hops_all.csv": "0ea0a713aee82e8eca744524ad48383f0af454467d7a8a65f3f4c994a480280b",
        "hops_greedy.csv": "0ea0a713aee82e8eca744524ad48383f0af454467d7a8a65f3f4c994a480280b",
        "llcd.csv": "9877db29c2989132735ffb3c9966d46d58140fc5e1e447a0a1beef61d90e3596",
        "report.json": "c0cbcca319cb422c38d4bdf841873d1cfb85f6197b7e0354a8df7645e556d9da",
        "throughput.csv": "e88c31f1d3feec09074091d9e226bfbfc05cd8e61354cee596cca6e67a8e1282",
    }),
    "rejected": (2, "d5127999e0a610c353e13c17c26b115b0ae5b9f99cd7314ba478d56b86b335c9", {
        "report.json": "1f47e5b39d42581120a4ada429226e622be17a78bedd07347857ac4906d2ff62",
        "throughput.csv": "e88c31f1d3feec09074091d9e226bfbfc05cd8e61354cee596cca6e67a8e1282",
    }),
}
GOLDEN["keep-dst-shuffled"] = GOLDEN["keep-dst"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    assert _run_case(name, tmp_path) == GOLDEN[name]
