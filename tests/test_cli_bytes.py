"""Byte pins for every report layout of the CLI.

Each case runs one subcommand in one format, plain and with ``--approx``,
and compares the SHA-256 of its stdout with the recorded digest.  A refactor
of the report code must leave every digest unchanged.  The meta cases mask
``generated_at``, the only field that changes between runs.  ``verify`` runs
on fixed results, so its layouts are pinned without running the battery; the
deep battery's JSON report is pinned once more on a real run.
"""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from csck import verification
from csck.cli import _JSON_BATCH, _json_lines, main

LOCATE_INSIDE = ("--from", "7/16,7/16,1/8", "--to", "1/3,4/9,2/9")
LOCATE_EDGE = ("--from", "1,0,0", "--to", "0,1,0")

INPUTS = {
    "character": [("character", "-m", "2", "-n", "3")],
    "evaluate": [
        ("evaluate", "-m", "1", "-n", "2", "--class", "3,4,2"),
        ("evaluate", "-m", "1", "-n", "2", "--class", "1,1,0"),
    ],
    "scan": [
        ("scan", "--m", "1..3", "--n", "2..4"),
        ("scan", "--m", "3", "--n", "2..4", "--all-pairs"),
    ],
    "locate": [
        ("locate", "-m", "1", "-n", "2") + LOCATE_INSIDE,
        ("locate", "-m", "1", "-n", "2") + LOCATE_EDGE,
    ],
    "sample-face": [("sample-face", "-m", "1", "-n", "2", "--resolution", "7")],
    "verify": [("verify",)],
}

FORMATS = {
    "character": ("text", "json"),
    "evaluate": ("json", "text", "csv"),
    "scan": ("csv", "json", "text"),
    "locate": ("json", "text"),
    "sample-face": ("csv", "json", "text"),
    "verify": ("text", "json"),
}

CASES = {
    f"{command}{index}-{fmt}{'-approx' if approx else ''}": argv
    + ("--format", fmt, "--no-meta")
    + (("--approx",) if approx else ())
    for command, inputs in INPUTS.items()
    for index, argv in enumerate(inputs)
    for fmt in FORMATS[command]
    for approx in (False, True)
}
CASES["meta-text"] = ("character", "-m", "2", "-n", "3", "--format", "text")
CASES["meta-json"] = ("evaluate", "-m", "1", "-n", "2", "--class", "3,4,2", "--format", "json")
CASES["meta-csv"] = ("scan", "--m", "1..3", "--n", "2..4", "--format", "csv", "--approx")
# scans past the paper's range, with their witness intervals: the scan-wide
# pairs in all three witness modes, and one far pair
CASES["scan-wide-json"] = ("scan", "--m", "10", "--n", "9..12", "--all-pairs", "--format", "json", "--no-meta")
CASES["scan-far-json"] = ("scan", "--m", "24", "--n", "26", "--format", "json", "--no-meta")
CASES["scan-far49-json"] = ("scan", "--m", "49", "--n", "51", "--format", "json", "--no-meta")
# every pair up to 12, the 78 with m >= n included: their vertex signs decide
# whether the l1 search runs
CASES["scan-square12-json"] = ("scan", "--m", "1..12", "--n", "1..12", "--all-pairs", "--format", "json", "--no-meta")
# the benchmark's two faces, m < n and m > n, with the digests its harness stores
CASES["face-9-10-csv"] = ("sample-face", "-m", "9", "-n", "10", "--resolution", "60", "--format", "csv", "--no-meta")
CASES["face-10-9-csv"] = ("sample-face", "-m", "10", "-n", "9", "--resolution", "60", "--format", "csv", "--no-meta")

EXPECTED = {
    "character0-json": "353c05a1762efce5a8d27c312e6c9c66a0809139c12c312ff42c375d5c2f6bab",
    "character0-json-approx": "353c05a1762efce5a8d27c312e6c9c66a0809139c12c312ff42c375d5c2f6bab",
    "character0-text": "91dabcc850c274979d273e962800aa6b251f1479974a7ed90bd6f5b16b347775",
    "character0-text-approx": "91dabcc850c274979d273e962800aa6b251f1479974a7ed90bd6f5b16b347775",
    "evaluate0-csv": "06c8b0f6510bdbf65dba9403332a8713e69dc05407761f9ed96e3f146425e065",
    "evaluate0-csv-approx": "9ab7bef7db4469699deb0cc1231164e496ae8a3cacc194ec4117821eadf8efcd",
    "evaluate0-json": "482be54b065ff0adcc3e40cf6b3341216a96662a5739a088309283280b537fc6",
    "evaluate0-json-approx": "82371e037083c2a76ccf8cc2fb2a09579ec82acbb49c0190180f36ed61638289",
    "evaluate0-text": "715954547b558df49cc535e44baf956d724ac1dad4dda0453cd841a102df2ef7",
    "evaluate0-text-approx": "59f4fed5a68d85bd972e7c84bec96ed4c83ae0fd5d70c5e052e30f0bd977be7f",
    "evaluate1-csv": "d420ab75befb15e1cdf976aa116c3d3e0e3d9bc70e5ed2aef19821a41d9ddc5d",
    "evaluate1-csv-approx": "72e5da483bd9662b7c778503b8f2c4fd8aaa270da58c179a8c1b4ad4caccd7ea",
    "evaluate1-json": "ecdf1ba372fdd9a96c7fef78fdc0ed4b97e51165a1e1cc63d598dfe37ad8011f",
    "evaluate1-json-approx": "1ec8f34956ad6b422ac3c0868c22bc1b2f0ed6db8671c14b42a25b87098a22e5",
    "evaluate1-text": "0b35c28f7a9222324b40c6657984d548e7c586f798748a60df01ffc550a74d00",
    "evaluate1-text-approx": "b87d51aa48e9e38358c081f6b44921002a657c199c94a8f2e4968f1b32ac2e5f",
    "face-10-9-csv": "90942dda6b5442388e64898353c86d30caf85cee53171210c538ba87eb7d6196",
    "face-9-10-csv": "a691df6498d64c06aa1b0f53f9f0900a422e9766b427af1585f9cef89f7267b1",
    "locate0-json": "6db4586279bc93d14e092d612b87b86dd9605c6aa31f39575ea2d7014b8b08fe",
    "locate0-json-approx": "b46a91f82821b74d3fa2e39ccf023403e2bad99f14d6ed163b8eeb013f1ddfea",
    "locate0-text": "55fa3c68a43de803a624cc0b587e680f610bcbbf7cfbc6d649d09fe2d97615d7",
    "locate0-text-approx": "55fa3c68a43de803a624cc0b587e680f610bcbbf7cfbc6d649d09fe2d97615d7",
    "locate1-json": "ce151fff0f5b3cd307114fddadf03fe92a9ace2d6307c89f9d6562247c81f166",
    "locate1-json-approx": "ce151fff0f5b3cd307114fddadf03fe92a9ace2d6307c89f9d6562247c81f166",
    "locate1-text": "0b589cdb9e9392e5a5e9965dd856583d2e08549be8efcc7f362179ef91918cab",
    "locate1-text-approx": "0b589cdb9e9392e5a5e9965dd856583d2e08549be8efcc7f362179ef91918cab",
    "meta-csv": "63f137bbb2e9f01ca237258a7d99e31c0a2165f7d1fe55b4bd57177ffc52ef5f",
    "meta-json": "6b39a4c662d28c47078a9812fb20a83cf10cd8fe2bec677f2f7f68e821f7342b",
    "meta-text": "0c71328845ff3f683d812d150f52d19d18b0b1ec687e0a88fe2ed7c56f770087",
    "sample-face0-csv": "1aa113d541ed4b9d50461961c7296e7585459977a03e5e6fe9fc9f30186464ea",
    "sample-face0-csv-approx": "727c097a9b9c045499c8d42854d4d6adebfdd50b56c66aafac3868e90621b91b",
    "sample-face0-json": "e80957349544f82ea8dc6c3571b6f5aefe752a9cfdbf35fa730b5c8915e44424",
    "sample-face0-json-approx": "a77098a64133d72489e7a33b029ed4acb7930bccf384ac595fea632870aeba22",
    "sample-face0-text": "a9072ba2b39876c564e9299ba8ce32f6d6543c43ac3a0f69ac41856826fac65e",
    "sample-face0-text-approx": "a9072ba2b39876c564e9299ba8ce32f6d6543c43ac3a0f69ac41856826fac65e",
    "scan0-csv": "3462d2f208352888e92e666a4ccbe1ef94ed0ce23924f17661a775db82698590",
    "scan0-csv-approx": "675469850b9a3ea6e127a7540d28a416ac32bbdbcc137e6c9b4164a3536b334f",
    "scan0-json": "ced0fa49da7c2eb74649cf5f83664361c7280cafdc4c3ad48956992483919725",
    "scan0-json-approx": "e92a63562b5f3d0c2cdf168faf7fc710196a877b1104d8f3a3d67c7f4522b677",
    "scan0-text": "47e44a7b5fba2afb9f4de250f761f71be5d38a904d8978a1f59467f7b0330922",
    "scan0-text-approx": "47e44a7b5fba2afb9f4de250f761f71be5d38a904d8978a1f59467f7b0330922",
    "scan-far-json": "d79fb78eeec5c7e1386878d15fd57bacd1f0da202800726a0300c6043bb382d8",
    "scan-far49-json": "e2c1b8e2559f6cc003ae7fb38dbe0788787814b54f04193452db1d279bfd207a",
    "scan-square12-json": "72c83ca7aac21c182af044d608054d7fb74db4f3c3e4786ddd0be314f5d31d8b",
    "scan-wide-json": "92f7ffa150b49a08bf0027553d178dc1a5077c742285c1122f57df5ba7939f6d",
    "scan1-csv": "692cb39524ad97b61bf28663aabd1807e101e0a3bf5ac05150be289104ba7c41",
    "scan1-csv-approx": "5bf4e7153414e324d8ba01b7bcafd5df33ccd8441e7a1a3942d495300a8f739a",
    "scan1-json": "0e8cb4ed35e0d1e792bca302088bc2d64ff2eb384df71639f28cf0b6d3a740f0",
    "scan1-json-approx": "cda8f63f12ee36b209621a4a46eab1703ac48a7c886b1b6294baecbd4bc842fe",
    "scan1-text": "7987601e02f365f95487743ceb3bc05c004d7ac9dfe8f2371f95736aedf27003",
    "scan1-text-approx": "7987601e02f365f95487743ceb3bc05c004d7ac9dfe8f2371f95736aedf27003",
    "verify0-json": "202c057f6a4a36b7dbf0e68cbb80d986bc8905db4a44713596b422fd088b0a6c",
    "verify0-json-approx": "202c057f6a4a36b7dbf0e68cbb80d986bc8905db4a44713596b422fd088b0a6c",
    "verify0-text": "9ff2b85a03c1b0aadb8c412007a9fcbd9ed0978ba01ad16ecd8d43ba053bc161",
    "verify0-text-approx": "9ff2b85a03c1b0aadb8c412007a9fcbd9ed0978ba01ad16ecd8d43ba053bc161",
}

FIXED_RESULTS = [
    verification.CheckResult("golden_polynomial_1_2", True, "13 terms match", 0.25),
    verification.CheckResult("synthetic_failure", False, "failures: [(1, 2, 'l1')]", 1.5),
]


def _mask(text: str) -> str:
    text = re.sub(r"(# generated_at=).*", r"\1<masked>", text)
    return re.sub(r'("generated_at": )"[^"]*"', r'\1"<masked>"', text)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_are_pinned(case, capsys, monkeypatch):
    monkeypatch.setattr(verification, "run_checks", lambda deep=False: FIXED_RESULTS)
    code = main(list(CASES[case]))
    out = _mask(capsys.readouterr().out)
    assert code == (4 if case.startswith("verify") else 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPECTED[case]


# The stdout digest that the benchmark harness stores for its verify-deep workload.
DEEP_BATTERY_SHA256 = "61807d123a16893a5919f8874d9afee55fd9e8043acc4ccac1b691ef015002c2"


def test_deep_battery_bytes_are_pinned(capsys):
    # the real battery, cyclotomic checks included: every fast path it runs must
    # leave the report byte for byte as the Fraction code wrote it
    code = main(["verify", "--deep", "--format", "json", "--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEEP_BATTERY_SHA256


# the farthest pair the dimension cap allows; the timeout guards against a
# return of the cost cliff that once made this scan take minutes
FAR_PAIR_ARGV = ("scan", "--m", "99", "--n", "100", "--format", "json", "--no-meta")
FAR_PAIR_SHA256 = "75d5492f7a284dd4918f7f7b710e6f0afad87f719ef36f194908132e9b79bd44"


def test_far_pair_bytes_are_pinned_within_a_minute():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "csck", *FAR_PAIR_ARGV], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == FAR_PAIR_SHA256


# the largest face the resolution cap allows: its rows are written as they
# are made, in CSV and in JSON alike, so the peak RSS stays near that of a
# small face
FAR_FACE_ARGV = ("sample-face", "-m", "9", "-n", "10", "--resolution", "500", "--format", "csv", "--no-meta")
FAR_FACE_SHA256 = "251d7212ae210581c34cc6e91b0ecf9f08f389f27197eb7bb44ab78242947a9c"
FAR_FACE_JSON_ARGV = ("sample-face", "-m", "9", "-n", "10", "--resolution", "500", "--format", "json", "--no-meta")
FAR_FACE_JSON_SHA256 = "1e07fbd4c417546e506e09ce04e08246e2f9190348ec47c1629c29a5e39b9f6a"
FAR_FACE_MAX_RSS_MB = 64


# Runs the command with the rest of its arguments, stdout to the file named
# first, and prints its exit code and peak RSS in KiB.  Linux counts the memory
# of the forking process into the peak RSS of a child, so the command is started
# from this fresh interpreter rather than from the test process.
_PEAK_RSS_RUNNER = """
import resource, subprocess, sys
with open(sys.argv[1], "wb") as out:
    code = subprocess.run(sys.argv[2:], stdout=out, timeout=60).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _run_with_peak_rss(tmp_path, argv) -> tuple[str, float]:
    """``python -m csck argv`` in a fresh interpreter under a minute: the
    SHA-256 of its stdout and its peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    target = tmp_path / "stdout"
    runner = [sys.executable, "-c", _PEAK_RSS_RUNNER, str(target), sys.executable, "-m", "csck", *argv]
    proc = subprocess.run(runner, env=env, capture_output=True, text=True, timeout=90)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    return hashlib.sha256(target.read_bytes()).hexdigest(), peak_kib / 1024


def test_far_face_bytes_are_pinned_within_a_minute_and_bounded_memory(tmp_path):
    digest, peak_mb = _run_with_peak_rss(tmp_path, FAR_FACE_ARGV)
    assert digest == FAR_FACE_SHA256
    assert peak_mb < FAR_FACE_MAX_RSS_MB


def test_far_face_json_bytes_are_pinned_within_a_minute_and_bounded_memory(tmp_path):
    digest, peak_mb = _run_with_peak_rss(tmp_path, FAR_FACE_JSON_ARGV)
    assert digest == FAR_FACE_JSON_SHA256
    assert peak_mb < FAR_FACE_MAX_RSS_MB


def _items(count):
    return ({"x": f"{i}/7", "point_approx": [i / 7, 0.5], "none": None} for i in range(count))


@pytest.mark.parametrize("count", [0, 1, 2, _JSON_BATCH, _JSON_BATCH + 1, 2 * _JSON_BATCH + 3])
@pytest.mark.parametrize("place", ["first", "last"])
def test_streamed_json_equals_json_dumps(count, place):
    # the iterator value is written a batch at a time; the text must be that
    # of one json.dumps of the collected object, an empty list included
    fixed = {"meta": {"params": {"m": 1}, "tags": [], "empty": {}}, "n": 3}
    if place == "first":
        streamed, collected = {"samples": _items(count), **fixed}, {"samples": list(_items(count)), **fixed}
    else:
        streamed, collected = {**fixed, "samples": _items(count)}, {**fixed, "samples": list(_items(count))}
    assert "\n".join(_json_lines(streamed)) == json.dumps(collected, indent=2)


def test_face_json_with_meta_and_approx_is_one_json_dumps(capsys):
    argv = ["sample-face", "-m", "9", "-n", "10", "--resolution", "60", "--format", "json", "--approx"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert list(obj) == ["meta", "samples"]
    assert len(obj["samples"]) == 1711 and "point_approx" in obj["samples"][0]
    assert out == json.dumps(obj, indent=2) + "\n"


FACE_CSV_ARGV = ["sample-face", "-m", "9", "-n", "10", "--resolution", "60", "--format", "csv", "--no-meta"]


def test_face_out_file_has_the_stdout_bytes(tmp_path, capsys):
    assert main(FACE_CSV_ARGV) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "face.csv"
    assert main(FACE_CSV_ARGV + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == stdout


def test_face_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "face.csv"
    assert main(FACE_CSV_ARGV + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(target) in captured.err
