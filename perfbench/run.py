#!/usr/bin/env python3
"""End-to-end benchmark of the csck command-line tool.

    python3 perfbench/run.py --workload scan-paper --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; csck is imported from ``src``.
Every sample is one fresh ``python -m csck ... --no-meta`` process, so
``compute_obstruction``'s cache starts cold, as it does for a CLI user, and
stdout is deterministic.  Samples run one after another (a closed loop with
one client) until the next one would end after ``--seconds``, and never
fewer than ``MIN_SAMPLES``.

Every sample's stdout is checked against the stored SHA-256 of its input,
exit code 0 is required, and the workload's verdicts are checked.  A sample
that misses any of these counts as failed, and the command then exits 1.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
samples with samples run under ``perfbench/traced.py`` and reports the
per-layer metrics.  The line before the last is a JSON report with the
quartiles, the sample count, the problems found and the environment; the
last line is the result object.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "csck" / "__init__.py"
TRACED = ROOT / "perfbench" / "traced.py"
MIN_SAMPLES = 3
SETUP_PER_SAMPLE = 5

# check function name (without "check_") -> metric name; any other check is
# timed as "other"
CHECKS = (
    "golden_polynomial",
    "limit_signs",
    "ke_nonvanishing",
    "assembly_identity",
    "localized_sum_structure",
    "series_oracle",
    "alternating_power_sum_table",
    "vanishing_orders",
    "root_isolation",
    "structural_properties",
    "cyclotomic_congruences",
    "other",
)

# reported by perfbench/traced.py for every traced process
PER_LAYER = (
    "polynomials.square_free_part.calls",
    "polynomials.square_free_part.self_s",
    "polynomials.square_free_part.removed_degree",
    "polynomials.sturm_chain.calls",
    "polynomials.sturm_chain.self_s",
    "polynomials.sturm_chain.length",
    "polynomials.sturm_chain.coeff_bits_max",
    "polynomials.sturm_isolate.self_s",
    "polynomials.sturm_isolate.intervals",
    "polynomials.restrict_to_line.calls",
    "polynomials.restrict_to_line.self_s",
    "polynomials.restrict_to_line.degree_max",
    "polynomials.restrict_to_line.coeff_bits_max",
    "polynomials.evaluate.calls",
    "polynomials.evaluate.self_s",
    "character.compute_obstruction.calls",
    "character.compute_obstruction.misses",
    "character.compute_obstruction.self_s",
    "character.compute_obstruction.F_terms",
    "character.compute_obstruction.F_coeff_bits_max",
    "character.localized.calls",
    "character.localized.self_s",
    "localization.cyclo_mul.calls",
    "localization.cyclo_mul.self_s",
    "localization.cyclo_inverse.calls",
    "localization.cyclo_inverse.self_s",
    "localization.congruence.self_s",
    "localization.series.calls",
    "localization.series.self_s",
    "cone.witness_search.calls",
    "cone.witness_search.probes",
    "cone.witness_search.self_s",
    "cone.limits.self_s",
    "cone.sign_at.calls",
    "cone.in_kahler_triangle.calls",
    "cone.in_kahler_triangle.self_s",
    *(f"verification.{name}.s" for name in CHECKS),
    "cli.self_s",
)

# reported by a traced run besides PER_LAYER
TRACE_METRICS = ("trace.overhead_s", "trace.attributed_share")

SCAN_HEADER = "m,n,limit_l1,limit_l2,F_at_c1,ke_admissible,sign_change_found,paper_backed"
FACE_HEADER = "x,y,z,sign,region"
SIGNS = {"negative", "zero", "positive"}
REGIONS = {"inside", "boundary", "outside"}


def check_scan(text: str) -> tuple[int, list[str]]:
    """Rows of a scan CSV, and the verdicts that break the paper's claims:
    every pair 1 <= m < n <= 10 has a certified sign change and no
    Kahler-Einstein class; every m = n pair is Kahler-Einstein admissible."""
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return 0, ["scan: unexpected CSV header"]
    problems = []
    for line in lines[1:]:
        fields = line.split(",")
        try:
            m, n = int(fields[0]), int(fields[1])
            ke, change, backed = fields[5:]
        except ValueError:
            problems.append(f"scan: malformed row {line!r}")
            continue
        paper = 1 <= m < n <= 10
        if backed != ("true" if paper else "false"):
            problems.append(f"scan: ({m},{n}) paper_backed={backed}")
        if paper and (change != "true" or ke != "false"):
            problems.append(f"scan: ({m},{n}) sign_change_found={change} ke_admissible={ke}")
        if m == n and ke != "true":
            problems.append(f"scan: ({m},{n}) ke_admissible={ke}")
    return len(lines) - 1, problems


def check_face(text: str) -> tuple[int, list[str]]:
    """Lattice points of a sample-face CSV, each with a sign and a region."""
    lines = text.splitlines()
    if not lines or lines[0] != FACE_HEADER:
        return 0, ["sample-face: unexpected CSV header"]
    bad = [line for line in lines[1:] if len(f := line.split(",")) != 5 or f[3] not in SIGNS or f[4] not in REGIONS]
    return len(lines) - 1, [f"sample-face: malformed row {line!r}" for line in bad[:3]]


def check_verify(text: str) -> tuple[int, list[str]]:
    """Checks in a verify JSON report; every one must pass."""
    try:
        report = json.loads(text)
        results, failures = report["results"], report["failures"]
    except (ValueError, KeyError, TypeError):
        return 0, ["verify: unreadable JSON report"]
    problems = [] if failures == 0 else [f"verify: failures={failures}"]
    problems += [f"verify: {r.get('check')} did not pass" for r in results if r.get("pass") is not True]
    return len(results), problems


@dataclass(frozen=True)
class Workload:
    # (csck arguments, SHA-256 of stdout); the seed picks one
    variants: tuple[tuple[tuple[str, ...], str], ...]
    unit: str
    check: Callable[[str], tuple[int, list[str]]]

    def pick(self, seed: int) -> tuple[tuple[str, ...], str]:
        return self.variants[seed % len(self.variants)]


WORKLOADS = {
    "scan-paper": Workload(
        ((("scan", "--m", "1..9", "--n", "2..10", "--format", "csv"),
          "1d38414a88d149c2d89de7a778a63cc867d94864613ae5d355d06356d64999e6"),),
        "pairs",
        check_scan,
    ),
    "scan-wide": Workload(
        ((("scan", "--m", "10", "--n", "9..12", "--all-pairs", "--format", "csv"),
          "7635ad83621596a8d3108e5e7b86a3d9909f1b753d479e137130b9e92b9ed240"),),
        "pairs",
        check_scan,
    ),
    "sample-face": Workload(
        ((("sample-face", "-m", "9", "-n", "10", "--resolution", "60", "--format", "csv"),
          "a691df6498d64c06aa1b0f53f9f0900a422e9766b427af1585f9cef89f7267b1"),
         (("sample-face", "-m", "10", "-n", "9", "--resolution", "60", "--format", "csv"),
          "90942dda6b5442388e64898353c86d30caf85cee53171210c538ba87eb7d6196")),
        "lattice points",
        check_face,
    ),
    "verify-deep": Workload(
        ((("verify", "--deep", "--format", "json"),
          "61807d123a16893a5919f8874d9afee55fd9e8043acc4ccac1b691ef015002c2"),),
        "checks",
        check_verify,
    ),
}


@dataclass(frozen=True)
class Sample:
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str]) -> Sample:
    """Run one process to its end.  Wall time is from spawn to exit; CPU
    time (user + system) and peak RSS come from ``wait4``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out, err[0])


def csck_argv(args: tuple[str, ...], traced: bool = False) -> list[str]:
    entry = [str(TRACED)] if traced else ["-m", "csck"]
    return [sys.executable, *entry, *args, "--no-meta"]


def judge(workload: Workload, digest: str, sample: Sample) -> tuple[int, list[str]]:
    """Units of work in the sample's output and every way it is wrong."""
    problems = []
    if sample.code != 0:
        tail = sample.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        problems.append(f"exit code {sample.code} {tail}")
    actual = hashlib.sha256(sample.stdout).hexdigest()
    if actual != digest:
        problems.append(f"stdout sha256 {actual} != expected {digest}")
    units, found = workload.check(sample.stdout.decode("utf-8", "replace"))
    return units, problems + found


def repeat(seconds: float, minimum: int, step: Callable[[], None]) -> None:
    """Call ``step`` at least ``minimum`` times, and again while the next
    call is expected to end within ``seconds`` of the first."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return


def check_import() -> None:
    """Import csck once from the checkout, which also writes the bytecode
    cache that later processes read."""
    first = spawn([sys.executable, "-c", "import csck, sys; sys.stdout.write(csck.__file__)"])
    if first.code != 0 or Path(first.stdout.decode()).resolve() != PACKAGE_INIT.resolve():
        raise RuntimeError(f"csck does not import from {PACKAGE_INIT}: {first.stderr.decode()[-300:]}")


def import_samples() -> list[Sample]:
    """Fresh interpreters that import csck."""
    return [spawn([sys.executable, "-c", "import csck"]) for _ in range(SETUP_PER_SAMPLE)]


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        return None


def environment(seed: int) -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
    }


def end_to_end(workload: Workload, args: tuple[str, ...], digest: str, seconds: float, report: dict):
    samples: list[tuple[Sample, int]] = []
    setup: list[float] = []
    failed = 0

    def step() -> None:
        # set-up is sampled between workload samples, so both see the same
        # load on the machine
        nonlocal failed
        setup.extend(s.cpu for s in import_samples())
        sample = spawn(csck_argv(args))
        units, problems = judge(workload, digest, sample)
        samples.append((sample, units))
        failed += bool(problems)
        report["problems"] += problems

    repeat(seconds, MIN_SAMPLES, step)
    cpus = [s.cpu for s, _ in samples]
    report["cpu_s"] = quartiles(cpus)
    report["wall_s"] = quartiles([s.wall for s, _ in samples])
    report["setup_s"] = quartiles(setup)
    report["work_per_sample"] = f"{samples[0][1]} {workload.unit}"
    metrics = {
        "cpu_s": (statistics.median(cpus), "s"),
        "work_per_s": (statistics.median(u / s.cpu for s, u in samples), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(s.rss_kb for s, _ in samples) / 1024, "MB"),
    }
    return len(samples), failed, metrics


def per_layer(workload: Workload, args: tuple[str, ...], digest: str, seconds: float, report: dict):
    plain: list[Sample] = []
    traced: list[dict] = []
    traced_samples: list[Sample] = []
    failed = 0

    def run(traced_run: bool) -> Sample:
        nonlocal failed
        sample = spawn(csck_argv(args, traced_run))
        _, problems = judge(workload, digest, sample)
        if traced_run:
            try:
                stats = json.loads(sample.stderr.decode().splitlines()[-1])
            except (ValueError, IndexError):
                stats = None
            if stats is None or stats.pop("restored", None) is not True:
                problems.append("traced run did not restore every wrapped attribute")
            else:
                traced.append(stats)
            traced_samples.append(sample)
        else:
            plain.append(sample)
        failed += bool(problems)
        report["problems"] += problems
        return sample

    def step() -> None:
        # alternate which side runs first, so drift in the machine hits both
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        outputs = {}
        for traced_run in order:
            outputs[traced_run] = run(traced_run).stdout
        if outputs[True] != outputs[False]:
            report["problems"].append("traced stdout differs from untraced stdout")

    repeat(seconds, 1, step)
    metrics: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER:
        values = [t[name] for t in traced]
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = (statistics.median(values) if values else 0.0, "s")
        else:
            if len(set(values)) > 1:
                report["problems"].append(f"{name} differs between traced runs: {values}")
            metrics[name] = (values[0] if values else 0, "bits" if name.endswith("bits_max") else "count")
    overhead = statistics.median(s.cpu for s in traced_samples) - statistics.median(s.cpu for s in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    shares = [1 - t["cli.self_s"] / t["main_s"] for t in traced]
    metrics["trace.attributed_share"] = (statistics.median(shares) if shares else 0.0, "ratio")
    report["cpu_s"] = quartiles([s.cpu for s in plain])
    report["traced_cpu_s"] = quartiles([s.cpu for s in traced_samples])
    return len(plain) + len(traced_samples), failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not PACKAGE_INIT.is_file():
        print(f"error: no csck sources at {PACKAGE_INIT}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[opts.workload]
    args, digest = workload.pick(opts.seed)
    report = {"workload": opts.workload, "args": list(args), "env": environment(opts.seed), "problems": []}
    measure = per_layer if opts.trace else end_to_end
    try:
        check_import()
        attempted, failed, metrics = measure(workload, args, digest, opts.seconds, report)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["env"]["loadavg_after"] = os.getloadavg()
    report["fail_ratio"] = failed / attempted
    print(json.dumps(report))
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not report["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
