"""Time-to-verdict benchmark for permcat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (``child.py``), one at a time, and calls
``permcat.cli.run_command`` on each of the workload's commands with
``--report`` to a temporary file.  Every command's exit code, verdict,
violated axioms and witness lines are checked against the known answers
in ``workloads.py``.

With ``--trace 0`` the benchmark starts a few set-up-only interpreters,
then runs passes until ``--seconds`` would be exceeded (at least one), and
prints the end-to-end metrics.  With ``--trace 1`` it runs one untraced
and one traced pass, checks that their outputs are byte-identical and
that the per-layer predictions in ``metrics.py`` hold, and prints the
per-layer metrics.  The last line of stdout is one JSON object; a run
record (and, traced, the spans) is written under ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
from workloads import WORKLOADS, documents_of, matches_defect, mismatches

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_checkout() -> None:
    for needed in ("src/permcat/cli.py", "documents", "tests/golden"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{needed} not found under {ROOT}; "
                             "run from the root of a permcat checkout")


def run_child(job: dict, workdir: pathlib.Path, hashseed: int) -> dict:
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(hashseed), PYTHONDONTWRITEBYTECODE="1")
    job_path.write_text(json.dumps(dict(job, report_dir=str(workdir))),
                        encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path),
                           str(result_path), repr(time.monotonic())],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


class Checker:
    """Counts commands against their known answers across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.failures: dict[str, list[str]] = {}
        self.first_output: dict[str, tuple] = {}

    def check(self, expected: list[dict], results: list[dict]) -> None:
        for answer, result in zip(expected, results, strict=True):
            label = " ".join(answer["argv"])
            self.attempted += 1
            problems = mismatches(answer, result, ROOT)
            if problems:
                self.failed += 1
                self.failures.setdefault(label, problems)
                if not matches_defect(answer, result):
                    self.unexpected.append(f"{label}: {'; '.join(problems)}")
            output = (result["exit"], result["stdout"], result["report"])
            if self.first_output.setdefault(label, output) != output:
                self.unexpected.append(f"{label}: output differs between passes")


def axiom_counts(checker: Checker) -> dict:
    """Instances and violations per axiom from each command's report."""
    counts = {}
    for label, (_, _, report) in checker.first_output.items():
        if report:
            checks = json.loads(report).get("checks", [])
            counts[label] = {c["axiom"]: [c["instances"], len(c["violations"])]
                             for c in checks}
    return counts


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job_for(commands, docs, trace: bool, setup_only: bool, spans: str = "") -> dict:
    return {"commands": [c["argv"] for c in commands], "documents": docs,
            "trace": trace, "setup_only": setup_only, "spans": spans,
            "per_layer": metrics.LAYER_METRICS}


def untraced_run(name: str, rng: random.Random, seconds: float,
                 workdir: pathlib.Path, checker: Checker) -> tuple[dict, dict, dict]:
    """End-to-end metrics, their sample counts, and the raw samples."""
    commands = WORKLOADS[name]
    docs = documents_of(commands)
    started = time.monotonic()
    setups = [run_child(job_for(commands, docs, False, True), workdir,
                        rng.randrange(2**32))["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes, durations, latencies = [], [], []
    while True:
        order = list(commands)
        if name == "corpus":
            rng.shuffle(order)
        t0 = time.monotonic()
        result = run_child(job_for(order, docs, False, False), workdir,
                           rng.randrange(2**32))
        durations.append(time.monotonic() - t0)
        checker.check(order, result["commands"])
        passes.append(result)
        latencies += [(c["end"] - c["start"]) * 1000 for c in result["commands"]]
        if time.monotonic() - started + statistics.median(durations) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    values = {
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "doc_verdict_p50_ms": statistics.median(latencies),
        "doc_verdict_p90_ms": percentile(latencies, 90),
    }
    samples = {"verdict_s": len(passes), "setup_s": len(setups),
               "peak_rss_mb": len(passes), "doc_verdict_p50_ms": len(latencies),
               "doc_verdict_p90_ms": len(latencies)}
    raw = {"setup_s": setups, "verdict_s": [p["verdict_s"] for p in passes],
           "latencies_ms": latencies}
    return values, samples, raw


def traced_run(name: str, rng: random.Random, seed: int, workdir: pathlib.Path,
               checker: Checker) -> tuple[dict, list[str]]:
    """Per-layer metrics, and the predictions they break.

    ``checker`` sees the untraced and the traced pass, so any difference
    in their output bytes is reported as output differing between passes.
    """
    commands = list(WORKLOADS[name])
    if name == "corpus":
        rng.shuffle(commands)
    docs = documents_of(commands)
    spans = OUT / f"spans-{name}-seed{seed}.json"
    plain = run_child(job_for(commands, docs, False, False), workdir, rng.randrange(2**32))
    traced = run_child(job_for(commands, docs, True, False, str(spans)), workdir,
                       rng.randrange(2**32))
    checker.check(commands, plain["commands"])
    checker.check(commands, traced["commands"])
    values = dict(traced["layers"])
    problems = metrics.prediction_failures(name, values)
    values["trace.overhead_ratio"] = traced["verdict_s"] / plain["verdict_s"]
    reports = [json.loads(c["report"]) for c in plain["commands"] if c["report"]]
    checks = [c for r in reports for c in r.get("checks", [])]
    values["report.instances"] = sum(c["instances"] for c in checks)
    values["report.violations"] = sum(len(c["violations"]) for c in checks)
    return values, problems


def machine() -> dict:
    try:
        cpuinfo = pathlib.Path("/proc/cpuinfo").read_text(encoding="utf-8")
        cpu = next(line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def commit() -> dict:
    head = ROOT / ".git" / "HEAD"
    ref = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            ref = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": ref, "src_sha256": digest.hexdigest()}


def main(argv) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **machine(), **commit(),
              "loadavg_before": os.getloadavg()}
    checker = Checker()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            values, problems = traced_run(args.workload, rng, args.seed, workdir, checker)
            units = {name: unit for name, unit, _ in metrics.PER_LAYER}
            samples, raw = {}, {}
        else:
            values, samples, raw = untraced_run(args.workload, rng, args.seconds,
                                                workdir, checker)
            problems = []
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += checker.unexpected
    record.update(loadavg_after=os.getloadavg(), attempted=checker.attempted,
                  failed=checker.failed, failures=checker.failures,
                  problems=problems, samples=samples, metrics=values,
                  axiom_counts=axiom_counts(checker), raw=raw)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{suffix}.json").write_text(json.dumps(record, indent=1),
                                               encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {record['nproc']}  python {record['python']}  cpu {record['cpu']}")
    print(f"load average {record['loadavg_before']} -> {record['loadavg_after']}")
    for label, counts in sorted(record["axiom_counts"].items()):
        instances = sum(i for i, _ in counts.values())
        violations = sum(v for _, v in counts.values())
        print(f"counts  {label}: {instances} instances, {violations} violations")
    for name, value in values.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name}: {value:.6g} {units[name]}{count}")
    print(f"failed_frac: {checker.failed}/{checker.attempted} = "
          f"{checker.failed / checker.attempted:.4f}")
    for label, reasons in checker.failures.items():
        print(f"failed  {label}: {'; '.join(reasons)}")
    for problem in problems:
        print(f"INCORRECT  {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
