"""One workload pass in a fresh interpreter.

    python3 perfbench/child.py JOB.json RESULT.json SPAWNED

The job names the commands, the documents to parse during set-up, a
directory for ``--report`` files and whether to trace.  SPAWNED is the
parent's ``time.monotonic()`` just before it started this process, so that
set-up time counts the interpreter start.  The result holds, per command, the
exit code, stdout, stderr, report text and latency, plus the set-up time,
the pass time and the peak resident memory; a traced pass adds the
per-layer counters and writes its spans.  With ``"setup_only"`` the child
stops after set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import resource
import sys
import time


def main(job_path: str, result_path: str, spawned: float) -> None:
    job = json.loads(pathlib.Path(job_path).read_text(encoding="utf-8"))
    from permcat.cli import run_command
    from permcat.documents import DocumentError, parse_document

    for path in job["documents"]:
        text = pathlib.Path(path).read_text(encoding="utf-8")
        try:
            parse_document(text)
        except DocumentError:
            pass  # an input-error document; its command expects exit 2
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s}
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            import tracer as tracing  # this script's directory is on sys.path

            tracer = tracing.Tracer()
            tracing.install(tracer)
        result["commands"] = run_pass(job, run_command, tracer)
        result["verdict_s"] = (result["commands"][-1]["end"]
                               - result["commands"][0]["start"])
        if tracer is not None:
            result["layers"] = {metric: tracing.metric_value(tracer, metric)
                                for metric in job["per_layer"]}
            pathlib.Path(job["spans"]).write_text(
                json.dumps(tracer.spans), encoding="utf-8")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pathlib.Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def run_pass(job: dict, run_command, tracer) -> list[dict]:
    records = []
    report_dir = pathlib.Path(job["report_dir"])
    for index, argv in enumerate(job["commands"]):
        report = report_dir / f"report-{index}.json"
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("command", argv=argv) if tracer else contextlib.nullcontext()
        start = time.monotonic()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv + ["--report", str(report)])
        end = time.monotonic()
        records.append({
            "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "report": report.read_text(encoding="utf-8") if report.exists() else None,
            "start": start, "end": end})
        report.unlink(missing_ok=True)
    return records


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
