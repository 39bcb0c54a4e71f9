"""One camlpad invocation in a fresh interpreter, reporting its own costs.

Usage: python3 worker.py {run,trace} SRC_DIR CONFIG REPORT_JSON

``run`` imports ``camlpad.cli`` and calls ``camlpad.cli.main`` (``camlpad run
--config CONFIG``), as every cron invocation does, timing the import, the
``load_config`` call and the ``run_pipeline`` call inside it, and exits with
the CLI's exit code. ``trace`` is ``run`` with a span around each layer call.
The report holds ``setup_done`` on the system-wide monotonic clock, so the
caller can measure set-up from before it started this interpreter, and
``setup_ref_s`` and ``ref_s``, the times of a fixed reference job run right
after set-up and right after the pipeline.
"""

import json
import resource
import sys
import time


def main(mode: str, src: str, config: str, report_path: str) -> int:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import camlpad.cli as cli

    report: dict = {"import_s": time.perf_counter() - start}

    def load_config(path):
        began = time.perf_counter()
        loaded = real_load_config(path)
        report["load_s"] = time.perf_counter() - began
        report["setup_done"] = time.monotonic()
        report["setup_ref_s"] = reference_s()
        return loaded

    real_load_config = cli.load_config
    cli.load_config = load_config
    code = run(mode == "trace", cli, config, report)
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return code


def reference_s() -> float:
    """Seconds this host takes, right now, for a fixed job mixing what the pipeline does.

    The job parses JSON lines, runs a Python loop and computes numpy distances.

    The speed of a shared host drifts by up to 1.75x over minutes, for wall
    and CPU time alike, which swamps any change in the program. Dividing a
    run's times by this job's time, taken in the same process right after the
    run (or right after set-up, for the set-up time), cancels most of that
    drift.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    points, centres = rng.normal(size=(20_000, 8)), rng.normal(size=(8, 8))
    line = json.dumps({"_id": "yaf-d0-0001", "timestamp": 1614556800000, "octets": 1500.25, "direction": "in"})
    began = time.perf_counter()
    for _ in range(30_000):
        json.loads(line)
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(30):
        ((points[:, None, :] - centres[None]) ** 2).sum(axis=-1).argmin(axis=1)
    return time.perf_counter() - began


def run(traced: bool, cli, config: str, report: dict) -> int:
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.wrap(cli, "run_pipeline", "pipeline.run", root=True)
    real_run_pipeline = cli.run_pipeline

    def run_pipeline(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF)
        began = time.perf_counter()
        result = real_run_pipeline(*args, **kwargs)
        report["run_s"] = time.perf_counter() - began
        after = resource.getrusage(resource.RUSAGE_SELF)
        report["cpu_s"] = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        report["peak_rss_mb"] = after.ru_maxrss / 1024
        report["ref_s"] = reference_s()
        report["history_days"] = sum(len(a.history_day_scores) for a in result.analyses.values())
        report["alerts_fired"] = int(result.alert is not None)
        return result

    cli.run_pipeline = run_pipeline
    code = cli.main(["run", "--config", config])
    if traced:
        report["spans"] = tracer.spans()
        report["counts"] = dict(tracer.counts)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
