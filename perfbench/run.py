"""camlpad benchmark: seeded stores, repeated pipeline runs, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload dir_month_1x --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

For one workload it generates a store from the seed (untimed), then repeats
``camlpad run`` -- each time in a fresh interpreter, with a fresh ``out/`` and
the store's gauge index cleared -- until the next repetition would pass
``--seconds``. Each repetition measures set-up (interpreter start, ``import
camlpad.cli``, ``load_config``) and the pipeline run, and is checked (see
checks.py); a repetition that fails a check counts as failed.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones, plus the tracing overhead; the metric names, units and
order are those of BENCHMARK.json. Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Generated stores live under
``.bench_build/perfbench`` and are removed when the run ends; the spans of the
last traced repetition are kept in ``.bench_build/perfbench/traces``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import RunCheck, check_run
from tracer import self_time_by_name, summarize

HERE = Path(__file__).resolve().parent

# Wall-clock limit for one workload, below the 180 s a benchmark run may take.
RUN_LIMIT_S = 165.0
# Run and CPU time are reported in units of a fixed reference job ("ref", see
# worker.reference_s), timed in every repetition right after set-up and right
# after the pipeline run; the median of all those timings is the run's ref.
# Seconds are printed beside them. Set-up time is reported in seconds on a
# nominal host, where the reference job takes REF_NOMINAL_S: the median raw
# set-up time divided by the ref, times REF_NOMINAL_S.
REF_NOMINAL_S = 0.3

# Metric names, units and order come from BENCHMARK.json.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    pass


def log_tail(path: Path, lines: int = 15) -> str:
    """The end of a log file, for an error message; the work directory is removed afterwards."""
    text = path.read_text(encoding="utf-8", errors="replace") if path.is_file() else ""
    return "\n".join(text.splitlines()[-lines:])


@dataclass
class Launch:
    exit_code: int
    report: dict | None
    setup_s: float | None


@dataclass
class Repetition:
    traced: bool
    launch: Launch
    check: RunCheck
    stub_stats: dict


class Stub:
    """The HTTP store stub as its own process, stopped and waited for on exit."""

    def __init__(self, store_root: Path, log: Path):
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "stub.py"), str(store_root)],
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError(f"HTTP stub did not start:\n{log_tail(log)}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        """Counters since the last call; also clears the stub's stored gauges."""
        request = urllib.request.Request(f"{self.url}/_bench/stats", data=b"{}", method="POST")
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Stub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe(values: list[float]) -> str:
    """Median and tail: the highest percentile with ten samples beyond it once that is p90 or above, else max."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} of n={n}"
    pct = 100 * (n - 10) // n
    if pct >= 90:
        return text + f"; p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return text + f"; max {max(values):.4f}"


class Runner:
    """One workload at one seed: store, repetitions, checks."""

    def __init__(self, root: Path, base: Path, make_store: Callable, seed: int, seconds: float, trace: bool):
        self.root, self.make_store, self.seed, self.seconds, self.trace = root, make_store, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = Path(tempfile.mkdtemp(prefix=f"{make_store.__name__}-{seed}-", dir=base))
        self.out_dir = self.work / "out"
        self.config = self.work / "camlpad.conf"
        self.launches = 0

    def launch(self, traced: bool) -> Launch:
        self.launches += 1
        report_path = self.work / f"report-{self.launches}.json"
        command = [sys.executable, str(HERE / "worker.py"), "trace" if traced else "run", str(self.root / "src"),
                   str(self.config), str(report_path)]
        with open(self.work / "worker.log", "ab") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(command, stdout=log, stderr=log, cwd=self.work)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return Launch(exit_code=-9, report=None, setup_s=None)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        report = json.loads(report_path.read_text()) if report_path.is_file() else None
        setup_s = report["setup_done"] - launched if report and "setup_done" in report else None
        return Launch(exit_code=code, report=report, setup_s=setup_s)

    def run(self) -> tuple[list[Repetition], int]:
        prepared = self.make_store(self.seed, self.work)
        with Stub(prepared.store_root, self.work / "stub.log") if prepared.http else contextlib.nullcontext() as stub:
            self.config.write_text(prepared.config_text(self.out_dir, stub.url if stub else ""), encoding="utf-8")
            reps: list[Repetition] = []
            first_digest = None
            started = time.monotonic()
            min_reps = 4 if self.trace else 3
            while True:
                traced = self.trace and len(reps) % 2 == 1
                shutil.rmtree(self.out_dir, ignore_errors=True)
                if stub:
                    stub.stats()
                else:
                    shutil.rmtree(prepared.store_root / "gauges", ignore_errors=True)
                began = time.monotonic()
                launch = self.launch(traced)
                if not reps and launch.setup_s is None:
                    raise BenchError(f"the first repetition did not get through set-up:\n{log_tail(self.work / 'worker.log')}")
                stub_stats = stub.stats() if stub else {}
                check = check_run(launch.exit_code, self.out_dir, prepared.truth, first_digest)
                if first_digest is None and check.digest:
                    first_digest = check.digest
                reps.append(Repetition(traced, launch, check, stub_stats))
                for problem in check.problems:
                    print(f"repetition {len(reps)} failed: {problem}", file=sys.stderr)
                if launch.exit_code not in (0, 2):
                    print(log_tail(self.work / "worker.log"), file=sys.stderr)
                now = time.monotonic()
                last = now - began
                if launch.exit_code == -9 or now + last > self.deadline:
                    break
                if len(reps) >= min_reps and now - started + last > self.seconds:
                    break
        return reps, prepared.records

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(reps: list[Repetition], records: int) -> tuple[dict, list[str]]:
    runs = [r.launch for r in reps if r.launch.report and "run_s" in r.launch.report]
    if not runs:
        raise BenchError("no repetition completed a pipeline run")
    run_s = [launch.report["run_s"] for launch in runs]
    cpu_s = [launch.report["cpu_s"] for launch in runs]
    setups = [r.launch for r in reps if r.launch.setup_s is not None]
    setup_raw = [launch.setup_s for launch in setups]
    ref_s = [launch.report["ref_s"] for launch in runs] + [launch.report["setup_ref_s"] for launch in setups]
    ref = median(ref_s)
    checked = [r.check for r in reps if r.check.ari_min is not None]
    failed = sum(not r.check.ok for r in reps)
    values = {
        "run_ref": median(run_s) / ref,
        "records_per_ref": records * ref / median(run_s),
        "cpu_ref": median(cpu_s) / ref,
        "setup_s": median(setup_raw) / ref * REF_NOMINAL_S,
        "peak_rss_mb": median([launch.report["peak_rss_mb"] for launch in runs]),
        "artifact_mb": median([r.check.artifact_bytes / 1e6 for r in reps if r.check.digest]),
        "ari_min": median([c.ari_min for c in checked]),
        "passed_ratio": 1 - failed / len(reps),
    }
    notes = [
        f"run_s: {describe(run_s)}; samples {' '.join(f'{v:.3f}' for v in run_s)}",
        f"cpu_s: {describe(cpu_s)}",
        f"setup_s (raw): {describe(setup_raw)}; samples {' '.join(f'{v:.4f}' for v in setup_raw)}",
        f"ref_s (reference job): {describe(ref_s)}; samples {' '.join(f'{v:.4f}' for v in ref_s)}",
        f"records in window: {records}; records_per_s {records / median(run_s):.1f}",
        f"detector_ari_min: {median([c.detector_ari_min for c in checked]):.4f}",
        f"failed_ratio: {failed / len(reps):.4f} ({failed} of {len(reps)} repetitions)",
    ]
    return values, notes


def per_layer(reps: list[Repetition]) -> tuple[dict, list[str], list[dict]]:
    traced = [r for r in reps if r.traced and r.launch.report and "spans" in r.launch.report]
    plain = [r for r in reps if not r.traced and r.launch.report and "run_s" in r.launch.report]
    if not traced or not plain:
        raise BenchError("no traced and untraced repetition pair completed")
    samples: dict[str, list[float]] = {}
    for rep in traced:
        report, stats = rep.launch.report, rep.stub_stats
        summary = summarize(report["spans"], report["counts"])
        summary.update({
            "gauge_alert.history_days": report["history_days"],
            "gauge_alert.alerts_fired": report["alerts_fired"],
            "ingest_store.http_pages": stats.get("pages", 0),
            "ingest_store.http_bytes": stats.get("bytes", 0),
            "stub.cpu_s": stats.get("cpu_s", 0.0),
            "stub.gauge_posts": stats.get("gauge_posts", 0),
            "detectors.ari_min": rep.check.detector_ari_min or 0.0,
            "host.ref_s": report["ref_s"],
        })
        for key, value in summary.items():
            samples.setdefault(key, []).append(value)
    reports = [r.launch.report for r in reps if r.launch.report]
    samples["cli.import_s"] = [r["import_s"] for r in reports]
    samples["config.load_s"] = [r["load_s"] for r in reports if "load_s" in r]
    traced_run = median([r.launch.report["run_s"] for r in traced])
    plain_run = median([r.launch.report["run_s"] for r in plain])
    values = {key: median(series) for key, series in samples.items()}
    values["trace.overhead_s"] = traced_run - plain_run
    spans = traced[-1].launch.report["spans"]
    self_times = sorted(self_time_by_name(spans).items(), key=lambda item: -item[1])
    notes = [f"traced run_s {traced_run:.4f} (n={len(traced)}), untraced {plain_run:.4f} (n={len(plain)})"]
    notes += [f"self time {name}: {seconds:.4f} s" for name, seconds in self_times[:12]]
    return values, notes, spans


def run_workload(root: Path, make_store: Callable, seed: int, seconds: float, trace: bool) -> dict:
    name = make_store.__name__
    base = root / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, base, make_store, seed, seconds, trace)
    try:
        reps, records = runner.run()
    finally:
        runner.close()
    if trace:
        values, notes, spans = per_layer(reps)
        traces = base / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{name}-seed{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        values, notes = end_to_end(reps, records)
    specs = SPEC["per_layer" if trace else "end_to_end"]
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    print(f"== {name} seed {seed}: {len(reps)} repetitions")
    for note in notes:
        print(f"   {note}")
    for spec in specs:
        print(f"{spec['name']}: {values[spec['name']]:.6g} {spec['unit']}")
    failed = sum(not r.check.ok for r in reps)
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the worker and the stub are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "camlpad" / "__init__.py").is_file():
        print(f"error: no camlpad sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    try:
        for name in names:
            result = run_workload(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
