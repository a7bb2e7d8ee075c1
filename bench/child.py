"""One workload run in a fresh interpreter.

Usage (from the checkout root, normally spawned by bench/run.py):

    python3 bench/child.py WORKLOAD SEED WORKDIR RESULT_JSON TRACE

Stages are called in-process through ``uqshift.cli.main``, as the
acceptance tests do: first the workload's preparation stages, then the
timed ones.  The result file holds the stage exit codes, the moment the
first timed stage started (CLOCK_MONOTONIC, comparable with the parent's
clock), wall and CPU time of the timed stages, what the process met
while they ran (page faults, context switches, time spent waiting for a
CPU), peak RSS, the output tree's sha256, the quality figures read back
from the tree and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from uqshift import cli  # noqa: E402  (after the path set-up above)

import tracing  # noqa: E402
from workloads import OUT, STAGES, WORKLOADS  # noqa: E402


def tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def process_counters() -> dict:
    """Counters of this process that explain a slow run: faults, context
    switches, user/system CPU and the time spent runnable but not running."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out = {"minflt": ru.ru_minflt, "majflt": ru.ru_majflt, "nvcsw": ru.ru_nvcsw,
           "nivcsw": ru.ru_nivcsw, "user_s": ru.ru_utime, "sys_s": ru.ru_stime}
    try:  # Linux: on-CPU ns, run-queue wait ns, time slices
        out["runq_wait_s"] = int(Path("/proc/self/schedstat").read_text().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        pass
    return out


def quality(root: Path) -> dict:
    """Figures a user reads from the tree: held-out R^2, novelty rates, splits."""
    split_ids = sorted(int(p.stem.split("_")[1]) for p in (root / "split").glob("split_*.csv"))
    out = {"splits_built": len(split_ids)}
    evals = [root / "eval" / f"split_{k}" for k in split_ids]
    if not evals or not all((e / "summary.json").is_file() for e in evals):
        return out  # a stage failed; the run is already counted as failed
    rows = (evals[0] / "r2_matrix.csv").read_text().splitlines()[1:]
    diagonal = [row.split(",")[1 + i] for i, row in enumerate(rows)]
    values = [float(v) for v in diagonal if v != ""]
    out["heldout_r2"] = sum(values) / len(values) if values else float("nan")
    in_rates = []
    for e in evals:
        summary = json.loads((e / "summary.json").read_text())
        rate = (summary.get("novelty") or {}).get("in_cluster_rate")
        if rate is not None:
            in_rates.append(rate)
    if in_rates:
        out["novelty_in_rate"] = sum(in_rates) / len(in_rates)
    return out


def main(argv: list[str]) -> int:
    name, seed, workdir, result_path, trace = argv
    workload = WORKLOADS[name]
    tracer = tracing.Tracer() if trace == "1" else None
    if tracer is not None:
        tracing.install(tracer)

    os.chdir(workdir)
    Path("run.ini").write_text(workload.config)
    codes: dict[str, int] = {}
    report_out = io.StringIO()

    def run_stage(stage: str) -> bool:
        argv = [stage, "--config", "run.ini", "--out", OUT, "--seed", seed]
        call = cli.main if tracer is None else tracer.span(f"cli.{stage}", cli.main)
        with contextlib.redirect_stdout(report_out):
            codes[stage] = call(argv)
        return codes[stage] == 0

    result = {"codes": codes}
    if all(run_stage(stage) for stage in workload.prepare):
        if tracer is not None:
            tracer.timed = True
        result["ready"] = time.monotonic()
        counters0 = process_counters()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        all(run_stage(stage) for stage in workload.timed)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        counters1 = process_counters()
        result["process"] = {k: counters1[k] - counters0[k] for k in counters1}
        if tracer is not None:
            tracer.timed = False
            result["layers"] = tracing.layer_metrics(tracer, STAGES, result["wall_s"])
            result["spans"] = tracer.spans()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["report_verified"] = "report: all evaluation artifacts verified" in report_out.getvalue()
    result["digest"] = tree_digest(Path(OUT))
    result["quality"] = quality(Path(OUT))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
