"""The repository benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload tune-seq --seed 1 --seconds 20 --trace 0

This process generates the workload's requests from ``--seed`` and hands
them to one workload process (``worker.py``), which serves them in a
closed loop for ``--seconds`` and checks its outputs.

``--trace 0`` measures the end-to-end metrics.  Set-up time is the median
over several fresh processes, from process start to the first servable
request.  ``--trace 1`` runs the workload twice for half the window each,
untraced and then with spans around every layer boundary, and reports the
per-layer metrics, the tracing overhead (traced minus untraced, per
end-to-end metric) and whether both runs produced identical outputs.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

#: End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sessions_per_s", "1/s", "higher"),
    ("configs_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("first_result_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("speedup_mean", "x", "higher"),
)
#: Fresh set-up processes per run, besides the measured one.
SETUP_PROBES = 14
#: A workload process that has not finished by then is killed.
WORKER_TIMEOUT_S = 150.0


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Per-layer metrics as declared in ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]


class WorkerError(RuntimeError):
    pass


def start_worker(
    args: list[str], env: dict
) -> tuple[subprocess.Popen, float, float]:
    """Start a workload process; returns it, its set-up time and the
    slowdown it measured just before set-up."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - started
        if not line.startswith("READY "):
            raise WorkerError(f"workload process did not get ready: {line!r}")
        slowdown, reference_s = (float(word) for word in line.split()[1:])
    except BaseException:
        stop(proc)
        raise
    return proc, setup_s - reference_s, slowdown


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def rest_of_output(proc: subprocess.Popen) -> str:
    """Everything the process prints after ``READY``, once it has exited.

    Read through the same buffered stream as the ``READY`` line, so nothing
    already buffered is lost; a process still running after
    :data:`WORKER_TIMEOUT_S` is killed.
    """
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"workload process exited with {proc.returncode}")
    return out


def finish_worker(proc: subprocess.Popen) -> dict:
    return json.loads(rest_of_output(proc).strip().splitlines()[-1])


def setup_probe(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Set-up time and slowdown of one fresh workload process."""
    proc, setup_s, slowdown = start_worker(
        ["--workload", workload, "--seed", str(seed), "--setup-only"], env
    )
    rest_of_output(proc)
    return setup_s, slowdown


def measure(
    workload: str, seed: int, seconds: float, traced: bool, tmp: Path, env: dict
) -> dict:
    """One workload process over the generated requests."""
    args = [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--inputs", str(tmp / "inputs.json"),
        "--trace", "1" if traced else "0",
    ]
    if traced:
        # One file per workload, replaced by the next traced run of it.
        out = ROOT / ".perfbench_out" / f"spans-{workload}.tsv"
        args += ["--spans-out", str(out)]
    proc, setup_s, slowdown = start_worker(args, env)
    result = finish_worker(proc)
    result["raw"]["setup_s"] = setup_s
    result["setup_slowdown"] = slowdown
    result["metrics"]["setup_s"] = setup_s / slowdown
    return result


def report_checks(result: dict, label: str) -> bool:
    ok = all(result["checks"].values()) and result["live_children"] == 0
    for name, passed in sorted(result["checks"].items()):
        print(f"  check {label}{name}: {'ok' if passed else 'FAILED'}")
    if result["live_children"]:
        print(f"  check {label}no live workers: FAILED ({result['live_children']})")
    return ok


def run(args) -> dict:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        requests = inputs.generate(args.workload, args.seed)
        (tmp / "inputs.json").write_text(json.dumps(requests))
        # Program temp files (checkpoints) stay inside the checkout; a fixed
        # hash seed keeps set and dict layouts equal between runs; compiled
        # bytecode is cached (inside the checkout) so set-up time measures
        # imports as a deployed install pays them, not recompilation.
        env = dict(
            os.environ,
            TMPDIR=str(tmp),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench_pycache"),
        )
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("REPRO_MAX_WORKERS", None)
        if args.trace:
            return traced_run(args, tmp, env)
        return plain_run(args, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def header(args) -> None:
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )


def plain_run(args, tmp: Path, env: dict) -> dict:
    probes = [setup_probe(args.workload, args.seed, env) for _ in range(SETUP_PROBES)]
    result = measure(args.workload, args.seed, args.seconds, False, tmp, env)
    probes.append((result["raw"]["setup_s"], result["setup_slowdown"]))
    # Back-to-back processes see the same machine speed, so the median raw
    # time is scaled once, by the slowdown pooled over all of them.
    result["raw"]["setup_s"] = median([raw for raw, _ in probes])
    result["metrics"]["setup_s"] = result["raw"]["setup_s"] / (
        sum(slowdown for _, slowdown in probes) / len(probes)
    )
    header(args)
    samples = result["samples"]
    print(
        f"  machine slowdown {result['slowdown']:.4f} against the reference "
        "speed; timings below are scaled to it (raw value in brackets)"
    )
    counts = {
        "setup_s": f"median of {len(probes)} processes",
        "sessions_per_s": f"{result['requests']} requests in {result['elapsed_s']:.2f} s",
        "latency_p50_ms": f"n={samples['latency']}",
        "latency_p90_ms": f"n={samples['latency']}",
        "first_result_s": f"median of {samples['first_result']} rounds",
        "resume_s": f"median of {samples.get('resume', 0)} rounds",
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update(tokens_per_session="tokens", resume_s="s")
    shown = {**result["metrics"], **result["extra"]}
    for name, unit in units.items():
        if name not in shown:
            continue
        raw = result["raw"].get(name)
        raw = f"[{raw:.6f}]" if raw is not None and raw != shown[name] else ""
        print(
            f"  {name:18s} {shown[name]:14.6f} {unit:6s} {raw:16s} "
            f"{counts.get(name, '')}"
        )
    failed_frac = result["failed"] / result["attempted"]
    print(
        f"  {'failed_frac':18s} {failed_frac:14.6f} ratio  "
        f"{result['failed']} of {result['attempted']} attempted"
    )
    correct = report_checks(result, "")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit, _ in END_TO_END
        },
    }


def traced_run(args, tmp: Path, env: dict) -> dict:
    half = args.seconds / 2.0
    plain = measure(args.workload, args.seed, half, False, tmp, env)
    traced = measure(args.workload, args.seed, half, True, tmp, env)
    header(args)
    correct = report_checks(plain, "untraced ") & report_checks(traced, "traced ")
    common = min(len(plain["fingerprints"]), len(traced["fingerprints"]))
    same = plain["fingerprints"][:common] == traced["fingerprints"][:common]
    print(
        f"  check traced outputs identical to untraced "
        f"({common} fingerprints): {'ok' if same else 'FAILED'}"
    )
    if traced["missing_spans"]:
        print(f"  check home spans recorded: FAILED {traced['missing_spans']}")
    else:
        print("  check home spans recorded: ok")
    correct = correct and same and not traced["missing_spans"]

    print("  spans (per request unless set-up): calls  total_ms  self_ms")
    n = max(traced["requests"], 1)
    for name, row in sorted(traced["spans"].items()):
        print(
            f"    {name:32s} {row['calls'] / n:10.3f} "
            f"{row['total_s'] * 1000 / n:10.4f} {row['self_s'] * 1000 / n:10.4f}"
        )
    values = dict(traced["layers"])
    for name, _, _ in END_TO_END:
        values[f"overhead.{name}"] = traced["metrics"][name] - plain["metrics"][name]
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:32s} {values[name]:16.6f} {unit}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    print(f"  failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    try:
        result = run(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
