"""viscoflow benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: simulate-2d, iterate-2d, oracles, simulate-3d, snapshot-exact;
BENCHMARK.json gates the first three (see NOTES.md).
The run times fresh worker start-ups (interpreter start until ``import
viscoflow`` returns), then one fresh worker repeats the workload's CLI calls
for ``--seconds`` seconds with every thread pool pinned to one thread and
checks each repetition's outputs against the package's oracles.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, cpu_s (medians,
scaled to a host of fixed speed by the reference kernel in reference.py)
and peak_rss_mb.  --trace 1 reports the per-layer metrics of the traced
repetitions and trace.overhead_frac.  The last line of standard output is
the JSON result; the lines before it name every metric with its unit and
the checks attempted and failed.  Exits non-zero, printing no result, when
the package cannot be imported from ``src`` or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170      # the whole run must end within 180 s
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "VISCOFLOW_THREADS")}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(env: dict, spec: dict, timeout: float) -> dict:
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:    # time-out or interrupt: leave no worker behind
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment(res: dict) -> dict:
    """Host and toolchain facts that explain a number, read without changing anything."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha or "unknown (not a git checkout)", "python": res["python"],
            "numpy": res["numpy"], "nproc": os.cpu_count(), "cache_per_core": caches,
            "pinned_threads": res["threads"]}


def _median_or_first(values: list, unit: str) -> float:
    # Counts and computed sizes repeat exactly; times are summarised by the median.
    return statistics.median(values) if unit == "s" else values[0]


def _spread(values: list) -> str:
    if len(values) < 2:
        return "1 repetition"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (f"median of {len(values)} repetitions, unscaled {statistics.median(values):.4g} s, "
            f"quartiles {q1:.4g} to {q3:.4g}")


def summarise(args, res: dict) -> tuple[dict, list[str]]:
    notes = []
    if not args.trace:
        ref = statistics.median(res["ref_s"])
        scale = res["ref_nominal_s"] / ref
        notes.append(f"reference kernel: median {ref:.4g} s of {len(res['ref_s'])} passes, "
                     f"nominal {res['ref_nominal_s']:.4g} s; the times are scaled by {scale:.4g}")
        metrics = {
            "setup_s": (statistics.median(res["setup_s"]) * scale, "s",
                        f"median of {len(res['setup_s'])} start-ups, "
                        f"unscaled {statistics.median(res['setup_s']):.4g} s"),
            "wall_s": (statistics.median(res["wall_s"]) * scale, "s", _spread(res["wall_s"])),
            "cpu_s": (statistics.median(res["cpu_s"]) * scale, "s", _spread(res["cpu_s"])),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB", "ru_maxrss of the worker"),
        }
    else:
        metrics = {}
        layers = res["layers"]
        for name, (_, unit) in layers[0].items():
            values = [rep[name][0] for rep in layers]
            if unit != "s" and len(set(values)) > 1:
                notes.append(f"{name} differs between traced repetitions: {values}")
            metrics[name] = (_median_or_first(values, unit), unit,
                             f"{len(layers)} traced repetitions")
        overhead = statistics.median(res["traced_wall_s"]) / statistics.median(res["wall_s"]) - 1.0
        metrics["trace.overhead_frac"] = (
            overhead, "ratio",
            f"traced {len(res['traced_wall_s'])} vs untraced {len(res['wall_s'])} repetitions")
        solve = metrics.get("evolve.solve_s", (0.0,))[0]
        if solve > 0:
            notes.append(f"evolve.solve_s is {solve / statistics.median(res['traced_wall_s']):.1%}"
                         " of the traced repetition wall time")
        for name, lost in res["missing"].items():
            notes.append(f"absent: {name} reads 0 for {', '.join(lost)}, which no longer exist")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    env = worker_env()
    try:
        if not (ROOT / "src" / "viscoflow" / "__init__.py").is_file():
            raise BenchError(f"no viscoflow package under {ROOT / 'src'}")
        work.mkdir(parents=True, exist_ok=True)
        spec = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "work": str(work),
                "spans": str(state / f"spans-{args.workload}-seed{args.seed}.npz")}
        res = run_worker(env, spec, WORKER_TIMEOUT_S)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, notes = summarise(args, res)
    failed = len(res["failures"])
    print("environment: " + json.dumps(environment(res), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit, how) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} ({how})")
    print(f"  check_fail_frac = {failed / res['attempted']:.6g} ratio "
          f"({failed} failed of {res['attempted']} checks attempted)")
    for line in notes + res["failures"][:20]:
        print(f"  note: {line}")
    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
