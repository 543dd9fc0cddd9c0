"""One benchmark run inside a fresh worker process.

Started by run.py as
    python3 perfbench/worker.py '<json: root, workload, seed, seconds, trace, work, spans>'
with PYTHONPATH pointing at the checkout's ``src`` and every thread pool
pinned to one thread.

Writes the workload's inputs, then repeats its CLI calls until ``seconds``
have passed, timing each repetition and checking its outputs.  Between
repetitions, about every PROBE_EVERY_S seconds, it times one fresh
interpreter start-up until ``import viscoflow`` returns; spreading the
probes over the run keeps one slow moment of a shared host from deciding
setup_s.  After every untraced repetition it times the reference kernel
(reference.py), which run.py uses to scale the times to a host of fixed
speed.  In a traced run the repetitions alternate between untraced and
traced, so the tracing overhead is measured against neighbouring untraced
repetitions.  Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

PROBE_EVERY_S = 2.0
PROBE = ("import sys, viscoflow; sys.stdout.write(viscoflow.__file__ + '\\n'); "
         "sys.stdout.flush()")


def _inside(path: str, root: Path) -> bool:
    return root / "src" in Path(path.strip()).resolve().parents


def time_setup(root: Path) -> float:
    """Seconds from spawning a fresh interpreter until ``import viscoflow`` returns."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=root, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=60)
    except BaseException:           # time-out or interrupt: leave no probe behind
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not _inside(line, root):
        raise SystemExit(f"setup probe cannot import viscoflow from {root / 'src'}: "
                         f"{line.strip()} {err.strip()[-300:]}")
    return elapsed


def _run_call(cli_main, call):
    """Exit code of one CLI call, or a description of what it raised."""
    try:
        return cli_main(call.argv())
    except Exception as exc:   # the run must go on and count the failure
        return f"raised {type(exc).__name__}: {exc}"


def main(spec: dict) -> dict:
    root = Path(spec["root"]).resolve()
    import numpy
    import viscoflow
    from viscoflow.cli import main as cli_main
    if not _inside(viscoflow.__file__, root):
        raise SystemExit(f"viscoflow imported from {viscoflow.__file__}, not from {root / 'src'}")

    calls, input_checks = workloads.prepare(spec["workload"], spec["seed"], Path(spec["work"]))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    else:
        time_setup(root)    # untimed: lets the interpreter write its bytecode caches
        reference.time_kernel()

    walls, cpus, refs, setups, traced_walls, layers = [], [], [], [], [], []
    attempted, failures = 0, []
    start = time.perf_counter()
    last_probe = start
    rep = 0
    while True:
        traced = tracer is not None and rep % 2 == 1
        if traced:
            tracer.begin_run(rep)
            tracer.install()
        t0 = time.perf_counter()
        c0 = time.process_time()
        results = [_run_call(cli_main, call) for call in calls]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if traced:
            tracer.uninstall()
            tracer.end_run()
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics())
        else:
            walls.append(wall)
            cpus.append(cpu)
            if tracer is None:
                refs.append(reference.time_kernel())
        for call, result in zip(calls, results):
            attempted += workloads.checks_per_call(call)
            failures += workloads.check_outputs(call, result)
        rep += 1
        now = time.perf_counter()
        if tracer is None and (now - last_probe >= PROBE_EVERY_S or not setups):
            setups.append(time_setup(root))
            last_probe = time.perf_counter()
        if now - start >= spec["seconds"] and (tracer is None or traced_walls):
            break

    attempted += len(input_checks)
    failures += workloads.run_checks(input_checks)
    out = {
        "wall_s": walls,
        "cpu_s": cpus,
        "ref_s": refs,
        "ref_nominal_s": reference.NOMINAL_S,
        "setup_s": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failures": failures,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }
    if tracer is not None:
        tracer.write(spec["spans"], {"workload": spec["workload"],
                                     "seed": str(spec["seed"])})
        out.update(traced_wall_s=traced_walls, layers=layers,
                   missing=tracer.missing_metrics())
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
