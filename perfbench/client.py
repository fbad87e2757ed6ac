"""The measured client: one fresh interpreter that imports powermap.cli and
issues a fixed command sequence through powermap.cli.main, round after round.

    python3 perfbench/client.py PLAN.json RESULT.json

PLAN holds the source directory, the command sequence (argument lists, with
"{round}" standing for the round's output directory), the run length and
whether to trace. Whole rounds repeat while the next one is expected to end
within the run length, so every round issues the same commands. RESULT gets
per-round wall and CPU times, exit codes, the peak resident set and, when
traced, the raw trace.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _own_peak_kb() -> int:
    # VmHWM starts afresh at exec; ru_maxrss of this process would still
    # carry the launching process's peak.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _round(main, commands: list[list[str]], directory: str) -> dict:
    os.makedirs(directory, exist_ok=True)
    codes = []
    cpu0, wall0 = _cpu(), time.perf_counter()
    for argv in commands:
        try:
            codes.append(main([a.replace("{round}", directory) for a in argv]))
        except Exception:  # a traceback out of main is a failed operation, not a failed run
            traceback.print_exc()
            codes.append("traceback")
    wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    return {"dir": directory, "run_s": wall, "cpu_s": cpu, "codes": codes}


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    started = time.perf_counter()
    import powermap.cli as cli

    import_s = time.perf_counter() - started
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(plan["src"]) + os.sep):
        print(f"powermap.cli came from {cli.__file__}, not {plan['src']}", file=sys.stderr)
        return 2
    rounds = []
    tracer = None
    if plan["trace"]:
        # One untraced round first: the trace overhead is measured against it.
        rounds.append(_round(cli.main, plan["commands"], os.path.join(plan["out"], "round-0")))
        import trace_layers

        tracer = trace_layers.Tracer(plan["trace_dir"])
        tracer.install()
    # Whole rounds, as many as fit in the run length at the mean round time
    # so far, and at least one.
    started, measured = time.perf_counter(), 0
    while True:
        directory = os.path.join(plan["out"], f"round-{len(rounds)}")
        rounds.append(_round(cli.main, plan["commands"], directory))
        measured += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / measured > plan["seconds"]:
            break
    own = _own_peak_kb()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "import_s": import_s,
        "rounds": rounds,
        "peak_rss_mb": max(own, kids) / 1024.0,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
