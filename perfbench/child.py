"""Fresh-interpreter probes launched by run.py; prints one JSON line.

    python3 perfbench/child.py setup WORKLOAD
        time ``import qeuler`` plus the workload's warm-up pass, each step
        corrected for the machine's speed with the kernel timed between
        steps (see speed.py)
    python3 perfbench/child.py cli [--trace] ARGV...
        run ARGV through ``qeuler.cli.main`` and time it; with ``--trace``
        the layer wrappers are installed around the call
"""

import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def setup(name):
    import speed
    from workloads import WORKLOADS

    def timed(step):
        nonlocal after, total, wall
        start = perf_counter()
        step()
        seconds = perf_counter() - start
        before, after = after, speed.PYTHON.seconds()
        total += speed.corrected(seconds, before, after)
        wall += seconds

    after, total, wall = speed.PYTHON.seconds(), 0.0, 0.0
    timed(lambda: importlib.import_module("qeuler"))
    for step in WORKLOADS[name].warmup_steps():
        timed(step)
    return {"setup_s": total, "wall_s": wall}


def cli(argv, trace):
    from qeuler import cli as qcli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        start = perf_counter()
        if tracer is None:
            code = qcli.main(argv)
        else:
            with tracer.installed():
                code = qcli.main(argv)
        main_s = perf_counter() - start
    out = {"code": code, "stdout": buffer.getvalue(), "main_s": main_s}
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        result = setup(rest[0])
    else:
        trace = bool(rest) and rest[0] == "--trace"
        result = cli(rest[1:] if trace else rest, trace)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
