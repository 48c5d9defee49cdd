"""Host-normalized end-to-end benchmark of the repro compiler and service.

Run from the repository root::

    python3 perfbench/run.py --workload cold_verify --seed 1 --seconds 10 --trace 0

Workloads: ``cold_verify``, ``exec_heavy``, ``pool_warm``, ``endpoint_rtt``
(perfbench/README.md says why each exists).  With ``--trace 0`` the last
line of stdout is a JSON object carrying every end-to-end metric; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
Every timing is host-normalized (perfbench/hostnorm.py).  A report with
raw and normalized timings, the reference samples, per-program rows and
the spans is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inproc  # noqa: E402
import pooled  # noqa: E402
from common import ROOT, Run  # noqa: E402

WORKLOADS = {
    "cold_verify": inproc.cold_verify,
    "exec_heavy": inproc.exec_heavy,
    "pool_warm": pooled.pool_warm,
    "endpoint_rtt": pooled.endpoint_rtt,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="host-normalized end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: the code under test ({source}) is missing", file=sys.stderr)
        return 2
    # Byte-compile before the set-up clock starts: a fresh checkout has no
    # bytecode cache, and compiling it is not set-up the program does.
    compileall.compile_dir(str(source), quiet=1)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.close()
    print(json.dumps(run.finish()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
