"""One fresh interpreter: set up, optionally run one pass, report.

Usage: python3 perfbench/child.py REQUEST.json

The request names the workload, its inputs, the mode ("setup" or "pass"),
whether to trace, and where to write the JSON report.  ``setup_s`` runs from
just before ``import deltasum`` to the end of building the fixed inputs;
``wall_s`` from the pass's first operation to its last result.
"""

import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (stdlib only: importing it loads no numpy)


def main(request_path: str) -> None:
    req = json.loads(Path(request_path).read_text())
    workload, inputs = req["workload"], req["inputs"]

    t0 = time.perf_counter()
    deltasum = workloads.import_program()
    import_s = time.perf_counter() - t0
    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    fixed = workloads.build_fixed(workload, inputs)
    setup_s = import_s + time.perf_counter() - t1

    import numpy

    report = {
        "setup_s": setup_s,
        "provenance": {
            "backend": deltasum.backend_name(),
            "deltasum_file": str(Path(deltasum.__file__).resolve().relative_to(ROOT)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "registry": fixed.get("registry"),
    }
    if req["mode"] == "pass":
        t2 = time.perf_counter()
        outputs = workloads.run_pass(workload, inputs, fixed)
        report["wall_s"] = time.perf_counter() - t2
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digest = hashlib.sha256()
        for value in outputs:
            digest.update(repr(value).encode())
            digest.update(b"\n")
        report["fingerprint"] = digest.hexdigest()
        report["outputs"] = outputs
    if tracer is not None:
        report["caches"] = tracer.cache_report()
        report["trace"] = tracer.dump()
    Path(req["report"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
