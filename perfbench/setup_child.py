"""Set-up cost in a fresh interpreter: ``import poosurv`` then parse PED text.

Usage: ``python3 setup_child.py <src-dir> [<workload> <seed>] < pedigree.ped``.
Prints one JSON object with ``import_s`` and ``parse_s``; empty input skips
the parse. Given a workload and a seed, the child then runs one operation of
that workload on the pool entry (PED text, seed) and adds ``peak_rss_mb``,
the peak resident memory of a process that did nothing but import, parse and
run that operation.

The peak is Linux's ``VmHWM``, the high-water mark of this program image.
``ru_maxrss`` would not do: it survives ``exec``, so it would also hold the
parent's memory at the moment it started this process.
"""

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb():
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    text = sys.stdin.read()
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    import poosurv

    imported = time.perf_counter()
    families = poosurv.parse_ped(text) if text else []
    parsed = time.perf_counter()
    result = {
        "import_s": imported - start,
        "parse_s": parsed - imported if text else 0.0,
        "families": len(families),
        "module": poosurv.__file__,
    }
    del families
    if len(sys.argv) > 2:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[sys.argv[2]]
        workload.run(workload.prepare((text, int(sys.argv[3]))), Tracer())
        result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
