"""Child-process entry point for the benchmark.

  launch.py -- <cli args>                       run ``lula-lab <cli args>``
  launch.py --trace SPANS RUN_ID -- <cli args>  the same, with spans recorded
  launch.py --probe                             print the environment as JSON
  launch.py --argmax MAP LULA POINTS.npy        compare two models' argmax

``lula_lab`` must be imported from the directory named by the
``PERFBENCH_SRC`` environment variable; anything else exits with code 3, so
an installed copy elsewhere is never measured by mistake.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from time import perf_counter


def _import_program():
    import lula_lab
    import lula_lab.cli

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    origin = os.path.realpath(lula_lab.__file__)
    if not origin.startswith(src + os.sep):
        print(f"lula_lab imported from {origin}, expected under {src}", file=sys.stderr)
        raise SystemExit(3)
    return lula_lab


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    with open("/proc/self/maps", "r", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe() -> int:
    import numpy
    import scipy

    lula_lab = _import_program()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_runtime": _openblas_threads(),
        "lula_lab": getattr(lula_lab, "__version__", "?"),
    }))
    return 0


def argmax(map_path: str, lula_path: str, points_path: str) -> int:
    import numpy as np

    lula_lab = _import_program()
    points = np.load(points_path)
    a = lula_lab.forward(lula_lab.load(map_path), points).output.argmax(axis=1)
    b = lula_lab.forward(lula_lab.load(lula_path), points).output.argmax(axis=1)
    print(json.dumps({"agree": int(np.sum(a == b)), "total": int(a.shape[0])}))
    return 0


def run(argv: list[str]) -> int:
    trace_path = run_id = None
    if argv[:1] == ["--trace"]:
        trace_path, run_id, argv = argv[1], argv[2], argv[3:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    lula_lab = _import_program()
    if trace_path is None:
        return lula_lab.cli.main(argv)

    imported = perf_counter()
    import tracer  # beside this file, so on sys.path[0]

    recorder = tracer.Tracer(run_id)
    recorder.add("cli.startup", float(os.environ["PERFBENCH_SPAWN_T"]), imported)
    tracer.install(recorder)
    try:
        return lula_lab.cli.main(argv)
    finally:
        recorder.write(trace_path)


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--probe"]:
        return probe()
    if argv[:1] == ["--argmax"]:
        return argmax(*argv[1:4])
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
