"""One benchmark child: a fresh interpreter that runs one or more CLI ops.

Usage: python3 child.py SPEC.json

SPEC holds ``import`` (module imported under the setup timer), ``entry``
(``module:function`` called as ``entry(argv, out=stream)``, returning the exit
code), ``ops`` (a list of ``{"label", "argv"}``), ``trace`` (install span
wrappers after the import), ``spans_file`` (where traced spans go),
``provenance`` (report library versions) and ``result`` (where the JSON
result goes).  The op timer covers only the entry call, so import time stays
in setup.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter


def _provenance() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
    }


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = perf_counter()
    module = importlib.import_module(spec["import"])
    import_s = perf_counter() - t0
    tracer = None
    if spec.get("trace"):
        from bench_trace import Tracer  # imports numpy, so only after the timed import

        tracer = Tracer()
        tracer.install()
    # Resolved after install, so a traced entry point is the wrapper.
    mod_name, func_name = spec["entry"].split(":")
    entry = getattr(importlib.import_module(mod_name), func_name)

    ops = []
    for op in spec["ops"]:
        out = io.StringIO()
        rec = {"label": op["label"], "argv": op["argv"]}
        t = perf_counter()
        try:
            if tracer is None:
                rec["rc"] = entry(op["argv"], out=out)
            else:
                with tracer.span(op["label"]):
                    rec["rc"] = entry(op["argv"], out=out)
        except Exception:  # the op failed; record it and go on to the next op
            rec["rc"] = None
            rec["error"] = traceback.format_exc(limit=5)
        rec["seconds"] = perf_counter() - t
        rec["stdout"] = out.getvalue()
        ops.append(rec)

    result = {
        "import_s": import_s,
        "module_file": getattr(module, "__file__", None),
        "ops": ops,
        "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spec.get("provenance"):
        result["provenance"] = _provenance()
    from bench_trace import cache_counters

    result["caches"] = cache_counters()
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["span_count"] = len(tracer.start)
        if spec.get("spans_file"):
            tracer.save(spec["spans_file"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
