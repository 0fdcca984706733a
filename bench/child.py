"""One wg-steklov CLI call in a fresh process, timed from inside.

    python3 bench/child.py SRC RECORD MODE [CLI ARGS...]

Imports `wgsteklov.harness` from the source tree SRC and, unless MODE is
`import`, calls its `main` with the CLI arguments; MODE `trace` records
spans around the calls into each module (see spans.py).  Writes a JSON
record to RECORD: the monotonic time at which `main` became importable,
and for a study its exit code, wall time, peak RSS and spans.  In `import`
mode it records the versions of Python, numpy, scipy and their OpenBLAS.
"""

import json
import os
import sys
import time


def versions():
    import platform

    import numpy
    import scipy

    def blas(lib):
        dep = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main():
    src, record_path, mode, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    from wgsteklov import harness

    ready = time.monotonic()
    if not os.path.abspath(harness.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"wgsteklov was imported from {harness.__file__}, not from {src}", file=sys.stderr)
        return 3
    record = {"ready": ready}
    if mode == "import":
        record["versions"] = versions()
    else:
        import spans

        tracer = spans.Tracer()
        if mode == "trace":
            spans.install(tracer)
        record["code"] = tracer.call(spans.ROOT, harness.main, (argv,))
        root = tracer.spans[0]
        record["study_s"] = root["end"] - root["start"]
        record["peak_rss_mb"] = spans.peak_rss_mb()
        if mode == "trace":
            record["spans"] = tracer.spans
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
