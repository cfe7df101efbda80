"""One traced in-process run of the smallq CLI.

    python3 bench/trace_child.py SPANS_FILE CLI_ARG...   (smallq on PYTHONPATH)

Wraps the public functions of every layer (see layers.py), runs
``smallq.cli.main`` with stdout captured, writes the spans to SPANS_FILE and
prints one JSON object: the exit code, the report, the wall time of the
traced ``main`` call, the summed layer self times, the raw per-layer values
and the seconds spent after ``main`` returned (summarising and writing).
"""

import contextlib
import io
import json
import sys
import time

import layers
import tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import smallq.cli

    tr = tracer.Tracer()
    tracer.install(tr, "smallq", layers.LAYER_OF, count_only=layers.COUNT_ONLY,
                   dunders=layers.DUNDERS, probes=layers.PROBES)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = smallq.cli.main(argv)
    main_s = time.perf_counter() - t0
    report = buf.getvalue()
    summary = tr.summary()
    raw = layers.raw_metrics(summary, tr.probes, len(report.encode()))
    with open(spans_path, "w") as fh:
        tr.write_spans(fh)
    post_s = time.perf_counter() - t0 - main_s
    json.dump({"rc": rc, "report": report, "main_s": main_s,
               "layer_self_s": sum(summary["by_layer"].values()),
               "raw": raw, "post_s": post_s},
              sys.stdout)


if __name__ == "__main__":
    main()
