"""Set-up time of a fresh interpreter: import smallq.cli and build the
workload's inputs through public functions, stopping before the first
verification call. Prints the elapsed seconds.

    python3 bench/setup_child.py '<json spec>'     (smallq on PYTHONPATH)
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    import smallq.cli  # noqa: F401
    from smallq.hopfcore import finite_group_triple, parse_group_text
    from smallq.rootdata import build_root_datum
    from smallq.scalars import QParams

    if spec["kind"] == "root":
        datum = build_root_datum(spec["type"])
        for ell in spec["ells"]:
            QParams(ell, datum.d)
    else:
        for path in spec["files"]:
            with open(path) as fh:
                table, sub = parse_group_text(fh.read())
            finite_group_triple(table, sub)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
