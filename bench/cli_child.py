"""Runs the smallq CLI as ``python3 -m smallq.cli`` does, and writes the
peak resident set of this process, in KiB, to PEAK_FILE when it exits.

    python3 bench/cli_child.py PEAK_FILE CLI_ARG...   (smallq on PYTHONPATH)

The peak is read from ``VmHWM`` in /proc/self/status, the high-water mark of
the address space that exec gave this process. ``ru_maxrss`` from ``wait4``
will not do: Linux carries the parent's high-water mark across fork and exec
into the child's, so every call started by a 22 MB benchmark process would
read at least 22 MB.
"""

import atexit
import os
import runpy
import sys


def _write_peak(path):
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(f"{kib}\n")


if __name__ == "__main__":
    atexit.register(_write_peak, sys.argv.pop(1))
    sys.path[0] = os.getcwd()       # as ``-m`` sets it, not this directory
    runpy.run_module("smallq.cli", run_name="__main__", alter_sys=True)
