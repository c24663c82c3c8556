"""Run a module as `python -m` would, then write this process's peak
resident memory (VmHWM, KiB) to a file.

    python3 bench/peak_rss.py <file> <module> [args...]

The peak is read inside the process: the rusage a parent gets from
`wait4` also counts the memory of the parent that forked the child.
"""

import os
import runpy
import sys


def main() -> None:
    path, module, *args = sys.argv[1:]
    sys.argv = [module, *args]
    sys.path[0] = os.getcwd()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        with open("/proc/self/status", encoding="ascii") as f:
            kib = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
        with open(path, "w", encoding="ascii") as f:
            f.write(kib)


if __name__ == "__main__":
    main()
