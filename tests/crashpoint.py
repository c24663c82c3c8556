"""Run the `pipeline` CLI and SIGKILL this process at the k-th call that
changes files: an `os.replace`, a `shutil.rmtree` or an `open` in a write
mode. The kill comes right after that call returns, so a written file is
left truncated and empty. As in a real crash, no `finally` block or exit
handler runs, and only the kernel releases what the process held.

    python tests/crashpoint.py <k> <pipeline args...>

With k = 0 nothing is killed. A run that is not killed prints the kinds
of the calls it made, in order, as its last line on stderr:

    crashpoint: open replace rmtree ...
"""

import builtins
import os
import runpy
import shutil
import signal
import sys

PREFIX = "crashpoint:"


def main() -> None:
    k, args = int(sys.argv[1]), sys.argv[2:]
    calls: list[str] = []

    def counted(kind, call, changes=lambda *a, **kw: True):
        def wrapper(*args, **kwargs):
            result = call(*args, **kwargs)
            if changes(*args, **kwargs):
                calls.append(kind)
                if len(calls) == k:
                    print(f"{PREFIX} SIGKILL after call {k}, {kind} {args[0]}",
                          file=sys.stderr, flush=True)
                    os.kill(os.getpid(), signal.SIGKILL)
            return result
        return wrapper

    def writes(file, mode="r", *args, **kwargs):
        return any(c in mode for c in "wax+")

    os.replace = counted("replace", os.replace)
    shutil.rmtree = counted("rmtree", shutil.rmtree)
    builtins.open = counted("open", builtins.open, writes)
    sys.argv = ["denseadapt.cli", *args]
    try:
        runpy.run_module("denseadapt.cli", run_name="__main__", alter_sys=True)
    finally:
        print(PREFIX, *calls, file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
