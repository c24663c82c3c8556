"""SIGKILL crash sweep of the stage cache.

`pipeline run --method gpl` on the world of `tests/test_pipeline.py` is
killed by `tests/crashpoint.py` at its k-th `os.replace`, `shutil.rmtree`
or write-mode `open`, for every k. A second run then goes to completion,
and the sweep checks that

  - every file is byte-identical to a clean run's, each stage's record
    `cache-manifest.json` aside (it holds a timestamp);
  - no `*.tmp` or `*.old` is left;
  - the run lock on `.lock` is free.

The killed run starts from one of two caches: "fresh" (empty) or
"rebuild" (a finished run at another seed, so each stage replaces an
existing directory of its own).

    PYTHONPATH=src python tests/crash_sweep.py [scenario:k ...]

With no argument every k of both scenarios is swept, which takes a few
minutes on two cores; it prints one line per kill point and exits 1 if
any fails.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from test_pipeline import CHILD_ENV, small_config

CRASHPOINT = Path(__file__).resolve().parent / "crashpoint.py"
# The seed of the finished run that the "rebuild" scenario starts from.
SCENARIOS = {"fresh": None, "rebuild": 12}
UNCOMPARED = {"cache-manifest.json"}


def snapshot(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Sweep:
    """A world, its config file, the files of a clean run from an empty
    cache, and each scenario's starting files and kinds of call."""

    def __init__(self, work: Path):
        cfg = small_config(work, work / "out")
        self.config = work / "config.json"
        self.config.write_text(json.dumps(cfg.data))
        self.lock = cfg.dataset_dir / ".lock"
        self.out = cfg.dataset_dir.parent
        self.starts: dict[str, dict[str, bytes]] = {}
        self.kinds: dict[str, list[str]] = {}
        for name, seed in SCENARIOS.items():
            shutil.rmtree(self.out, ignore_errors=True)
            if seed is not None:
                self.run(seed=seed)
            self.starts[name] = snapshot(self.out) if self.out.exists() else {}
            self.kinds[name] = self.run(kill_at=0)
            if seed is None:
                self.clean = snapshot(self.out)

    def run(self, kill_at: int | None = None, seed: int | None = None
            ) -> list[str]:
        """One `pipeline run --method gpl`; under crashpoint when `kill_at`
        is given, returning the kinds of call of a run that was not
        killed."""
        argv = ["run", "--config", str(self.config), "--method", "gpl"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        head = [sys.executable, "-m", "denseadapt.cli"] if kill_at is None \
            else [sys.executable, str(CRASHPOINT), str(kill_at)]
        proc = subprocess.run([*head, *argv], env=CHILD_ENV, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=300)
        expected = -signal.SIGKILL if kill_at else 0
        if proc.returncode != expected:
            raise AssertionError(f"{' '.join(head[1:])}: exit {proc.returncode},"
                                 f" not {expected}\n{proc.stderr[-2000:]}")
        last = proc.stderr.splitlines()[-1] if proc.stderr else ""
        return last.split()[1:] if kill_at == 0 else []

    def check(self, scenario: str, k: int) -> list[str]:
        """Kill a run at call k, finish it with a second run; return what
        is wrong with the result."""
        shutil.rmtree(self.out, ignore_errors=True)
        for rel, data in self.starts[scenario].items():
            (self.out / rel).parent.mkdir(parents=True, exist_ok=True)
            (self.out / rel).write_bytes(data)
        try:
            self.run(kill_at=k)
            self.run()
        except AssertionError as e:
            return [str(e)]
        files = snapshot(self.out)
        problems = [f"{rel} differs" for rel in sorted(set(files) | set(self.clean))
                    if Path(rel).name not in UNCOMPARED
                    and files.get(rel) != self.clean.get(rel)]
        problems += [f"{p.relative_to(self.out)} left" for p in self.out.rglob("*")
                     if p.suffix in (".tmp", ".old")]
        if self.lock.exists():  # a missing lock file is compared above
            fd = os.open(self.lock, os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                problems.append(".lock is held")
            finally:
                os.close(fd)
        return problems


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        sweep = Sweep(Path(tmp))
        points = [(s, int(k)) for s, _, k in (a.partition(":") for a in argv)] \
            or [(s, k + 1) for s in SCENARIOS for k in range(len(sweep.kinds[s]))]
        failed = 0
        for scenario, k in points:
            problems = sweep.check(scenario, k)
            failed += bool(problems)
            print(f"{scenario}:{k} ({sweep.kinds[scenario][k - 1]}) "
                  + ("; ".join(problems) or "ok"), flush=True)
    print(f"{len(points) - failed} of {len(points)} kill points ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
