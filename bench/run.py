"""Benchmark the denseadapt pipeline end to end on one workload.

    python3 bench/run.py --workload gpl-stream --seed 1 --seconds 40 --trace 0

Makes the workload's inputs from the seed, then runs whole rounds of its
`pipeline` commands for at most `--seconds`, and at least one round. Each
round starts from a cold stage cache: `stage ingest` runs several times in
fresh processes (set-up), then the workload's commands run in sequence,
each in a fresh process, and the correctness checks in `checks.py` run on
what they wrote.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the run's rounds and set-ups). With
`--trace 1` one round runs as above; then the same commands run three
times in this process through `denseadapt.cli.main`: untraced, with the
wrappers of `tracing.py` installed, and untraced again. The per-layer
metrics are printed. The tracing overhead is the traced wall time minus
the mean of the two untraced ones; the traced artifacts must be
byte-identical to those of the round of processes.

The program is built from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import os

# Before numpy is imported here or in any child: no more BLAS threads than
# the processors this process may run on.
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS
os.environ.pop("PIPELINE_CACHE_ROOT", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, write_config, write_dataset  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PEAK_RSS = Path(__file__).resolve().parent / "peak_rss.py"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# A run must end within 180 s: no round starts, and no command runs on,
# past this many seconds after the run began.
DEADLINE_S = 165.0
MIB = float(1 << 20)
# Cache bookkeeping with wall-clock timestamps; not an artifact.
UNCOMPARED = {"cache-manifest.json"}

CHECKS = {
    "generate": checks.check_generate,
    "mine": checks.check_mine,
    "label": checks.check_label,
    "pretrain": checks.check_pretrain,
    "train": checks.check_train,
    "evaluate": checks.check_evaluate,
    "rerank": checks.check_rerank,
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed; a failed check also makes the
    outputs incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, ok: bool, what: str, detail: str = "",
               is_check: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not is_check
            log(f"FAILED {what}: {detail}")


class Run:
    """One workload's inputs, config and output directory for this run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = write_dataset(workload, seed, self.dir / "inputs")
        self.cache = self.dir / "cache"
        self.config_path = self.dir / "config.json"
        write_config(workload, self.inputs, self.cache, seed, self.config_path)
        with open(self.config_path, encoding="utf-8") as f:
            self.config = json.load(f)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.tally = Tally()
        self.deadline = time.monotonic() + DEADLINE_S

    def argv(self, command) -> list[str]:
        return [*command, "--config", str(self.config_path)]

    def cli(self, command) -> tuple[float, int]:
        """Run one `pipeline` command in a fresh process; return its wall
        time and peak resident memory in KiB."""
        log_path, rss_path = self.dir / "cli.log", self.dir / "peak-rss"
        rss_path.unlink(missing_ok=True)
        with open(log_path, "w", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(PEAK_RSS), str(rss_path), "denseadapt.cli",
                 *self.argv(command)],
                cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            elapsed = time.perf_counter() - start
        detail = ""
        if proc.returncode != 0:
            detail = log_path.read_text(encoding="utf-8")[-2000:]
        self.tally.record(proc.returncode == 0, " ".join(command), detail)
        kib = int(rss_path.read_text()) if rss_path.exists() else 0
        return elapsed, kib

    def check(self) -> None:
        artifacts = checks.Artifacts(self.inputs, self.cache / "bench",
                                     self.config)
        for name, *args in self.workload.checks:
            what = f"check {name} {' '.join(args)}".strip()
            try:
                CHECKS[name](artifacts, *args)
            except (checks.CheckFailed, OSError, KeyError, ValueError) as e:
                self.tally.record(False, what, repr(e), is_check=True)
            else:
                self.tally.record(True, what)

    def round(self) -> dict:
        """Set-up, then the timed commands, then the checks."""
        setup, peak = [], 0
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.cache, ignore_errors=True)
            elapsed, rss = self.cli(("stage", "ingest"))
            setup.append(elapsed)
            peak = max(peak, rss)
        walls = []
        for command in self.workload.commands:
            elapsed, rss = self.cli(command)
            walls.append(elapsed)
            peak = max(peak, rss)
        size = sum(p.stat().st_size for p in self.cache.rglob("*") if p.is_file())
        self.check()
        return {"setup": setup, "walls": walls, "peak_kib": peak, "bytes": size}


def warm_up(run: Run) -> None:
    """Compile the program's bytecode once, as an installed copy would."""
    subprocess.run([sys.executable, "-m", "denseadapt.cli", "--help"],
                   cwd=ROOT, env=run.env, stdout=subprocess.DEVNULL, check=True)


def end_to_end(run: Run, seconds: float) -> dict:
    """Whole rounds: another round starts only if a round as long as the
    longest so far would end within `seconds` (and the deadline).

    `wall_s` adds up each command's median over the rounds, so that one
    slow command in one round moves it less than a median of round sums.
    """
    rounds = []
    end = min(time.monotonic() + seconds, run.deadline)
    longest = 0.0
    while not rounds or time.monotonic() + longest <= end:
        began = time.monotonic()
        rounds.append(run.round())
        longest = max(longest, time.monotonic() - began)
        log(f"{run.workload.name} round {len(rounds)}: commands "
            f"{', '.join(f'{w:.3f}' for w in rounds[-1]['walls'])} s, set-up "
            f"{', '.join(f'{s:.3f}' for s in rounds[-1]['setup'])} s")
    walls = [statistics.median(w) for w in zip(*(r["walls"] for r in rounds))]
    return {
        "setup_s": (statistics.median(s for r in rounds for s in r["setup"]), "s"),
        "wall_s": (sum(walls), "s"),
        "peak_rss_mib": (statistics.median(r["peak_kib"] for r in rounds) / 1024, "MiB"),
        "artifacts_mib": (statistics.median(r["bytes"] for r in rounds) / MIB, "MiB"),
    }


def in_process(run: Run, tracer: tracing.Tracer | None) -> float:
    """Run ingest and the workload's commands through `denseadapt.cli.main`
    in this process; return the wall time of the commands after ingest."""
    from denseadapt import cli

    wall = 0.0
    for command in (("stage", "ingest"), *run.workload.commands):
        what = " ".join(command)
        main = tracer.wrap(cli.main, "cli." + what) if tracer else cli.main
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main(run.argv(command), standalone_mode=False)
        except Exception:  # a failed command is counted, the run goes on
            run.tally.record(False, f"in-process {what}", traceback.format_exc())
        else:
            run.tally.record(True, f"in-process {what}")
        if command != ("stage", "ingest"):
            wall += time.perf_counter() - start
    return wall


def traced(run: Run) -> dict:
    """An untraced round of processes, then the same commands in this
    process: untraced, traced, and untraced again."""
    run.round()
    kept = run.dir / "cache-untraced"
    if run.cache.exists():
        run.cache.rename(kept)
    sys.path.insert(0, str(SRC))
    untraced_walls = [in_process(run, None)]
    shutil.rmtree(run.cache, ignore_errors=True)

    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    for target in missing:
        log(f"trace: {target} not found; its layer reads 0")
    try:
        traced_wall = in_process(run, tracer)
    finally:
        undo()
    tracer.write(run.dir / "spans.jsonl")
    differ = tree_differences(kept, run.cache)
    run.tally.record(not differ, "traced artifacts equal untraced",
                     f"{len(differ)} files differ: {differ[:5]}", is_check=True)

    # Untraced both before and after, so that a machine that speeds up or
    # slows down during the run does not show as tracing overhead.
    shutil.rmtree(run.cache, ignore_errors=True)
    untraced_walls.append(in_process(run, None))
    metrics = tracing.layer_metrics(tracer.spans, traced_wall,
                                    statistics.mean(untraced_walls))
    return {name: (value, tracing.LAYER_METRICS[name][0])
            for name, value in metrics.items()}


def tree_differences(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ or that exist on one side only."""
    def files(root):
        return {str(p.relative_to(root)) for p in root.rglob("*")
                if p.is_file() and p.name not in UNCOMPARED}
    left, right = files(a), files(b)
    differ = sorted(left ^ right)
    differ += [p for p in sorted(left & right)
               if not filecmp.cmp(a / p, b / p, shallow=False)]
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "denseadapt" / "cli.py").is_file():
        log(f"no program to benchmark: {SRC / 'denseadapt'} is missing")
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    warm_up(run)
    metrics = traced(run) if args.trace else end_to_end(run, args.seconds)
    result = {
        "correct": run.tally.correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
