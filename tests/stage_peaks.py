"""Peak resident memory of each command of one benchmark workload.

The benchmark reports only a workload's largest peak (`peak_rss_mib`);
this script shows which command sets it. It writes the workload's seeded
inputs and config with `bench/workloads.py`, runs `stage ingest` and then
each of the workload's commands once, each in a fresh process under
`bench/peak_rss.py` with the benchmark's BLAS thread settings, and prints
each command's VmHWM in MiB:

    python tests/stage_peaks.py <workload> [--seed N] [--dir DIR] [--runs N]

With `--runs N` it does that N times, each round on fresh inputs and an
empty cache, and prints each command's median, min and max VmHWM; one
run reads up to about 0.5 MiB off another. The package is imported from
this checkout's `src/`. Inputs and cache go to a temporary directory
unless `--dir` names one (it must not exist); with more than one run,
round r uses its subdirectory `run-<r>`.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, write_config, write_dataset  # noqa: E402


def peaks(workload: str, seed: int, directory: Path) -> list[tuple[str, float]]:
    """(command, VmHWM in MiB) of ingest and each command, in order."""
    w = WORKLOADS[workload]
    inputs = write_dataset(w, seed, directory / "inputs")
    config = directory / "config.json"
    write_config(w, inputs, directory / "cache", seed, config)
    # The benchmark's environment: BLAS threads change what a process maps.
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env.pop("PIPELINE_CACHE_ROOT", None)
    rss = directory / "peak-rss"
    out = []
    for command in (("stage", "ingest"), *w.commands):
        subprocess.run([sys.executable, str(ROOT / "bench" / "peak_rss.py"),
                        str(rss), "denseadapt.cli", *command,
                        "--config", str(config)],
                       cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        out.append((" ".join(command), int(rss.read_text()) / 1024))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dir", type=Path)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        directory = args.dir or Path(tmp)
        directory.mkdir(parents=True, exist_ok=directory == Path(tmp))
        rounds = [peaks(args.workload, args.seed,
                        directory / f"run-{r}" if args.runs > 1 else directory)
                  for r in range(args.runs)]
    print("  median      min      max  (MiB, over "
          f"{args.runs} run{'s' * (args.runs > 1)})  command")
    for i, (command, _) in enumerate(rounds[0]):
        mib = [peak[i][1] for peak in rounds]
        print(f"{statistics.median(mib):8.2f} {min(mib):8.2f} {max(mib):8.2f}"
              f"  {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
