"""Command-line entry point: run full method pipelines, individual stages,
or print reports from a finished output directory."""

from __future__ import annotations

import json
import logging
from pathlib import Path

from .corpus import ParseError
from .evaluation import load_report
from .pipeline import (PipelineConfig, PipelineError, run_pipeline, run_stage,
                       STAGE_NAMES)

# Imported after numpy (via .pipeline): before it, peak RSS is ~0.4 MiB higher.
import click


def _load_config(config_path: str, seed: int | None, method: str | None
                 ) -> PipelineConfig:
    overrides: dict = {}
    if seed is not None:
        overrides["seed"] = seed
    if method is not None:
        overrides["method"] = method
    return PipelineConfig.from_file(config_path, overrides)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable info logging.")
def main(verbose: bool) -> None:
    """Domain adaptation pipeline for dense retrievers."""
    logging.basicConfig(level=logging.INFO if verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", required=True,
              help="Method id, e.g. gpl, qgen, zero_shot, tsdae+gpl.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def run(config_path: str, method: str, seed: int | None) -> None:
    """Run a method's full stage sequence and print the eval averages."""
    try:
        report = run_pipeline(_load_config(config_path, seed, method), method)
    except (PipelineError, ParseError) as e:
        raise click.ClickException(str(e)) from e
    click.echo(json.dumps({"method": method, "averages": report.averages},
                          sort_keys=True, indent=2))


@main.command()
@click.argument("name", type=click.Choice(STAGE_NAMES))
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", default=None,
              help="Method context for method-scoped stages.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def stage(name: str, config_path: str, method: str | None, seed: int | None
          ) -> None:
    """Run a single pipeline stage."""
    try:
        outputs = run_stage(name, _load_config(config_path, seed, method))
    except (PipelineError, ParseError) as e:
        raise click.ClickException(str(e)) from e
    for path in outputs:
        click.echo(str(path))


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
def report(directory: str) -> None:
    """Print the averages of every eval report found under DIRECTORY."""
    found = sorted(Path(directory).rglob("evaluate/report.json")) \
        + sorted(Path(directory).rglob("rerank/report.json"))
    if not found:
        raise click.ClickException(f"no reports under {directory}")
    for path in found:
        try:
            doc = load_report(path)
        except ParseError as e:
            raise click.ClickException(str(e)) from e
        method = doc.config.get("method", path.parent.name)
        averages = " ".join(f"{k}={v:.4f}" for k, v in
                            sorted(doc.averages.items()))
        click.echo(f"{method:<24} {averages}")


if __name__ == "__main__":
    main()
