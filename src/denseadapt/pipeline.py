"""Stage-based pipeline runner with on-disk caching.

Each stage produces its artifacts once and is skipped on re-run when both
its input hash and its config hash match the cache manifest and all output
files still exist. Every stage runs through `_run_cached`, so its outputs
appear only once it completes. Stage layout under the output root:

    <out>/<dataset>/shared/<stage>/...     ingest, generate, mine, label,
                                           pretrain-<method>
    <out>/<dataset>/<method>/<stage>/...   train, evaluate, rerank

Generation, mining, and labeling artifacts are method-independent, so they
live in the shared scope and are reused across methods that agree on their
configs (generated queries are shared between the margin-distillation and
in-batch baselines by construction).
"""

from __future__ import annotations

import copy
import fcntl
import json
import logging
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import corpus as corpus_io
from .corpus import Passage, load_corpus, load_qrels, load_queries, \
    passage_text, save_corpus, save_queries, tokenize
from .evaluation import EvalReport, RunRanking, ce_rerank, evaluate, \
    full_rank, load_report, read_trec_run, write_trec_run
from .labeling import build_dataset, read_dataset, write_dataset
from .mining import BM25Retriever, DenseRetriever, build_bm25_index, \
    mine_pools, read_hard_negatives, write_hard_negatives
from .models import EncoderModel, init_encoder, lexical_overlap_ce, \
    load_model, save_model
from .pretraining import PRETRAIN_METHODS, PretrainConfig, pretrain, \
    udalm_train
from .qgen import SamplerConfig, compute_budget, \
    generate_queries, mock_generator, write_gen_qrels
from .training import TrainRunConfig, LossConfig, gpl_train, qgen_train, \
    write_loss_trace
from .util import canonical_json, derive_seed, sha256_bytes, sha256_files

logger = logging.getLogger(__name__)

CACHE_ROOT_ENV = "PIPELINE_CACHE_ROOT"

STAGE_NAMES = ("ingest", "generate", "mine", "label", "train", "pretrain",
               "evaluate", "rerank")

# The shared stages each final method needs, in run order; its train stage
# hashes the artifact of each. Runners look `stage_<name>` up when they call.
_SHARED_STAGES = {"zero_shot": (), "gpl": ("generate", "mine", "label"),
                  "qgen": ("generate",), "qgen_hard": ("generate", "mine"),
                  "udalm": ()}

# The artifact of each shared stage that later stages read.
_ARTIFACT = {"ingest": "corpus.jsonl", "generate": "gen-queries.jsonl",
             "mine": "hard-negatives.jsonl", "label": "gpl-training-data.tsv"}

# The ingest stage's copy of each input file, by `paths` key.
_INGESTED = {"corpus": "corpus.jsonl", "queries": "queries.jsonl",
             "qrels": "qrels.tsv"}

DEFAULTS: dict = {
    "dataset": "dataset",
    "seed": 0,
    "method": "gpl",
    "paths": {
        "corpus": None,
        "queries": None,
        "qrels": None,
        "output": "out",
        "source_corpus": None,
        "source_queries": None,
        "source_tuples": None,
        "init_model": None,
    },
    "encoder": {"dim": 32, "max_seq_len": 350, "init_scale": 0.05},
    "ingest": {"drop_missing_body": False},
    "generate": {
        "total_budget": 250_000,
        "temperature": 1.0,
        "top_k": 25,
        "top_p": 0.95,
        "max_query_len": 12,
        "generator": "mock",
    },
    "mine": {"retrievers": ["bm25", "dense"], "n_per_retriever": 50},
    "label": {"cross_encoder": "lexical", "ce_scale": 10.0},
    "train": {
        "gpl": {"steps": 140_000, "batch_size": 32, "learning_rate": 2e-3,
                "log_every": 100, "checkpoint_every": 0},
        "qgen": {"steps": None, "batch_size": 75, "learning_rate": 2e-3,
                 "tau": 20.0, "log_every": 100, "checkpoint_every": 0},
    },
    "pretrain": {"steps": 100_000, "batch_size": 8, "learning_rate": 2e-3,
                 "deletion_ratio": 0.6, "mask_ratio": 0.15,
                 "ict_mask_prob": 0.9, "dropout_rate": 0.1, "tau": 20.0},
    "udalm": {"mix_weight": 0.5, "steps": 1000, "batch_size": 8,
              "learning_rate": 2e-3, "mask_ratio": 0.15, "log_every": 1,
              "checkpoint_every": 0},
    "evaluate": {"metrics": ["ndcg@10", "mrr@10"], "cutoff": 1000,
                 "gain": "linear"},
    "rerank": {"top_n": 100},
}


class PipelineError(RuntimeError):
    pass


def _deep_merge(base: dict, override: dict, where: str) -> dict:
    """base with override's values put in. A key that base lacks, an object
    where base holds a value, or the reverse, is an error naming its dotted
    path; `where` is the path of base."""
    if not isinstance(override, dict):
        raise PipelineError(f"config {f'key {where[:-1]} ' if where else ''}"
                            f"must be an object; got {type(override).__name__}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise PipelineError(f"unknown config key {where}{key}")
        if isinstance(out[key], dict):
            out[key] = _deep_merge(out[key], value, f"{where}{key}.")
        elif isinstance(value, dict):
            raise PipelineError(f"config key {where}{key} takes a value, "
                                "not an object")
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class PipelineConfig:
    """Merged configuration tree; DEFAULTS names the full key set, and a
    key it does not name is rejected."""

    data: dict

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None
                  ) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise PipelineError(f"config {path} is not valid JSON: {e}") from None
        return cls(_deep_merge(_deep_merge(DEFAULTS, data, ""),
                               overrides or {}, ""))

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(_deep_merge(DEFAULTS, data, ""))

    def __getitem__(self, key: str):
        return self.data[key]

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    @property
    def dataset_dir(self) -> Path:
        root = os.environ.get(CACHE_ROOT_ENV) or self.data["paths"]["output"]
        return Path(root) / self.data["dataset"]

    def stage_dir(self, stage: str, scope: str = "shared") -> Path:
        return self.dataset_dir / scope / stage


def parse_method(method: str) -> tuple[str | None, str]:
    """Split a method id into (pretraining method or None, final method)."""
    if "+" in method:
        pre, _, final = method.partition("+")
        if pre in PRETRAIN_METHODS and final in ("gpl", "qgen", "qgen_hard"):
            return pre, final
    elif method in _SHARED_STAGES:
        return ("mlm", "udalm") if method == "udalm" else (None, method)
    valid = list(_SHARED_STAGES) + [f"{p}+{m}" for p in PRETRAIN_METHODS
                                   for m in ("gpl", "qgen", "qgen_hard")]
    raise PipelineError(f"unknown method {method!r}; valid methods: "
                        + ", ".join(valid))


# --- cache manifest and run lock ----------------------------------------------


class CacheManifest:
    """Per-dataset record of completed stages: input hash, config hash,
    output files (relative to the manifest's directory, so a moved cache
    keeps its hits), and timestamp. A stage is a cache hit only when both
    hashes match and the entry lists exactly the stage's output files (an
    older version of a stage may have written fewer), all still present.
    A manifest that is not a JSON object is rebuilt, and an entry of the
    wrong shape is a miss."""

    def __init__(self, path: Path):
        self.path = path
        self.entries: dict[str, dict] = {}
        if path.exists():
            try:
                with open(path, encoding="utf-8") as f:
                    entries = json.load(f)
            except (ValueError, OSError):
                entries = None
            if isinstance(entries, dict):
                self.entries = entries
            else:
                logger.warning("corrupt cache manifest at %s; rebuilding", path)

    def save(self) -> None:
        """Write atomically: a crash leaves the old manifest or the new one."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.entries, f, sort_keys=True, indent=2)
        os.replace(tmp, self.path)

    def _names(self, outputs: Sequence[Path]) -> list[str]:
        return sorted(Path(p).relative_to(self.path.parent).as_posix()
                      for p in outputs)

    def record(self, key: str, input_hash: str, config_hash: str,
               outputs: Sequence[Path]) -> None:
        self.entries[key] = {
            "input_hash": input_hash,
            "config_hash": config_hash,
            "outputs": self._names(outputs),
            "timestamp": time.time(),
        }
        self.save()

    def resolve(self, key: str, input_hash: str, config_hash: str,
                outputs: Sequence[Path]) -> bool:
        entry = self.entries.get(key)
        if not isinstance(entry, dict) or \
                entry.get("outputs") != self._names(outputs) or \
                entry.get("input_hash") != input_hash or \
                entry.get("config_hash") != config_hash:
            return False
        return all((self.path.parent / p).exists() for p in entry["outputs"])


@contextmanager
def _run_lock(directory: Path):
    """Hold the kernel lock on `<directory>/.lock` for one run. The kernel
    drops it when the process exits or is killed, so no lock outlives its
    run. The file stays in place and empty: every run locks one inode."""
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(directory / ".lock", os.O_CREAT | os.O_RDWR)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"output directory {directory} is locked by "
                                "another run") from None
        yield
    finally:
        os.close(fd)


# --- the stage runner -----------------------------------------------------------


def _run_cached(cfg: PipelineConfig, key: str, stage_dir: Path,
                inputs: Sequence[tuple[str | Path, str]],
                outputs: Sequence[str], config_hash: str,
                compute: Callable[[Path], None]) -> list[Path]:
    """Run one stage through the cache; return its output paths.

    `inputs` are (path, producing stage) pairs that must exist; `outputs`
    are file names in `stage_dir`. On a miss the manifest entry `key` is
    dropped, then `compute(out_dir)` writes into a scratch directory that
    replaces `stage_dir` once it returns: a crash leaves no partial file
    there and no entry vouching for an older one, and no file of an
    earlier run stays beside the new ones."""
    for path, producer in inputs:
        if not os.path.exists(path):
            raise PipelineError(f"missing artifact {path}; run {producer} first")
    # Each input is hashed under a role that survives moving the cache: its
    # path under the dataset directory, or the `paths` key that names it.
    keys = {Path(v): f"paths.{k}" for k, v in cfg["paths"].items() if v}
    input_hash = sha256_files(
        [path for path, _ in inputs],
        [Path(p).relative_to(cfg.dataset_dir).as_posix()
         if Path(p).is_relative_to(cfg.dataset_dir) else keys[Path(p)]
         for p, _ in inputs])
    paths = [stage_dir / name for name in outputs]
    manifest = CacheManifest(cfg.dataset_dir / "cache-manifest.json")
    if manifest.resolve(key, input_hash, config_hash, paths):
        logger.info("%s: cache hit", key)
        return paths

    manifest.entries.pop(key, None)
    manifest.save()
    scratch = stage_dir.with_name(stage_dir.name + ".tmp")
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        compute(scratch)
        with open(scratch / "provenance.json", "w", encoding="utf-8") as f:
            json.dump({"config_hash": config_hash, "input_hash": input_hash,
                       "files": sorted(outputs)}, f, sort_keys=True, indent=2)
        retired = stage_dir.with_name(stage_dir.name + ".old")
        shutil.rmtree(retired, ignore_errors=True)
        if stage_dir.exists():
            os.replace(stage_dir, retired)
        os.replace(scratch, stage_dir)
        shutil.rmtree(retired, ignore_errors=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    manifest.record(key, input_hash, config_hash, paths)
    return paths


# --- stage helpers ------------------------------------------------------------


def _stage_config_hash(cfg: PipelineConfig, *sections: str, extra: dict | None = None
                       ) -> str:
    payload = {"seed": cfg.seed, "encoder": cfg["encoder"]}
    for section in sections:
        payload[section] = cfg.data[section]
    if extra:
        payload.update(extra)
    return sha256_bytes(canonical_json(payload).encode())


def _artifact(cfg: PipelineConfig, stage: str) -> Path:
    return cfg.stage_dir(stage) / _ARTIFACT[stage]


def _inputs(cfg: PipelineConfig, *stages: str) -> list[tuple[Path, str]]:
    return [(_artifact(cfg, stage), stage) for stage in stages]


def _start_checkpoint(cfg: PipelineConfig, pre: str | None
                      ) -> tuple[Path, str]:
    """The checkpoint a method starts from: the initial encoder, or the
    pre-trained one when the method has a pre-training stage."""
    if pre is None:
        return cfg.stage_dir("ingest") / "model-initial.json", "ingest"
    return (cfg.stage_dir(f"pretrain-{pre}") / "model-pretrained.json",
            f"pretrain (method {pre})")


def _initial_model(cfg: PipelineConfig, passages: Sequence[Passage],
                   pooling: str = "mean") -> EncoderModel:
    init_path = cfg["paths"].get("init_model")
    if init_path:
        return load_model(init_path)
    tokens = {t for p in passages for t in tokenize(passage_text(p))}
    return init_encoder(tokens, dim=int(cfg["encoder"]["dim"]),
                        seed=derive_seed(cfg.seed, "init-encoder"),
                        pooling=pooling,
                        init_scale=float(cfg["encoder"]["init_scale"]),
                        max_seq_len=int(cfg["encoder"]["max_seq_len"]))


def _init_model_input(cfg: PipelineConfig) -> list[tuple[str, str]]:
    """paths.init_model, when set, as an input of the stages that start
    from it (ingest and pretrain)."""
    path = cfg["paths"].get("init_model")
    return [(path, "nothing (external checkpoint)")] if path else []


def _cross_encoder(cfg: PipelineConfig):
    backend = cfg["label"]["cross_encoder"]
    if backend == "lexical":
        return lexical_overlap_ce(float(cfg["label"]["ce_scale"]))
    raise PipelineError(f"unknown cross-encoder backend {backend!r}")


# --- stages -------------------------------------------------------------------


def stage_ingest(cfg: PipelineConfig) -> list[Path]:
    paths = cfg["paths"]
    if not paths.get("corpus"):
        raise PipelineError("config needs paths.corpus")
    given = [key for key in _INGESTED if paths.get(key)]

    def compute(out_dir: Path) -> None:
        passages = load_corpus(paths["corpus"], drop_missing_body=bool(
            cfg["ingest"]["drop_missing_body"]))
        if not passages:
            raise PipelineError("corpus is empty after ingestion")
        save_corpus(passages, out_dir / "corpus.jsonl")
        if "queries" in given:
            save_queries(load_queries(paths["queries"]), out_dir / "queries.jsonl")
        if "qrels" in given:
            corpus_io.save_qrels(load_qrels(paths["qrels"]), out_dir / "qrels.tsv")
        save_model(_initial_model(cfg, passages), out_dir / "model-initial.json")

    return _run_cached(cfg, "ingest", cfg.stage_dir("ingest"),
                       [*((paths[key], "nothing (external source data)")
                          for key in given), *_init_model_input(cfg)],
                       [*(_INGESTED[key] for key in given), "model-initial.json"],
                       _stage_config_hash(cfg, "ingest"), compute)


def stage_generate(cfg: PipelineConfig) -> list[Path]:
    def compute(out_dir: Path) -> None:
        corpus = passages = load_corpus(_artifact(cfg, "ingest"))
        gen_cfg = cfg["generate"]
        budget = compute_budget(len(passages), int(gen_cfg["total_budget"]))
        if budget.effective_corpus_size < len(passages):
            passages = corpus_io.downsample_corpus(
                passages, budget.effective_corpus_size,
                derive_seed(cfg.seed, "downsample"))
        if gen_cfg["generator"] != "mock":
            raise PipelineError(f"unknown generator backend {gen_cfg['generator']!r}")
        generator = mock_generator(corpus,
                                   max_query_len=int(gen_cfg["max_query_len"]))
        sampler = SamplerConfig(temperature=float(gen_cfg["temperature"]),
                                top_k=int(gen_cfg["top_k"]),
                                top_p=float(gen_cfg["top_p"]),
                                seed=derive_seed(cfg.seed, "generate"),
                                max_query_len=int(gen_cfg["max_query_len"]))
        queries = generate_queries(generator, passages, budget, sampler)
        save_queries(queries, out_dir / "gen-queries.jsonl")
        write_gen_qrels(queries, out_dir / "gen-qrels.tsv")

    return _run_cached(cfg, "generate", cfg.stage_dir("generate"),
                       _inputs(cfg, "ingest"),
                       ["gen-queries.jsonl", "gen-qrels.tsv"],
                       _stage_config_hash(cfg, "generate"), compute)


def stage_mine(cfg: PipelineConfig) -> list[Path]:
    model_input = _start_checkpoint(cfg, None)

    def compute(out_dir: Path) -> None:
        passages = load_corpus(_artifact(cfg, "ingest"))
        retrievers = []
        for name in cfg["mine"]["retrievers"]:
            if name == "bm25":
                retrievers.append(BM25Retriever(build_bm25_index(passages)))
            elif name == "dense":
                retrievers.append(DenseRetriever(load_model(model_input[0]),
                                                 passages, similarity="cosine"))
            else:
                raise PipelineError(f"unknown retriever {name!r}")
        pools = mine_pools(load_queries(_artifact(cfg, "generate")), retrievers,
                           n_per_retriever=int(cfg["mine"]["n_per_retriever"]))
        write_hard_negatives(pools, out_dir / "hard-negatives.jsonl")

    return _run_cached(cfg, "mine", cfg.stage_dir("mine"),
                       [*_inputs(cfg, "ingest", "generate"), model_input],
                       ["hard-negatives.jsonl"],
                       _stage_config_hash(cfg, "mine"), compute)


def stage_label(cfg: PipelineConfig) -> list[Path]:
    # One labelled tuple per GPL training example; only the schedule's
    # length enters the hash, so other train.gpl keys reuse the labels.
    gpl = cfg["train"]["gpl"]
    schedule = {"steps": gpl["steps"], "batch_size": gpl["batch_size"]}

    def compute(out_dir: Path) -> None:
        n_tuples = None if schedule["steps"] is None else \
            int(schedule["steps"]) * int(schedule["batch_size"])
        dataset = build_dataset(load_queries(_artifact(cfg, "generate")),
                                read_hard_negatives(_artifact(cfg, "mine")),
                                load_corpus(_artifact(cfg, "ingest")),
                                _cross_encoder(cfg),
                                seed=derive_seed(cfg.seed, "label"),
                                n_tuples=n_tuples)
        write_dataset(dataset, out_dir / "gpl-training-data.tsv")

    return _run_cached(cfg, "label", cfg.stage_dir("label"),
                       _inputs(cfg, "ingest", "generate", "mine"),
                       ["gpl-training-data.tsv"],
                       _stage_config_hash(cfg, "label",
                                          extra={"gpl_schedule": schedule}),
                       compute)


def stage_pretrain(cfg: PipelineConfig, method: str) -> list[Path]:
    if method not in PRETRAIN_METHODS:
        raise PipelineError(f"unknown pre-training method {method!r}")

    def compute(out_dir: Path) -> None:
        passages = load_corpus(_artifact(cfg, "ingest"))
        model = _initial_model(cfg, passages,
                               pooling="cls" if method == "cd" else "mean")
        section = cfg["pretrain"]
        pre_cfg = PretrainConfig(
            method=method, steps=int(section["steps"]),
            batch_size=int(section["batch_size"]),
            seed=derive_seed(cfg.seed, "pretrain", method),
            **{key: float(section[key]) for key in (
                "learning_rate", "deletion_ratio", "mask_ratio",
                "ict_mask_prob", "dropout_rate", "tau")})
        model, trace = pretrain(model, passages, pre_cfg)
        save_model(model, out_dir / "model-pretrained.json")
        write_loss_trace(trace, out_dir / "loss-trace.csv")

    return _run_cached(cfg, f"pretrain-{method}",
                       cfg.stage_dir(f"pretrain-{method}"),
                       [*_inputs(cfg, "ingest"), *_init_model_input(cfg)],
                       ["model-pretrained.json", "loss-trace.csv"],
                       _stage_config_hash(cfg, "pretrain",
                                          extra={"pretrain_method": method}),
                       compute)


def stage_train(cfg: PipelineConfig, method: str) -> list[Path]:
    pre, final = parse_method(method)
    if final == "zero_shot":
        raise PipelineError("zero_shot has no train stage")
    start = _start_checkpoint(cfg, pre)
    inputs = [*_inputs(cfg, "ingest"), start,
              *_inputs(cfg, *_SHARED_STAGES[final])]
    if final == "udalm":
        for key in ("source_corpus", "source_queries", "source_tuples"):
            if not cfg["paths"].get(key):
                raise PipelineError(f"udalm requires paths.{key}")
            inputs.append((Path(cfg["paths"][key]),
                           "nothing (external source data)"))
    train_seed = derive_seed(cfg.seed, "train", method)
    # The one config section the method reads, and the only one it hashes.
    section = cfg["udalm"] if final == "udalm" else \
        cfg["train"]["gpl" if final == "gpl" else "qgen"]

    def compute(out_dir: Path) -> None:
        passages = load_corpus(_artifact(cfg, "ingest"))
        model = load_model(start[0])
        model.similarity = "cosine" if final.startswith("qgen") else "dot"
        run_cfg = TrainRunConfig(
            steps=None if section["steps"] is None else int(section["steps"]),
            batch_size=int(section["batch_size"]),
            seed=train_seed, learning_rate=float(section["learning_rate"]),
            log_every=int(section["log_every"]),
            checkpoint_every=int(section["checkpoint_every"]))
        if final == "udalm":
            paths = cfg["paths"]
            model, trace = udalm_train(
                model, passages, read_dataset(paths["source_tuples"]),
                load_corpus(paths["source_corpus"]),
                load_queries(paths["source_queries"]), run_cfg,
                float(section["mix_weight"]), float(section["mask_ratio"]),
                checkpoint_dir=out_dir)
        elif final == "gpl":
            model, trace = gpl_train(
                model, read_dataset(_artifact(cfg, "label")), passages,
                load_queries(_artifact(cfg, "generate")), run_cfg,
                checkpoint_dir=out_dir)
        else:
            pools = read_hard_negatives(_artifact(cfg, "mine")) \
                if final == "qgen_hard" else None
            model, trace = qgen_train(
                model, load_queries(_artifact(cfg, "generate")), passages,
                run_cfg, negatives=pools,
                loss_cfg=LossConfig(tau=float(section["tau"])),
                checkpoint_dir=out_dir)
        save_model(model, out_dir / "model-final.json")
        write_loss_trace(trace, out_dir / "loss-trace.csv")

    return _run_cached(cfg, f"train:{method}",
                       cfg.stage_dir("train", scope=method), inputs,
                       ["model-final.json", "loss-trace.csv"],
                       _stage_config_hash(cfg, extra={"method": method,
                                                      "train": section}),
                       compute)


def _scored_run(cfg: PipelineConfig, method: str, stage: str,
                source: tuple[Path, str], config_hash: str,
                rank: Callable[[list, list], RunRanking]) -> list[Path]:
    """An evaluation stage: `rank(passages, queries)` ranks the ingested
    test queries, report.json scores that run against the qrels and
    run.trec keeps it. `source` is the (path, producer) it ranks from."""
    ingested = [(cfg.stage_dir("ingest") / name, f"ingest (with paths.{key})")
                for key, name in _INGESTED.items()]
    tag = method if stage == "evaluate" else f"{method}+{stage}"

    def compute(out_dir: Path) -> None:
        passages = load_corpus(ingested[0][0])
        queries = load_queries(ingested[1][0])
        run = rank(passages, queries)
        section = cfg["evaluate"]
        report = evaluate(run, queries, passages, load_qrels(ingested[2][0]),
                          metrics=tuple(section["metrics"]),
                          cutoff=int(section["cutoff"]), gain=section["gain"])
        report.config["method"] = tag
        report.save(out_dir / "report.json")
        write_trec_run(run, out_dir / "run.trec", tag=tag)

    return _run_cached(cfg, f"{stage}:{method}",
                       cfg.stage_dir(stage, scope=method), [*ingested, source],
                       ["report.json", "run.trec"], config_hash, compute)


def stage_evaluate(cfg: PipelineConfig, method: str) -> list[Path]:
    pre, final = parse_method(method)
    model_input = _start_checkpoint(cfg, pre) if final == "zero_shot" else \
        (cfg.stage_dir("train", scope=method) / "model-final.json", "train")
    return _scored_run(
        cfg, method, "evaluate", model_input,
        _stage_config_hash(cfg, "evaluate", extra={"method": method}),
        lambda passages, queries: full_rank(
            load_model(model_input[0]), queries, passages,
            int(cfg["evaluate"]["cutoff"])))


def stage_rerank(cfg: PipelineConfig, method: str) -> list[Path]:
    run_file = cfg.stage_dir("evaluate", scope=method) / "run.trec"
    return _scored_run(
        cfg, method, "rerank", (run_file, "evaluate"),
        _stage_config_hash(cfg, "rerank", "label", extra={"method": method}),
        lambda passages, queries: ce_rerank(
            read_trec_run(run_file), _cross_encoder(cfg), queries, passages,
            top_n=int(cfg["rerank"]["top_n"])))


def run_stage(name: str, cfg: PipelineConfig) -> list[Path]:
    """Run one named stage under the run lock; method-scoped stages take the
    method from the config. Raises an actionable error when upstream
    artifacts are missing."""
    if name not in STAGE_NAMES:
        raise PipelineError(f"unknown stage {name!r}; valid stages: "
                            + ", ".join(STAGE_NAMES))
    method = cfg["method"]
    with _run_lock(cfg.dataset_dir):
        if name == "pretrain":
            pre, _ = parse_method(method)
            if pre is None:
                raise PipelineError(f"method {method!r} has no pre-training stage")
            return stage_pretrain(cfg, pre)
        stage = globals()[f"stage_{name}"]
        if name in ("train", "evaluate", "rerank"):
            return stage(cfg, method)
        return stage(cfg)


def run_pipeline(cfg: PipelineConfig, method: str) -> EvalReport:
    """Execute the method's full stage sequence and return the eval report."""
    pre, final = parse_method(method)
    cfg = PipelineConfig(_deep_merge(cfg.data, {"method": method}, ""))
    with _run_lock(cfg.dataset_dir):
        stage_ingest(cfg)
        if pre is not None:
            stage_pretrain(cfg, pre)
        for name in _SHARED_STAGES[final]:
            globals()[f"stage_{name}"](cfg)
        if final != "zero_shot":
            stage_train(cfg, method)
        report_path = stage_evaluate(cfg, method)[0]
    return load_report(report_path)
