"""Stage orchestration: artifact production, cache hits and busts, stage
ordering errors, method registry, and the CLI surface."""

import fcntl
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

from denseadapt import pipeline
from denseadapt.cli import main as cli_main
from denseadapt.corpus import Passage, load_corpus
from denseadapt.models import init_encoder, load_model, save_model
from denseadapt.pipeline import (DEFAULTS, MANIFEST, CacheManifest,
                                 PipelineConfig, PipelineError, _initial_model,
                                 parse_method, run_pipeline, run_stage,
                                 stage_generate, stage_ingest)
from denseadapt.util import sha256_files
from oracles import config_from_dict, pack_pools, stream_rows


# The tree the `denseadapt` under test was imported from, for child runs.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(pipeline.__file__).resolve().parents[1]),
     *filter(None, [os.environ.get("PYTHONPATH")])]))

# A child that takes the run lock of the directory in argv[1] and holds it
# until it is killed or its stdin is closed.
HOLD = """import fcntl, os, sys
fd = os.open(os.path.join(sys.argv[1], ".lock"), os.O_CREAT | os.O_RDWR)
fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
print("held", flush=True)
sys.stdin.read()
"""

# A child run of `run_stage("ingest")` on the config file in argv[1] whose
# stage waits for stdin to close; it prints whether it took the lock.
RACE = """import sys
from denseadapt import pipeline
def wait(cfg):
    print("took the lock", flush=True)
    sys.stdin.read()
    return []
pipeline.stage_ingest = wait
try:
    pipeline.run_stage("ingest", pipeline.PipelineConfig.from_file(sys.argv[1]))
except pipeline.PipelineError as e:
    print(e, flush=True)
"""


@pytest.fixture
def lock_holder():
    """Start a child holding a dataset directory's run lock; every child
    is killed at teardown."""
    children = []

    def start(directory: Path) -> subprocess.Popen:
        directory.mkdir(parents=True, exist_ok=True)
        child = subprocess.Popen([sys.executable, "-c", HOLD, str(directory)],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 text=True)
        children.append(child)
        assert child.stdout.readline() == "held\n"
        return child

    yield start
    for child in children:
        child.kill()
        child.wait(timeout=60)
        child.stdin.close()
        child.stdout.close()


def write_world(root, n_passages=12):
    """A small self-consistent corpus with gold eval queries and qrels."""
    corpus_path = root / "corpus.jsonl"
    queries_path = root / "queries.jsonl"
    qrels_path = root / "qrels.tsv"
    words = [f"t{i:02d}" for i in range(24)]
    with open(corpus_path, "w") as f:
        for i in range(n_passages):
            body = " ".join([words[(2 * i) % 24], words[(2 * i + 1) % 24],
                             words[(i + 5) % 24]])
            f.write(json.dumps({"_id": f"p{i:02d}", "title": "", "text": body})
                    + "\n")
    with open(queries_path, "w") as f:
        for i in range(0, n_passages, 2):
            f.write(json.dumps({"_id": f"q{i:02d}",
                                "text": words[(2 * i) % 24]}) + "\n")
    with open(qrels_path, "w") as f:
        for i in range(0, n_passages, 2):
            f.write(f"q{i:02d}\tp{i:02d}\t1\n")
    return corpus_path, queries_path, qrels_path


def small_config(root, out, **extra):
    corpus_path, queries_path, qrels_path = write_world(root)
    data = {
        "dataset": "toy",
        "seed": 11,
        "paths": {"corpus": str(corpus_path), "queries": str(queries_path),
                  "qrels": str(qrels_path), "output": str(out)},
        "encoder": {"dim": 8},
        "generate": {"total_budget": 36, "max_query_len": 4},
        "mine": {"n_per_retriever": 5},
        "train": {"gpl": {"steps": 25, "batch_size": 4, "learning_rate": 0.01,
                          "log_every": 5},
                  "qgen": {"steps": 10, "batch_size": 4,
                           "learning_rate": 0.01, "tau": 20.0}},
        "pretrain": {"steps": 3, "batch_size": 4},
        "udalm": {"steps": 5, "batch_size": 4},
        "evaluate": {"cutoff": 12},
    }
    data.update(extra)
    return config_from_dict(data)


class TestStages:
    def test_gpl_sequence_produces_artifacts(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        report = run_pipeline(cfg, "gpl")
        base = tmp_path / "out" / "toy"
        gen = base / "shared" / "generate" / "gen-queries.jsonl"
        assert gen.exists()
        assert len(gen.read_text().splitlines()) == 36
        assert (base / "shared" / "mine" / "hard-negatives.jsonl").exists()
        assert (base / "shared" / "label" / "gpl-training-data.tsv").exists()
        assert (base / "gpl" / "train" / "model-final.json").exists()
        assert (base / "gpl" / "evaluate" / "report.json").exists()
        assert set(report.averages) == {"ndcg@10", "mrr@10"}

    def test_label_stream_has_one_tuple_per_training_example(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        tsv = tmp_path / "out" / "toy" / "shared" / "label" / \
            "gpl-training-data.tsv"
        assert len(tsv.read_text().splitlines()) == 25 * 4

    def test_label_before_mine_errors(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_stage("ingest", cfg)
        run_stage("generate", cfg)
        with pytest.raises(PipelineError, match="run mine first"):
            run_stage("label", cfg)

    def test_generate_counts_follow_budget(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        stage_ingest(cfg)
        outputs = stage_generate(cfg)
        lines = outputs[0].read_text().splitlines()
        assert len(lines) == 36  # qpp 3 x 12 passages

    def test_unknown_method_lists_valid(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        with pytest.raises(PipelineError, match="valid methods"):
            run_pipeline(cfg, "nonsense")

    def test_zero_shot_skips_training(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        report = run_pipeline(cfg, "zero_shot")
        assert not (tmp_path / "out" / "toy" / "zero_shot" / "train").exists()
        assert 0.0 <= report.averages["ndcg@10"] <= 1.0

    def test_pretrain_combo_chains(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "tsdae+gpl")
        base = tmp_path / "out" / "toy"
        assert (base / "shared" / "pretrain-tsdae" / "model-pretrained.json").exists()
        assert (base / "tsdae+gpl" / "train" / "model-final.json").exists()

    def test_pretrain_stage_writes_loss_trace(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out", method="tsdae+gpl")
        run_stage("ingest", cfg)
        run_stage("pretrain", cfg)
        lines = (cfg.stage_dir("pretrain-tsdae") / "loss-trace.csv") \
            .read_text().splitlines()
        assert lines[0] == "step,loss"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]
        assert all(float(line.split(",")[1]) > 0.0 for line in lines[1:])

    def test_rerank_stage(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out",
                           method="zero_shot")
        run_pipeline(cfg, "zero_shot")
        outputs = run_stage("rerank", cfg)
        assert outputs[0].exists()


class TestParseMethod:
    @pytest.mark.parametrize("method,expected", [
        ("gpl", (None, "gpl")),
        ("qgen", (None, "qgen")),
        ("zero_shot", (None, "zero_shot")),
        ("udalm", ("mlm", "udalm")),
        ("tsdae+gpl", ("tsdae", "gpl")),
        ("mlm+qgen", ("mlm", "qgen")),
        ("ict+qgen_hard", ("ict", "qgen_hard")),
    ])
    def test_valid(self, method, expected):
        assert parse_method(method) == expected

    @pytest.mark.parametrize("method", ["", "gpl+tsdae", "foo", "tsdae+foo"])
    def test_invalid(self, method):
        with pytest.raises(PipelineError):
            parse_method(method)


class TestCache:
    def mtimes(self, base):
        return {str(p): p.stat().st_mtime_ns
                for p in sorted(base.rglob("*")) if p.is_file()}

    def inodes(self, base):
        return {str(p): (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in sorted(base.rglob("*")) if p.is_file()}

    def test_rerun_hits_cache(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        base = tmp_path / "out" / "toy" / "shared"
        before = self.mtimes(base)
        run_pipeline(cfg, "gpl")
        assert self.mtimes(base) == before

    def test_qgen_reuses_gpl_generated_queries(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        gen = tmp_path / "out" / "toy" / "shared" / "generate" / "gen-queries.jsonl"
        before = gen.stat().st_mtime_ns
        run_pipeline(cfg, "qgen")
        assert gen.stat().st_mtime_ns == before

    def test_changed_temperature_busts_generate_and_downstream(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        base = tmp_path / "out" / "toy"
        before = self.mtimes(base)
        cfg2 = small_config(tmp_path, tmp_path / "out",
                            generate={"total_budget": 36, "max_query_len": 4,
                                      "temperature": 3.0})
        run_pipeline(cfg2, "gpl")
        after = self.mtimes(base)
        gen = str(base / "shared" / "generate" / "gen-queries.jsonl")
        label = str(base / "shared" / "label" / "gpl-training-data.tsv")
        ingest = str(base / "shared" / "ingest" / "corpus.jsonl")
        assert after[gen] != before[gen]
        assert after[label] != before[label]
        assert after[ingest] == before[ingest]

    def test_changed_eval_metric_only_busts_evaluate(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        base = tmp_path / "out" / "toy"
        before = self.mtimes(base)
        cfg2 = small_config(tmp_path, tmp_path / "out",
                            evaluate={"cutoff": 12, "metrics": ["ndcg@10"]})
        run_pipeline(cfg2, "gpl")
        after = self.mtimes(base)
        report = str(base / "gpl" / "evaluate" / "report.json")
        train = str(base / "gpl" / "train" / "model-final.json")
        gen = str(base / "shared" / "generate" / "gen-queries.jsonl")
        assert after[report] != before[report]
        assert after[train] == before[train]
        assert after[gen] == before[gen]

    def test_gpl_schedule_busts_label_but_learning_rate_does_not(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        base = tmp_path / "out" / "toy"
        label = str(base / "shared" / "label" / "gpl-training-data.tsv")
        train = str(base / "gpl" / "train" / "model-final.json")
        mine = str(base / "shared" / "mine" / "hard-negatives.jsonl")
        before = self.mtimes(base)
        gpl = cfg["train"]["gpl"]
        run_pipeline(small_config(tmp_path, tmp_path / "out", train={
            "gpl": dict(gpl, learning_rate=0.005)}), "gpl")
        after_lr = self.mtimes(base)
        assert after_lr[label] == before[label]
        assert after_lr[train] != before[train]
        run_pipeline(small_config(tmp_path, tmp_path / "out", train={
            "gpl": dict(gpl, steps=30)}), "gpl")
        after_steps = self.mtimes(base)
        assert after_steps[label] != after_lr[label]
        assert after_steps[mine] == before[mine]
        assert len(Path(label).read_text().splitlines()) == 30 * 4

    def test_train_stage_hashes_only_its_own_section(self, tmp_path):
        """A train stage hashes the config section its method reads, so
        editing another method's section keeps it a hit."""
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        run_pipeline(cfg, "qgen")
        base = tmp_path / "out" / "toy"
        gpl_model = str(base / "gpl" / "train" / "model-final.json")
        qgen_model = str(base / "qgen" / "train" / "model-final.json")
        before = self.mtimes(base)
        gpl, qgen = cfg["train"]["gpl"], cfg["train"]["qgen"]

        def train(method, **edit):
            run_stage("train", small_config(tmp_path, tmp_path / "out",
                                            method=method, **edit))
            return self.mtimes(base)

        for edit in ({"train": {"gpl": gpl, "qgen": dict(qgen, tau=10.0)}},
                     {"train": {"gpl": gpl,
                                "qgen": dict(qgen, learning_rate=0.02)}},
                     {"udalm": dict(cfg["udalm"], mix_weight=0.3)}):
            assert train("gpl", **edit)[gpl_model] == before[gpl_model], edit
        assert train("gpl", train={"gpl": dict(gpl, learning_rate=0.005),
                                   "qgen": qgen})[gpl_model] != \
            before[gpl_model]
        assert train("qgen", train={"gpl": dict(gpl, steps=30),
                                    "qgen": qgen})[qgen_model] == \
            before[qgen_model]

    def test_deleted_output_is_a_miss(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        gen = tmp_path / "out" / "toy" / "shared" / "generate" / "gen-queries.jsonl"
        gen.unlink()
        run_pipeline(cfg, "gpl")
        assert gen.exists()

    def test_deleted_checkpoint_recomputes_train(self, tmp_path):
        """A train stage lists each ckpt-<step>.json it writes."""
        cfg = small_config(tmp_path, tmp_path / "out", method="gpl", train={
            "gpl": {"steps": 25, "batch_size": 4, "learning_rate": 0.01,
                    "log_every": 5, "checkpoint_every": 10}})
        run_pipeline(cfg, "gpl")
        train = cfg.stage_dir("train", scope="gpl")
        assert json.loads((train / MANIFEST).read_text())["outputs"] == \
            ["ckpt-10.json", "ckpt-20.json", "loss-trace.csv",
             "model-final.json"]
        (train / "ckpt-10.json").unlink()
        outputs = run_stage("train", cfg)
        assert train / "ckpt-10.json" in outputs
        assert (train / "ckpt-10.json").exists()

    def test_checkpoints_need_a_fixed_step_count(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out", train={
            "qgen": {"steps": None, "batch_size": 4, "learning_rate": 0.01,
                     "tau": 20.0, "checkpoint_every": 5}})
        with pytest.raises(PipelineError, match="checkpoint_every needs"):
            run_pipeline(cfg, "qgen")

    def test_entry_with_fewer_outputs_is_a_miss(self, tmp_path):
        """A record an older version of a stage wrote, listing fewer files
        than the stage now writes, is recomputed, not returned."""
        cfg = small_config(tmp_path, tmp_path / "out", method="tsdae+gpl")
        run_stage("ingest", cfg)
        run_stage("pretrain", cfg)
        stage = cfg.stage_dir("pretrain-tsdae")
        record_path, trace = stage / MANIFEST, stage / "loss-trace.csv"
        record = json.loads(record_path.read_text())
        record["outputs"].remove("loss-trace.csv")
        record_path.write_text(json.dumps(record))
        trace.unlink()
        outputs = run_stage("pretrain", cfg)
        assert trace in outputs and trace.exists()

        record = json.loads(record_path.read_text())
        assert record["outputs"] == ["loss-trace.csv", "model-pretrained.json"]
        hashes = record["input_hash"], record["config_hash"]
        assert CacheManifest(*hashes, record["outputs"]).resolve(stage)
        assert not CacheManifest(*hashes, record["outputs"][1:]).resolve(stage)

    def test_moved_cache_keeps_its_hits(self, tmp_path):
        """Input hashes and recorded outputs do not depend on where the
        cache lives: after a move every stage is a hit."""
        cfg = small_config(tmp_path, tmp_path / "out")
        stages = ("ingest", "generate", "mine", "label")
        for name in stages:
            run_stage(name, cfg)
        moved = tmp_path / "elsewhere" / "cache"
        shutil.move(tmp_path / "out", moved)
        files = self.inodes(moved)
        assert sorted(Path(f).relative_to(moved).as_posix() for f in files
                      if f.endswith(MANIFEST)) == \
            [f"toy/shared/{name}/{MANIFEST}" for name in sorted(stages)]
        cfg.data["paths"]["output"] = str(moved)
        for name in stages:
            run_stage(name, cfg)
        assert self.inodes(moved) == files

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda record: b"{not json", id="not-json"),
        pytest.param(lambda record: b"\xff\xfe", id="not-utf8"),
        pytest.param(lambda record: b"[]", id="list"),
        pytest.param(lambda record: b"null", id="null"),
        pytest.param(lambda record: b"5", id="entry-not-object"),
        pytest.param(lambda record: json.dumps(
            {k: v for k, v in record.items() if k != "outputs"}).encode(),
            id="entry-without-outputs"),
    ])
    def test_corrupt_manifest_rebuilt(self, tmp_path, damage):
        """A stage record that cannot be read, is not a JSON object or
        lacks a field is a miss: the stage is recomputed, and as its
        outputs come back byte-identical, every later stage is a hit."""
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        ingest = cfg.stage_dir("ingest")
        record = ingest / MANIFEST
        record.write_bytes(damage(json.loads(record.read_text())))
        before = self.inodes(cfg.dataset_dir)
        contents = {p: Path(p).read_bytes() for p in before}
        run_pipeline(cfg, "gpl")  # runs through cleanly
        after = self.inodes(cfg.dataset_dir)
        assert sorted(after) == sorted(before)
        changed = {p for p in after if after[p] != before[p]}
        assert changed == {p for p in after if Path(p).parent == ingest}
        assert all(Path(p).read_bytes() == contents[p]
                   for p in after if Path(p) != record)
        assert json.loads(record.read_text())["outputs"] == [
            "corpus.jsonl", "model-initial.json", "qrels.tsv", "queries.jsonl"]

    def test_lock_file_blocks_concurrent_runs(self, tmp_path):
        """Two runs that take the lock together: each holds what it got
        until both have tried, and exactly one is refused."""
        cfg = small_config(tmp_path, tmp_path / "out")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.data))
        children = [subprocess.Popen(
            [sys.executable, "-c", RACE, str(config_path)], env=CHILD_ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(2)]
        try:
            said = sorted(child.stdout.readline().strip() for child in children)
        finally:
            for child in children:
                child.communicate(timeout=60)  # closes stdin: the holder ends
        assert said == [f"output directory {cfg.dataset_dir} is locked by "
                        "another run", "took the lock"]
        assert [child.returncode for child in children] == [0, 0]

    def test_dead_runs_lock_is_reclaimed(self, tmp_path, lock_holder):
        """The kernel drops a SIGKILLed run's lock: the next run goes
        ahead, and the lock file stays in place, empty."""
        cfg = small_config(tmp_path, tmp_path / "out")
        holder = lock_holder(cfg.dataset_dir)
        holder.kill()
        holder.wait(timeout=60)
        run_pipeline(cfg, "zero_shot")
        lock = cfg.dataset_dir / ".lock"
        assert lock.read_bytes() == b""
        with open(lock, "rb") as f:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)  # free again

    @pytest.mark.parametrize("holder", ["live pid", "empty", "not a pid"])
    def test_run_stage_refuses_held_lock(self, tmp_path, lock_holder, holder):
        """Only the kernel lock counts, not what the file holds (such as a
        pid an older run wrote): held, every run is refused and creates no
        stage directory; once its holder is SIGKILLed, the run proceeds."""
        cfg = small_config(tmp_path, tmp_path / "out")
        cfg.dataset_dir.mkdir(parents=True)
        content = {"live pid": str(os.getppid()), "empty": "",
                   "not a pid": "x"}[holder]
        (cfg.dataset_dir / ".lock").write_text(content)
        child = lock_holder(cfg.dataset_dir)
        with pytest.raises(PipelineError, match="locked"):
            run_stage("ingest", cfg)
        with pytest.raises(PipelineError, match="locked"):
            run_pipeline(cfg, "zero_shot")
        assert os.listdir(cfg.dataset_dir) == [".lock"]
        child.kill()
        child.wait(timeout=60)
        run_stage("ingest", cfg)
        assert cfg.stage_dir("ingest").is_dir()
        assert (cfg.dataset_dir / ".lock").read_text() == content

    def test_crashed_stage_is_recomputed(self, tmp_path, monkeypatch):
        """A stage that crashes mid-write under one config leaves the
        directory and record of an earlier config untouched: a rerun under
        that config is a hit, and one under the crashed config recomputes."""
        cfg_x = small_config(tmp_path, tmp_path / "out")
        cfg_y = small_config(tmp_path, tmp_path / "out",
                             mine={"n_per_retriever": 3})
        for name in ("ingest", "generate", "mine"):
            run_stage(name, cfg_x)
        stage = cfg_x.stage_dir("mine")
        negatives = stage / "hard-negatives.jsonl"

        def files():
            return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns,
                             p.read_bytes()) for p in stage.iterdir()}

        before = files()
        assert sorted(before) == [MANIFEST, "hard-negatives.jsonl"]

        def crash(pools, path):
            with open(path, "w") as f:
                f.write('{"qid": "trunc')
            raise RuntimeError("killed mid-write")

        monkeypatch.setattr(pipeline, "write_hard_negatives", crash)
        with pytest.raises(RuntimeError, match="mid-write"):
            run_stage("mine", cfg_y)
        monkeypatch.undo()
        assert files() == before
        assert not list(cfg_x.dataset_dir.rglob("*.tmp"))

        assert run_stage("mine", cfg_x) == [negatives]
        assert files() == before  # a hit: same inodes, same bytes
        assert run_stage("mine", cfg_y) == [negatives]
        assert negatives.stat().st_ino != before["hard-negatives.jsonl"][0]
        assert negatives.read_bytes() != before["hard-negatives.jsonl"][2]
        run_stage("label", cfg_y)

    def test_hit_removes_a_killed_runs_leftovers(self, tmp_path):
        """A `<stage>.tmp` or `<stage>.old` that a killed run left beside
        a stage is removed by the next lookup, a cache hit included."""
        cfg = small_config(tmp_path, tmp_path / "out")
        run_stage("ingest", cfg)
        ingest = cfg.stage_dir("ingest")
        before = self.inodes(ingest)
        for suffix in (".tmp", ".old"):
            leftover = ingest.with_name("ingest" + suffix)
            leftover.mkdir()
            (leftover / "corpus.jsonl").write_text("partial")
        run_stage("ingest", cfg)
        assert os.listdir(ingest.parent) == ["ingest"]
        assert self.inodes(ingest) == before

    def test_changed_init_model_busts_ingest_and_pretrain(self, tmp_path):
        """paths.init_model is an input of the stages that load it: new
        weights at the same path recompute ingest and pretrain."""
        init = tmp_path / "init-model.json"
        words = [f"t{i:02d}" for i in range(24)]
        save_model(init_encoder(words, dim=8, seed=1), init)
        cfg = small_config(tmp_path, tmp_path / "out", method="tsdae+gpl")
        cfg.data["paths"]["init_model"] = str(init)
        run_stage("ingest", cfg)
        run_stage("pretrain", cfg)
        pretrained = cfg.stage_dir("pretrain-tsdae") / "model-pretrained.json"
        first = pretrained.read_bytes()

        seed_2 = init_encoder(words, dim=8, seed=2)
        save_model(seed_2, init)
        run_stage("ingest", cfg)
        copied = load_model(cfg.stage_dir("ingest") / "model-initial.json")
        assert (copied.embedding == seed_2.embedding).all()
        run_stage("pretrain", cfg)
        assert pretrained.read_bytes() != first

    def test_miss_leaves_only_the_new_files(self, tmp_path):
        """A recomputed stage keeps no file of the run it replaces."""
        train = tmp_path / "out" / "toy" / "gpl" / "train"
        checkpoints = {"gpl": {"steps": 25, "batch_size": 4,
                               "learning_rate": 0.01, "log_every": 5}}
        run_pipeline(small_config(tmp_path, tmp_path / "out", train={
            "gpl": {**checkpoints["gpl"], "checkpoint_every": 10}}), "gpl")
        assert sorted(p.name for p in train.glob("ckpt-*.json")) == \
            ["ckpt-10.json", "ckpt-20.json"]
        run_pipeline(small_config(tmp_path, tmp_path / "out", train={
            "gpl": {**checkpoints["gpl"], "checkpoint_every": 0}}), "gpl")
        assert sorted(p.name for p in train.iterdir()) == \
            [MANIFEST, "loss-trace.csv", "model-final.json"]
        assert not list(train.parent.glob("train.*"))

    def test_qgen_checkpoints_written(self, tmp_path):
        run_pipeline(small_config(tmp_path, tmp_path / "out", train={
            "qgen": {"steps": 10, "batch_size": 4, "learning_rate": 0.01,
                     "tau": 20.0, "checkpoint_every": 5}}), "qgen")
        train = tmp_path / "out" / "toy" / "qgen" / "train"
        assert sorted(p.name for p in train.glob("ckpt-*.json")) == \
            ["ckpt-10.json", "ckpt-5.json"]

    def test_provenance_sidecars_written(self, tmp_path):
        """Each stage directory holds its outputs and one record naming
        them; nothing else records a stage."""
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        stages = {"shared/ingest": ["corpus.jsonl", "model-initial.json",
                                    "qrels.tsv", "queries.jsonl"],
                  "shared/generate": ["gen-qrels.tsv", "gen-queries.jsonl"],
                  "shared/mine": ["hard-negatives.jsonl"],
                  "shared/label": ["gpl-training-data.tsv"],
                  "gpl/train": ["loss-trace.csv", "model-final.json"],
                  "gpl/evaluate": ["report.json", "run.trec"]}
        assert sorted(p.relative_to(cfg.dataset_dir).as_posix()
                      for p in cfg.dataset_dir.rglob("*") if p.is_file()) == \
            sorted([".lock"] + [f"{stage}/{name}" for stage, names in
                                stages.items() for name in [*names, MANIFEST]])
        for stage, names in stages.items():
            record = json.loads((cfg.dataset_dir / stage / MANIFEST).read_text())
            assert sorted(record) == ["config_hash", "input_hash", "outputs",
                                      "summary", "timestamp"]
            assert record["outputs"] == names
            if stage != "shared/label":
                assert record["summary"] is None
        tsv = cfg.stage_dir("label") / "gpl-training-data.tsv"
        summary = json.loads((tsv.parent / MANIFEST).read_text())["summary"]
        assert sorted(summary) == ["cross_encoder", "n_queries", "n_skipped",
                                   "n_tuples", "retrievers", "seed"]
        assert summary["n_tuples"] == len(tsv.read_text().splitlines()) == 100
        assert summary["retrievers"] == ["bm25", "dense"]


def test_input_hash_names_files_by_role(tmp_path):
    here, there = tmp_path / "a.txt", tmp_path / "sub" / "b.txt"
    there.parent.mkdir()
    here.write_text("same bytes")
    there.write_text("same bytes")
    assert sha256_files([here], ["corpus"]) == sha256_files([there], ["corpus"])
    assert sha256_files([here], ["corpus"]) != sha256_files([here], ["queries"])
    with pytest.raises(ValueError, match="share a role"):
        sha256_files([here, there], ["corpus", "corpus"])


@pytest.mark.parametrize("order", [["bm25", "dense"], ["dense", "bm25"]])
def test_mine_holds_one_retriever_at_a_time(tmp_path, monkeypatch, order):
    """Stage mine drops each retriever before it builds the next: the BM25
    index is gone before the checkpoint is loaded for the dense retriever,
    and the loaded model is gone before the index is built."""
    cfg = small_config(tmp_path, tmp_path / "out",
                       mine={"retrievers": order, "n_per_retriever": 5})
    run_stage("ingest", cfg)
    run_stage("generate", cfg)
    built = []  # a weak reference to each index or model built
    alive = []  # at each build, whether each earlier one was still alive

    def watched(build):
        def call(*args, **kwargs):
            alive.append([ref() is not None for ref in built])
            made = build(*args, **kwargs)
            built.append(weakref.ref(made))
            return made
        return call

    monkeypatch.setattr(pipeline, "build_bm25_index",
                        watched(pipeline.build_bm25_index))
    monkeypatch.setattr(pipeline, "load_model", watched(pipeline.load_model))
    run_stage("mine", cfg)
    assert alive == [[], [False]]


def test_initial_model_holds_distinct_tokens_only(tmp_path):
    """400,000 occurrences of four words: the fresh encoder's vocabulary is
    collected without a list of every occurrence (3.2 MB of references
    alone)."""
    cfg = small_config(tmp_path, tmp_path / "out")
    passages = [Passage(f"p{i}", "", "alpha beta gamma delta " * 25)
                for i in range(4_000)]
    tracemalloc.start()
    try:
        model = _initial_model(cfg, passages)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(model.vocab) == ["alpha", "beta", "delta", "gamma"]
    assert peak < 2**20


class TestDeterminism:
    def test_two_runs_byte_identical_artifacts(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg_a = small_config(tmp_path / "a", tmp_path / "a" / "out")
        cfg_b = small_config(tmp_path / "b", tmp_path / "b" / "out")
        report_a = run_pipeline(cfg_a, "gpl")
        report_b = run_pipeline(cfg_b, "gpl")
        for rel in ("shared/generate/gen-queries.jsonl",
                    "shared/mine/hard-negatives.jsonl",
                    "shared/label/gpl-training-data.tsv"):
            a = (tmp_path / "a" / "out" / "toy" / rel).read_bytes()
            b = (tmp_path / "b" / "out" / "toy" / rel).read_bytes()
            assert a == b, rel
        assert report_a.averages == report_b.averages
        assert report_a.per_query == report_b.per_query


class TestConfig:
    @pytest.mark.parametrize("data, message", [
        ({"train": {"gpl": {"step": 10}}}, "unknown config key train.gpl.step"),
        ({"sede": 3}, "unknown config key sede"),
        ({"paths": {"corpora": "c.jsonl"}}, "unknown config key paths.corpora"),
        ({"train": 5}, "config key train must be an object; got int"),
        ({"paths": None}, "config key paths must be an object; got NoneType"),
        ({"seed": {"a": 1}}, "config key seed takes a value, not an object"),
        ([{"seed": 1}], "config must be an object; got list"),
        *(({"evaluate": {key: value}}, f"config key evaluate.{key}: {what}")
          for key, value, what in [
              ("metrics", ["ndcg@x"], "unknown metric 'ndcg@x'"),
              ("metrics", ["ndcg@10", "map@10"], "unknown metric 'map@10'"),
              ("metrics", ["mrr@0"], "unknown metric 'mrr@0'"),
              ("metrics", ["ndcg@"], "unknown metric 'ndcg@'"),
              ("metrics", [], "no metrics to evaluate"),
              ("gain", "log", "unknown gain 'log'"),
          ]),
        ({"mine": {"retrievers": []}},
         "config key mine.retrievers: no retriever to mine with"),
        ({"mine": {"retrievers": ["bm25", "splade"]}},
         "config key mine.retrievers: unknown retriever 'splade'"),
        *((data, f"config key {key} must be {what}") for data, key, what in [
            ({"ingest": {"drop_missing_body": "false"}},
             "ingest.drop_missing_body", "a bool; got 'false'"),
            ({"encoder": {"dim": 2.9}}, "encoder.dim", "an int; got 2.9"),
            ({"encoder": {"max_seq_len": "x"}}, "encoder.max_seq_len",
             "an int; got 'x'"),
            ({"rerank": {"top_n": True}}, "rerank.top_n", "an int; got True"),
            ({"udalm": {"steps": None}}, "udalm.steps", "an int; got None"),
            ({"encoder": {"init_scale": "0.1"}}, "encoder.init_scale",
             "a number; got '0.1'"),
            ({"label": {"ce_scale": False}}, "label.ce_scale",
             "a number; got False"),
            ({"dataset": None}, "dataset", "a string; got None"),
            ({"mine": {"retrievers": ["bm25", 1]}}, "mine.retrievers",
             "a list of strings; got ['bm25', 1]"),
            ({"evaluate": {"metrics": "ndcg@10"}}, "evaluate.metrics",
             "a list of strings; got 'ndcg@10'"),
            ({"paths": {"corpus": 5}}, "paths.corpus",
             "a string or null; got 5"),
            ({"paths": {"output": None}}, "paths.output", "a string; got None"),
            ({"train": {"qgen": {"steps": 2.5}}}, "train.qgen.steps",
             "an int or null; got 2.5"),
            ({"train": {"gpl": {"steps": "10"}}}, "train.gpl.steps",
             "an int or null; got '10'"),
            ({"encoder": {"dim": 0}}, "encoder.dim", "in [1, inf); got 0"),
            ({"encoder": {"max_seq_len": -2}}, "encoder.max_seq_len",
             "in [1, inf); got -2"),
            ({"encoder": {"init_scale": -1}}, "encoder.init_scale",
             "in (0, inf); got -1"),
            ({"encoder": {"init_scale": 0}}, "encoder.init_scale",
             "in (0, inf); got 0"),
            ({"rerank": {"top_n": -1}}, "rerank.top_n", "in [1, inf); got -1"),
            ({"label": {"ce_scale": -1}}, "label.ce_scale",
             "in (0, inf); got -1"),
            ({"label": {"ce_scale": 0.0}}, "label.ce_scale",
             "in (0, inf); got 0.0"),
            ({"generate": {"total_budget": 2}}, "generate.total_budget",
             "in [3, inf); got 2"),
            ({"generate": {"temperature": 0}}, "generate.temperature",
             "in (0, inf); got 0"),
            ({"generate": {"top_k": 0}}, "generate.top_k", "in [1, inf); got 0"),
            ({"generate": {"top_p": 2}}, "generate.top_p", "in (0, 1]; got 2"),
            ({"generate": {"top_p": 0.0}}, "generate.top_p",
             "in (0, 1]; got 0.0"),
            ({"generate": {"max_query_len": 0}}, "generate.max_query_len",
             "in [1, inf); got 0"),
            ({"mine": {"n_per_retriever": 0}}, "mine.n_per_retriever",
             "in [1, inf); got 0"),
            ({"evaluate": {"cutoff": 0}}, "evaluate.cutoff",
             "in [1, inf); got 0"),
            ({"train": {"gpl": {"steps": 0}}}, "train.gpl.steps",
             "in [1, inf); got 0"),
            ({"train": {"gpl": {"batch_size": 0}}}, "train.gpl.batch_size",
             "in [1, inf); got 0"),
            ({"train": {"gpl": {"learning_rate": -0.1}}},
             "train.gpl.learning_rate", "in [0, inf); got -0.1"),
            ({"train": {"gpl": {"log_every": 0}}}, "train.gpl.log_every",
             "in [1, inf); got 0"),
            ({"train": {"gpl": {"checkpoint_every": -1}}},
             "train.gpl.checkpoint_every", "in [0, inf); got -1"),
            ({"train": {"qgen": {"batch_size": 1}}}, "train.qgen.batch_size",
             "in [2, inf); got 1"),
            ({"train": {"qgen": {"tau": 0}}}, "train.qgen.tau",
             "in (0, inf); got 0"),
            ({"pretrain": {"steps": 0}}, "pretrain.steps", "in [1, inf); got 0"),
            ({"pretrain": {"mask_ratio": 0}}, "pretrain.mask_ratio",
             "in (0, 1); got 0"),
            ({"pretrain": {"mask_ratio": 1}}, "pretrain.mask_ratio",
             "in (0, 1); got 1"),
            ({"pretrain": {"deletion_ratio": 1.5}}, "pretrain.deletion_ratio",
             "in [0, 1]; got 1.5"),
            ({"pretrain": {"ict_mask_prob": -0.5}}, "pretrain.ict_mask_prob",
             "in [0, 1]; got -0.5"),
            ({"pretrain": {"dropout_rate": 1}}, "pretrain.dropout_rate",
             "in [0, 1); got 1"),
            ({"pretrain": {"tau": -20}}, "pretrain.tau", "in (0, inf); got -20"),
            ({"udalm": {"mix_weight": 1.5}}, "udalm.mix_weight",
             "in [0, 1]; got 1.5"),
            ({"udalm": {"mask_ratio": 1.0}}, "udalm.mask_ratio",
             "in (0, 1); got 1.0"),
            ({"udalm": {"batch_size": 0}}, "udalm.batch_size",
             "in [1, inf); got 0"),
        ]),
    ])
    def test_unknown_key_rejected(self, tmp_path, data, message):
        """An unknown key, an object where a value belongs or the reverse,
        or a value of another type than the key's default or outside its
        range, is an error naming the key's dotted path."""
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_file(config_path)

    @pytest.mark.parametrize("text, message", [
        ('{"train": {"gpl": {"step": 10}}}', "unknown config key train.gpl.step"),
        ('{"train": 5}', "config key train must be an object; got int"),
        ('{"paths": null}', "config key paths must be an object; got NoneType"),
        ('{"seed": {"a": 1}}', "config key seed takes a value, not an object"),
        ("[]", "config must be an object; got list"),
        ("{not json", "is not valid JSON: "),
        ('{"ingest": {"drop_missing_body": "false"}}',
         "config key ingest.drop_missing_body must be a bool; got 'false'"),
        ('{"encoder": {"dim": 2.9}}', "config key encoder.dim must be an int; "
                                      "got 2.9"),
        ('{"encoder": {"dim": "x"}}', "config key encoder.dim must be an int; "
                                      "got 'x'"),
        ('{"udalm": {"steps": null}}', "config key udalm.steps must be an int; "
                                       "got None"),
        ('{"generate": {"top_p": 2}}', "config key generate.top_p must be in "
                                       "(0, 1]; got 2"),
        ('{"evaluate": {"metrics": ["map@10"]}}',
         "config key evaluate.metrics: unknown metric 'map@10'"),
        ('{"evaluate": {"gain": "log"}}',
         "config key evaluate.gain: unknown gain 'log'"),
    ], ids=["unknown-key", "object-is-int", "object-is-null", "value-is-object",
            "top-level-list", "not-json", "bool-is-string", "int-is-float",
            "int-is-string", "int-is-null", "out-of-range", "unknown-metric",
            "unknown-gain"])
    def test_cli_reports_unknown_key_without_traceback(self, tmp_path, text,
                                                       message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        result = CliRunner().invoke(cli_main, ["stage", "ingest", "--config",
                                               str(config_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert message in result.output

    def test_values_of_every_type_load(self):
        """Each type a key takes loads as given, and so does README's
        example config."""
        data = {"ingest": {"drop_missing_body": True},
                "encoder": {"dim": 4, "init_scale": 1},
                "label": {"ce_scale": 2.5},
                "mine": {"retrievers": ["bm25"]},
                "paths": {"corpus": "c.jsonl", "queries": None},
                "train": {"gpl": {"steps": None}, "qgen": {"steps": 3}},
                "evaluate": {"metrics": ["ndcg", "mrr@1", "ndcg@100"],
                             "gain": "exp"}}
        cfg = config_from_dict(data)
        assert (cfg["ingest"]["drop_missing_body"], cfg["encoder"]["init_scale"],
                cfg["label"]["ce_scale"], cfg["mine"]["retrievers"],
                cfg["paths"]["queries"], cfg["train"]["gpl"]["steps"],
                cfg["train"]["qgen"]["steps"], cfg["evaluate"]["metrics"],
                cfg["evaluate"]["gain"]) == \
            (True, 1, 2.5, ["bm25"], None, None, 3,
             ["ndcg", "mrr@1", "ndcg@100"], "exp")
        readme = Path(__file__).resolve().parent.parent / "README.md"
        example = re.search(r"```json\n(.*?)```", readme.read_text(), re.S)
        cfg = config_from_dict(json.loads(example.group(1)))
        assert cfg["train"]["gpl"]["steps"] == 2000

    def test_benchmark_configs_load(self, tmp_path):
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = workloads
        try:
            spec.loader.exec_module(workloads)
        finally:
            del sys.modules["workloads"]
        inputs = {key: tmp_path / key for key in ("corpus", "queries", "qrels")}
        for w in workloads.WORKLOADS.values():
            config_path = tmp_path / f"{w.name}.json"
            workloads.write_config(w, inputs, tmp_path / "out", 7, config_path)
            cfg = PipelineConfig.from_file(config_path)
            assert cfg["train"]["gpl"] == dict(DEFAULTS["train"]["gpl"],
                                               **w.config["train"]["gpl"])


class TestCli:
    def test_run_and_report(self, tmp_path):
        corpus, queries, qrels = write_world(tmp_path)
        config = {
            "dataset": "toy",
            "paths": {"corpus": str(corpus), "queries": str(queries),
                      "qrels": str(qrels), "output": str(tmp_path / "out")},
            "encoder": {"dim": 8},
            "generate": {"total_budget": 36, "max_query_len": 4},
            "mine": {"n_per_retriever": 5},
            "train": {"gpl": {"steps": 10, "batch_size": 4,
                              "learning_rate": 0.05}},
            "evaluate": {"cutoff": 12},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", str(config_path),
                                          "--method", "gpl", "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert "averages" in result.output

        result = runner.invoke(cli_main, ["report", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "gpl" in result.output

    def test_stage_command(self, tmp_path):
        corpus, queries, qrels = write_world(tmp_path)
        config = {
            "dataset": "toy",
            "paths": {"corpus": str(corpus), "queries": str(queries),
                      "qrels": str(qrels), "output": str(tmp_path / "out")},
            "encoder": {"dim": 8},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["stage", "ingest",
                                          "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        assert "corpus.jsonl" in result.output

    def test_held_lock_reported_without_traceback(self, tmp_path,
                                                  lock_holder):
        cfg = small_config(tmp_path, tmp_path / "out")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.data))
        lock_holder(cfg.dataset_dir)
        result = CliRunner().invoke(cli_main, ["stage", "ingest", "--config",
                                               str(config_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: output directory {cfg.dataset_dir} "
                                 "is locked by another run\n")

    @pytest.mark.parametrize("case", ["bad-json-line", "duplicate-id",
                                      "whitespace-id",
                                      "init-model-not-json",
                                      "init-model-empty-object",
                                      "init-model-list",
                                      "init-model-no-fields",
                                      "init-model-vocab-list",
                                      "init-model-shape-mismatch",
                                      "init-model-not-base64"])
    def test_malformed_input_reported_without_traceback(self, tmp_path, case):
        cfg = small_config(tmp_path, tmp_path / "out")
        corpus = Path(cfg["paths"]["corpus"])
        if case.startswith("init-model-"):
            bad = tmp_path / "init-model.json"
            save_model(init_encoder(["alpha", "beta"], dim=8, seed=1), bad)
            doc = json.loads(bad.read_text())
            embedding = doc["embedding"]
            text, reason = {
                "init-model-not-json": ("{not json", "not a JSON checkpoint ("),
                "init-model-empty-object": (
                    "{}", "unsupported checkpoint format version None\n"),
                "init-model-list": ("[]", "not a checkpoint (a JSON list)\n"),
                "init-model-no-fields": ('{"format_version": 1}',
                                         "max_seq_len must be an int\n"),
                "init-model-vocab-list": (
                    json.dumps({**doc, "vocab": []}),
                    "vocab must map tokens to int row ids in [3, 5)\n"),
                "init-model-shape-mismatch": (
                    json.dumps({**doc, "embedding": {**embedding,
                                                     "shape": [4, 8]}}),
                    "embedding.shape [4, 8] does not match its data "
                    "(320 bytes)\n"),
                "init-model-not-base64": (
                    json.dumps({**doc, "embedding": {
                        **embedding, "data": embedding["data"][:-4] + "AB*="}}),
                    "embedding.data is not a canonical base64 string\n"),
            }[case]
            bad.write_text(text)
            cfg.data["paths"]["init_model"] = str(bad)
            message = f"Error: {bad}: {reason}"
        else:
            line, reason = {
                "bad-json-line": ("{not json", "invalid JSON ("),
                "duplicate-id": (corpus.read_text().splitlines()[0],
                                 "duplicate passage id 'p00'"),
                "whitespace-id": (json.dumps({"_id": "p 1", "text": "t00"}),
                                  "'_id' must be non-empty and hold no "
                                  "whitespace; got 'p 1'"),
            }[case]
            with open(corpus, "a") as f:
                f.write(line + "\n")
            message = f"Error: {corpus}:13: {reason}"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.data))
        for command in (["stage", "ingest"], ["run", "--method", "gpl"]):
            result = CliRunner().invoke(cli_main, [*command, "--config",
                                                   str(config_path)])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert result.output.startswith(message), result.output

    def test_stray_label_sidecar_is_not_read(self, tmp_path):
        """The label stage's summary lives in its cache record; a file
        beside the labels that an older version wrote is not read."""
        cfg = small_config(tmp_path, tmp_path / "out")
        for name in ("ingest", "generate", "mine", "label"):
            run_stage(name, cfg)
        sidecar = cfg.stage_dir("label") / "gpl-training-data.tsv.manifest.json"
        sidecar.write_text("{broken")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.data))
        result = CliRunner().invoke(cli_main, ["stage", "train", "--method",
                                               "gpl", "--config",
                                               str(config_path)])
        assert result.exit_code == 0, result.output
        assert (cfg.stage_dir("train", scope="gpl") / "model-final.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("label", "cross_encoder", "monot5"), ("generate", "generator", "t5")])
    def test_unknown_backend_rejected_before_any_stage(self, tmp_path, section,
                                                       key, value):
        cfg = small_config(tmp_path, tmp_path / "out")
        cfg.data[section][key] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.data))
        result = CliRunner().invoke(cli_main, ["run", "--method", "gpl",
                                               "--config", str(config_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == \
            f"Error: config key {section}.{key}: unknown backend {value!r}\n"
        assert not (cfg.dataset_dir / "shared").exists()

    @pytest.mark.parametrize("text, reason", [
        *((text, "a report needs 'per_query', 'averages' and 'config' "
                 "objects, with numbers as averages") for text in [
            "{}", "[]",
            '{"per_query": {}, "averages": {"mrr@10": "high"}, "config": {}}',
            '{"per_query": {}, "averages": {}, "config": 5}']),
        ("not json", "not valid JSON: "),
    ], ids=["empty-object", "list", "averages-not-numbers", "config-not-object",
            "not-json"])
    def test_edited_report_reported_without_traceback(self, tmp_path, text,
                                                      reason):
        cfg = small_config(tmp_path, tmp_path / "out")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.data))
        run = ["run", "--method", "zero_shot", "--config", str(config_path)]
        assert CliRunner().invoke(cli_main, run).exit_code == 0
        report = cfg.stage_dir("evaluate", scope="zero_shot") / "report.json"
        report.write_text(text)
        for command in (run, ["report", str(tmp_path / "out")]):
            result = CliRunner().invoke(cli_main, command)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert result.output.startswith(f"Error: {report}: {reason}"), \
                result.output

    def test_missing_upstream_is_actionable(self, tmp_path):
        corpus, queries, qrels = write_world(tmp_path)
        config = {"dataset": "toy",
                  "paths": {"corpus": str(corpus), "output": str(tmp_path / "o")}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["stage", "label",
                                          "--config", str(config_path)])
        assert result.exit_code != 0
        assert "run ingest first" in result.output


class TestUdalmMethod:
    def test_udalm_requires_source_paths(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        with pytest.raises(PipelineError, match="source"):
            run_pipeline(cfg, "udalm")

    def udalm_config(self, tmp_path):
        # source world: reuse the toy world generator plus labeled tuples
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        corpus_path, queries_path, _ = write_world(src_dir)
        from denseadapt.corpus import Query
        from denseadapt.labeling import build_dataset, write_dataset
        from denseadapt.models import lexical_overlap_ce
        passages = load_corpus(corpus_path)
        queries = []
        pools = {}
        for i, p in enumerate(passages[:6]):
            q = Query(f"sq{i}", p.body.split()[0], p.id)
            queries.append(q)
            negs = [passages[(i + 3) % len(passages)].id]
            pools[q.id] = (p.id, {"bm25": negs})
        dataset = build_dataset(queries, pack_pools(pools), passages,
                                lexical_overlap_ce(), seed=0)
        tuples_path = src_dir / "source-tuples.tsv"
        write_dataset(dataset, tuples_path)
        src_queries_path = src_dir / "source-queries.jsonl"
        from denseadapt.corpus import save_queries
        save_queries(queries, src_queries_path)

        return small_config(tmp_path, tmp_path / "out", paths={
            "corpus": str(tmp_path / "corpus.jsonl"),
            "queries": str(tmp_path / "queries.jsonl"),
            "qrels": str(tmp_path / "qrels.tsv"),
            "output": str(tmp_path / "out"),
            "source_corpus": str(corpus_path),
            "source_queries": str(src_queries_path),
            "source_tuples": str(tuples_path),
        })

    def test_udalm_runs_with_source(self, tmp_path):
        cfg = self.udalm_config(tmp_path)
        report = run_pipeline(cfg, "udalm")
        assert 0.0 <= report.averages["ndcg@10"] <= 1.0

    def run_cli(self, tmp_path, cfg):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.data))
        return CliRunner().invoke(cli_main, ["run", "--method", "udalm",
                                             "--config", str(config_path)])

    def test_empty_source_tuples_reported_before_training(self, tmp_path):
        cfg = self.udalm_config(tmp_path)
        tuples = Path(cfg["paths"]["source_tuples"])
        tuples.write_text("")
        result = self.run_cli(tmp_path, cfg)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: paths.source_tuples {tuples} "
                                 "holds no tuples\n")
        assert not (cfg.dataset_dir / "udalm" / "train").exists()

    def test_source_corpus_may_be_the_ingested_corpus(self, tmp_path):
        """The source world is the target world: the ingested corpus is
        both an artifact input and paths.source_corpus, hashed once."""
        cfg = self.udalm_config(tmp_path)
        ingested = cfg.stage_dir("ingest") / "corpus.jsonl"
        cfg.data["paths"]["source_corpus"] = str(ingested)
        result = self.run_cli(tmp_path, cfg)
        assert result.exit_code == 0, result.output
        assert (cfg.dataset_dir / "udalm" / "train" / "model-final.json").exists()

    def test_udalm_tokenizes_each_distinct_text_once(self, tmp_path,
                                                     monkeypatch):
        """Training tokenizes every target passage its schedule draws (at
        40 steps, all of them) and every source query and passage its
        tuples name once, however many steps run."""
        from denseadapt.corpus import load_queries
        from denseadapt.labeling import read_dataset
        from denseadapt.models import EncoderModel
        cfg = self.udalm_config(tmp_path)
        cfg.data["udalm"]["steps"] = 40
        calls = []
        token_ids, udalm_train = EncoderModel.token_ids, pipeline.udalm_train

        def counted(self, text):
            calls.append(text)
            return token_ids(self, text)

        def train(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(EncoderModel, "token_ids", counted)
                return udalm_train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "udalm_train", train)
        run_pipeline(cfg, "udalm")

        paths = cfg["paths"]
        tuples = stream_rows(read_dataset(paths["source_tuples"]))
        sources = {p.id: p.body for p in load_corpus(paths["source_corpus"])}
        queries = {q.id: q.text for q in load_queries(paths["source_queries"])}
        want = [p.body for p in load_corpus(paths["corpus"])]
        want += [queries[qid] for qid in {t.query_id for t in tuples}]
        want += [sources[pid] for pid in
                 {pid for t in tuples for pid in (t.pos_id, t.neg_id)}]
        assert sorted(calls) == sorted(want)
