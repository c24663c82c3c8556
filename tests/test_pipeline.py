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
from pathlib import Path

import pytest
from click.testing import CliRunner

from denseadapt import (Passage, PipelineConfig, PipelineError, init_encoder,
                        load_corpus, load_model, parse_method, pipeline,
                        run_pipeline, run_stage, save_model)
from denseadapt.cli import main as cli_main
from denseadapt.pipeline import (DEFAULTS, CacheManifest, _initial_model,
                                 stage_generate, stage_ingest)
from denseadapt.util import sha256_files


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
    return PipelineConfig.from_dict(data)


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

    def test_entry_with_fewer_outputs_is_a_miss(self, tmp_path):
        """An entry an older version of a stage recorded, listing fewer
        files than the stage now writes, is recomputed, not returned."""
        cfg = small_config(tmp_path, tmp_path / "out", method="tsdae+gpl")
        run_stage("ingest", cfg)
        run_stage("pretrain", cfg)
        manifest_path = cfg.dataset_dir / "cache-manifest.json"
        entries = json.loads(manifest_path.read_text())
        trace = cfg.stage_dir("pretrain-tsdae") / "loss-trace.csv"
        entries["pretrain-tsdae"]["outputs"].remove(
            "shared/pretrain-tsdae/loss-trace.csv")
        manifest_path.write_text(json.dumps(entries))
        trace.unlink()
        outputs = run_stage("pretrain", cfg)
        assert trace in outputs and trace.exists()

        manifest = CacheManifest(manifest_path)
        entry = manifest.entries["pretrain-tsdae"]
        paths = [cfg.dataset_dir / name for name in entry["outputs"]]
        assert manifest.resolve("pretrain-tsdae", entry["input_hash"],
                                entry["config_hash"], paths)
        assert not manifest.resolve("pretrain-tsdae", entry["input_hash"],
                                    entry["config_hash"], paths[:1])

    def test_moved_cache_keeps_its_hits(self, tmp_path):
        """Input hashes and recorded outputs do not depend on where the
        cache lives: after a move every stage is a hit."""
        cfg = small_config(tmp_path, tmp_path / "out")
        stages = ("ingest", "generate", "mine", "label")
        for name in stages:
            run_stage(name, cfg)
        moved = tmp_path / "elsewhere" / "cache"
        shutil.move(tmp_path / "out", moved)
        files = {str(p): (p.stat().st_ino, p.stat().st_mtime_ns)
                 for p in sorted(moved.rglob("*")) if p.is_file()}
        assert len([f for f in files if f.endswith("provenance.json")]) == 4
        cfg.data["paths"]["output"] = str(moved)
        for name in stages:
            run_stage(name, cfg)
        assert {str(p): (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in sorted(moved.rglob("*")) if p.is_file()} == files

    @pytest.mark.parametrize("text, entries", [
        pytest.param(b"{not json", {}, id="not-json"),
        pytest.param(b"\xff\xfe", {}, id="not-utf8"),
        pytest.param(b"[]", {}, id="list"),
        pytest.param(b"null", {}, id="null"),
        pytest.param(b'{"ingest": 5}', {"ingest": 5}, id="entry-not-object"),
        pytest.param(b'{"ingest": {"input_hash": "x", "config_hash": "y"}}',
                     {"ingest": {"input_hash": "x", "config_hash": "y"}},
                     id="entry-without-outputs"),
    ])
    def test_corrupt_manifest_rebuilt(self, tmp_path, text, entries):
        """A manifest that is not a JSON object is rebuilt, and an entry
        of the wrong shape is a miss: the next run recomputes and goes
        through."""
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        manifest_path = tmp_path / "out" / "toy" / "cache-manifest.json"
        manifest_path.write_bytes(text)
        assert CacheManifest(manifest_path).entries == entries
        corpus = cfg.stage_dir("ingest") / "corpus.jsonl"
        inode = corpus.stat().st_ino
        run_pipeline(cfg, "gpl")  # runs through cleanly
        assert corpus.stat().st_ino != inode  # recomputed, not a hit
        assert sorted(CacheManifest(manifest_path).entries) == [
            "evaluate:gpl", "generate", "ingest", "label", "mine", "train:gpl"]

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
        """A stage that crashes mid-write under one config leaves nothing
        that a rerun under an earlier config takes for a cache hit."""
        cfg_x = small_config(tmp_path, tmp_path / "out")
        cfg_y = small_config(tmp_path, tmp_path / "out",
                             mine={"n_per_retriever": 3})
        for name in ("ingest", "generate", "mine"):
            run_stage(name, cfg_x)
        negatives = cfg_x.stage_dir("mine") / "hard-negatives.jsonl"
        original, inode = negatives.read_bytes(), negatives.stat().st_ino

        def crash(pools, path):
            with open(path, "w") as f:
                f.write('{"qid": "trunc')
            raise RuntimeError("killed mid-write")

        monkeypatch.setattr(pipeline, "write_hard_negatives", crash)
        with pytest.raises(RuntimeError, match="mid-write"):
            run_stage("mine", cfg_y)
        monkeypatch.undo()

        assert run_stage("mine", cfg_x) == [negatives]
        assert negatives.stat().st_ino != inode  # recomputed, not a hit
        assert negatives.read_bytes() == original
        assert not list(cfg_x.dataset_dir.rglob("*.tmp"))
        run_stage("label", cfg_x)

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
            ["loss-trace.csv", "model-final.json", "provenance.json"]
        assert not list(train.parent.glob("train.*"))

    def test_qgen_checkpoints_written(self, tmp_path):
        run_pipeline(small_config(tmp_path, tmp_path / "out", train={
            "qgen": {"steps": 10, "batch_size": 4, "learning_rate": 0.01,
                     "tau": 20.0, "checkpoint_every": 5}}), "qgen")
        train = tmp_path / "out" / "toy" / "qgen" / "train"
        assert sorted(p.name for p in train.glob("ckpt-*.json")) == \
            ["ckpt-10.json", "ckpt-5.json"]

    def test_provenance_sidecars_written(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        prov = tmp_path / "out" / "toy" / "shared" / "generate" / "provenance.json"
        doc = json.loads(prov.read_text())
        assert "config_hash" in doc and "gen-queries.jsonl" in doc["files"]


def test_input_hash_names_files_by_role(tmp_path):
    here, there = tmp_path / "a.txt", tmp_path / "sub" / "b.txt"
    there.parent.mkdir()
    here.write_text("same bytes")
    there.write_text("same bytes")
    assert sha256_files([here], ["corpus"]) == sha256_files([there], ["corpus"])
    assert sha256_files([here], ["corpus"]) != sha256_files([here], ["queries"])
    with pytest.raises(ValueError, match="share a role"):
        sha256_files([here, there], ["corpus", "corpus"])


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
    @pytest.mark.parametrize("data, path", [
        ({"train": {"gpl": {"step": 10}}}, "train.gpl.step"),
        ({"sede": 3}, "sede"),
        ({"paths": {"corpora": "c.jsonl"}}, "paths.corpora"),
        ({"train": 5}, "train"),
        ({"paths": None}, "paths"),
        ({"seed": {"a": 1}}, "seed"),
        ([{"seed": 1}], ""),
    ])
    def test_unknown_key_rejected(self, tmp_path, data, path):
        """An unknown key, an object where a value belongs or the reverse
        is an error naming the key's dotted path."""
        message = {"train": "config key train must be an object; got int",
                   "paths": "config key paths must be an object; got NoneType",
                   "seed": "config key seed takes a value, not an object",
                   "": "config must be an object; got list"
                   }.get(path, f"unknown config key {path}")
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_dict(data)
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
    ], ids=["unknown-key", "object-is-int", "object-is-null", "value-is-object",
            "top-level-list", "not-json"])
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
        from denseadapt import (Query, build_dataset, lexical_overlap_ce,
                                write_dataset)
        from denseadapt.mining import PoolEntry
        passages = load_corpus(corpus_path)
        queries = []
        pools = {}
        for i, p in enumerate(passages[:6]):
            q = Query(f"sq{i}", p.body.split()[0], p.id)
            queries.append(q)
            negs = [passages[(i + 3) % len(passages)].id]
            pools[q.id] = PoolEntry(q.id, p.id, {"bm25": negs}, negs,
                                    {negs[0]: ["bm25"]}, usable=True)
        dataset = build_dataset(queries, pools, passages,
                                lexical_overlap_ce(), seed=0)
        tuples_path = src_dir / "source-tuples.tsv"
        write_dataset(dataset, tuples_path)
        src_queries_path = src_dir / "source-queries.jsonl"
        from denseadapt import save_queries
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

    def test_udalm_tokenizes_each_distinct_text_once(self, tmp_path,
                                                     monkeypatch):
        """Training tokenizes every target passage its schedule draws (at
        40 steps, all of them) and every source query and passage its
        tuples name once, however many steps run."""
        from denseadapt import load_queries, read_dataset
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
        tuples = read_dataset(paths["source_tuples"]).tuples
        sources = {p.id: p.body for p in load_corpus(paths["source_corpus"])}
        queries = {q.id: q.text for q in load_queries(paths["source_queries"])}
        want = [p.body for p in load_corpus(paths["corpus"])]
        want += [queries[qid] for qid in {t.query_id for t in tuples}]
        want += [sources[pid] for pid in
                 {pid for t in tuples for pid in (t.pos_id, t.neg_id)}]
        assert sorted(calls) == sorted(want)
