"""Stage orchestration: artifact production, cache hits and busts, stage
ordering errors, method registry, and the CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from denseadapt import (PipelineConfig, PipelineError, init_encoder,
                        load_corpus, load_model, parse_method, pipeline,
                        run_pipeline, run_stage, save_model)
from denseadapt.cli import main as cli_main
from denseadapt.pipeline import CacheManifest, stage_generate, stage_ingest


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

    def test_deleted_output_is_a_miss(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        gen = tmp_path / "out" / "toy" / "shared" / "generate" / "gen-queries.jsonl"
        gen.unlink()
        run_pipeline(cfg, "gpl")
        assert gen.exists()

    def test_corrupt_manifest_rebuilt(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        manifest_path = tmp_path / "out" / "toy" / "cache-manifest.json"
        manifest_path.write_text("{not json")
        manifest = CacheManifest(manifest_path)
        assert manifest.entries == {}
        run_pipeline(cfg, "gpl")  # runs through cleanly

    def test_lock_file_blocks_concurrent_runs(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        lock_dir = cfg.dataset_dir
        lock_dir.mkdir(parents=True)
        (lock_dir / ".lock").write_text(str(os.getppid()))
        with pytest.raises(PipelineError, match="locked"):
            run_pipeline(cfg, "gpl")

    def test_dead_runs_lock_is_reclaimed(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        cfg.dataset_dir.mkdir(parents=True)
        (cfg.dataset_dir / ".lock").write_text(str(child.pid))
        run_pipeline(cfg, "zero_shot")
        assert not (cfg.dataset_dir / ".lock").exists()

    @pytest.mark.parametrize("holder", ["live pid", "empty", "not a pid"])
    def test_run_stage_refuses_held_lock(self, tmp_path, holder):
        cfg = small_config(tmp_path, tmp_path / "out")
        cfg.dataset_dir.mkdir(parents=True)
        content = {"live pid": str(os.getppid()), "empty": "",
                   "not a pid": "x"}[holder]
        (cfg.dataset_dir / ".lock").write_text(content)
        with pytest.raises(PipelineError, match="locked"):
            run_stage("ingest", cfg)
        assert not cfg.stage_dir("ingest").exists()

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

    def test_provenance_sidecars_written(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "out")
        run_pipeline(cfg, "gpl")
        prov = tmp_path / "out" / "toy" / "shared" / "generate" / "provenance.json"
        doc = json.loads(prov.read_text())
        assert "config_hash" in doc and "gen-queries.jsonl" in doc["files"]


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

    def test_udalm_runs_with_source(self, tmp_path):
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

        cfg = small_config(tmp_path, tmp_path / "out", paths={
            "corpus": str(tmp_path / "corpus.jsonl"),
            "queries": str(tmp_path / "queries.jsonl"),
            "qrels": str(tmp_path / "qrels.tsv"),
            "output": str(tmp_path / "out"),
            "source_corpus": str(corpus_path),
            "source_queries": str(src_queries_path),
            "source_tuples": str(tuples_path),
        })
        report = run_pipeline(cfg, "udalm")
        assert 0.0 <= report.averages["ndcg@10"] <= 1.0
