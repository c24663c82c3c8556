"""Memory and speed of a long label stream.

Labels a stream of N tuples (default 1,000,000) over 200 queries whose
pools hold 50 negatives each, so at most 10,200 distinct (query, passage)
pairs are scored. Checks two bounds on `tracemalloc`'s peak growth, each
at most 32 bytes per tuple (the columns themselves take 20):

  - `build_dataset`;
  - `read_dataset` of the written TSV plus `training.tuple_batches`'s
    set-up on it.

It also checks that the stream read back equals the one built, and prints
tuples per second for the build, the write and the read (each timed
without tracing).

It writes the mined pools of 2,000 queries, each with two overlapping
lists of 50 passage ids over a 5,000-passage corpus, and prints the
bytes per mined id that `read_hard_negatives`'s result holds (bound 16:
an int32 row of the retriever's list and at most an int32 row of the
union, plus the id tables) and what that holds at the paper's 250,000
queries x 100 ids.

Last, it writes a TREC run of 100 queries x 1,000 entries over a
2,000-passage id table and prints the bytes per entry that
`read_trec_run`'s result holds (bound 16: an int32 row and a float64
score, plus the id table) and what that holds at 10,000 queries x 1,000.

It also runs one TSDAE `pretrain` step over four 300-token passages at a
20,000-token vocabulary and d = 64, and prints the traced bytes it holds
beyond the model and the 2 MiB logits block in units of V x d x 8 (bound
1.75: the V x d embedding gradient, one block of its rows and the
step's per-position arrays), and what the step holds at BERT's
V = 30,522 and d = 768.

    PYTHONPATH=src python tests/stream_memory.py [N]

Prints one line per measurement and exits 1 if a bound is exceeded. At
1M tuples it takes under a minute on two cores.
"""

from __future__ import annotations

import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from denseadapt.corpus import Passage, Query, passage_text
from denseadapt.evaluation import read_trec_run, write_trec_run
from denseadapt.labeling import build_dataset, read_dataset, write_dataset
from denseadapt.mining import read_hard_negatives, write_hard_negatives
from denseadapt.models import NUM_RESERVED, init_encoder, lexical_overlap_ce
from denseadapt.pretraining import _LOGIT_BLOCK, PretrainConfig, pretrain
from denseadapt.training import tuple_batches
from oracles import pack_pools, pack_run

BOUND = 32  # bytes per tuple
N_QUERIES, POOL, N_PASSAGES = 200, 50, 400
RUN_BOUND = 16  # bytes per run entry
RUN_QUERIES, RUN_CUTOFF, RUN_PASSAGES = 100, 1000, 2000
POOL_BOUND = 16  # bytes per mined id
POOL_QUERIES, POOL_LIST, POOL_PASSAGES = 2000, 50, 5000
TIED_BOUND = 1.75  # units of V x d x 8 bytes beyond the logits block
TIED_VOCAB, TIED_DIM = 20_000, 64


def pool_lists(n_queries: int = POOL_QUERIES, n_list: int = POOL_LIST,
               n_passages: int = POOL_PASSAGES) -> dict:
    """Per-query (source, {"bm25": ids, "dense": ids}) with two lists of
    n_list ids each that share half their ids, as
    `pack_pools` takes them."""
    pids = [f"p{i:05d}" for i in range(n_passages)]
    return {f"genQ-{i:06d}": (pids[i % n_passages], {
        name: [pids[(7 * i + shift + k) % n_passages] for k in range(n_list)]
        for name, shift in (("bm25", 1), ("dense", 1 + n_list // 2))})
        for i in range(n_queries)}


def world():
    words = [f"w{i}" for i in range(100)]
    passages = [Passage(f"p{i:04d}", "", " ".join(
        words[(i * k) % 100] for k in (1, 3, 7, 11))) for i in range(N_PASSAGES)]
    queries = [Query(f"q{i:04d}", f"{words[i % 100]} {words[(i * 3) % 100]}",
                     passages[i].id) for i in range(N_QUERIES)]
    pools = pack_pools({q.id: (q.source_passage_id, {"bm25": sorted(
        passages[N_QUERIES + (i + k) % (N_PASSAGES - N_QUERIES)].id
        for k in range(POOL))}) for i, q in enumerate(queries)})
    return words, passages, queries, pools


def traced_growth(fn):
    """fn()'s result, the peak growth of traced memory while it ran and
    the growth it still holds on return."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - start, held - start
    finally:
        tracemalloc.stop()


def run_entry_bytes(directory: Path) -> float:
    """Bytes per entry held by `read_trec_run`'s result for a written run
    of RUN_QUERIES x RUN_CUTOFF entries."""
    rng = np.random.default_rng(0)
    pids = [f"p{i:05d}" for i in range(RUN_PASSAGES)]
    run = pack_run({f"q{i:05d}": [
        (pids[j], score) for j, score in zip(
            rng.choice(RUN_PASSAGES, RUN_CUTOFF, replace=False).tolist(),
            np.sort(rng.normal(size=RUN_CUTOFF))[::-1].tolist())]
        for i in range(RUN_QUERIES)})
    path = directory / "run.trec"
    write_trec_run(run, path)
    del run
    _, _, held = traced_growth(lambda: read_trec_run(path))
    return held / (RUN_QUERIES * RUN_CUTOFF)


def pool_id_bytes(directory: Path) -> float:
    """Bytes per mined id held by `read_hard_negatives`'s result for the
    written pools of `pool_lists()`."""
    lists = pool_lists()
    path = directory / "hard-negatives.jsonl"
    write_hard_negatives(pack_pools(lists), path)
    n_ids = sum(len(ids) for _, per in lists.values() for ids in per.values())
    del lists
    _, _, held = traced_growth(lambda: read_hard_negatives(path))
    return held / n_ids


def tied_output_units() -> float:
    """Traced bytes one TSDAE step holds beyond the model and the logits
    block, in units of V x d x 8."""
    words = [f"t{i}" for i in range(TIED_VOCAB - NUM_RESERVED)]
    model = init_encoder(words, dim=TIED_DIM, seed=0, max_seq_len=300)
    rng = np.random.default_rng(1)
    passages = [Passage(f"p{i}", "", " ".join(rng.choice(words, size=300)))
                for i in range(4)]
    cfg = PretrainConfig(method="tsdae", steps=1, batch_size=4,
                         learning_rate=0.01, seed=3)
    _, peak, _ = traced_growth(lambda: pretrain(model, passages, cfg))
    return (peak - _LOGIT_BLOCK * 8) / (TIED_VOCAB * TIED_DIM * 8)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 1_000_000
    words, passages, queries, pools = world()
    ce = lexical_overlap_ce()

    def build():
        return build_dataset(queries, pools, passages, ce, seed=3, n_tuples=n)

    _, seconds = timed(build)
    print(f"build_dataset: {n / seconds:,.0f} tuples/s ({n:,} in {seconds:.2f} s)")
    built, build_peak, _ = traced_growth(build)
    failed = []
    print(f"build_dataset: peak growth {build_peak / n:.1f} B/tuple (bound {BOUND})")
    if build_peak > BOUND * n:
        failed.append("build_dataset")

    model = init_encoder(words, dim=8, seed=0)
    query_texts = {q.id: q.text for q in queries}
    passage_texts = {p.id: passage_text(p) for p in passages}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gpl-training-data.tsv"
        _, seconds = timed(lambda: write_dataset(built, path))
        print(f"write_dataset: {n / seconds:,.0f} tuples/s")
        _, seconds = timed(lambda: read_dataset(path))
        print(f"read_dataset: {n / seconds:,.0f} tuples/s")

        def read_and_set_up():
            dataset = read_dataset(path)
            tuple_batches(model, dataset.tuples, query_texts, passage_texts)
            return dataset

        loaded, read_peak, _ = traced_growth(read_and_set_up)
        per_entry = run_entry_bytes(Path(tmp))
        per_id = pool_id_bytes(Path(tmp))
    print(f"read_dataset + tuple_batches set-up: peak growth "
          f"{read_peak / n:.1f} B/tuple (bound {BOUND})")
    if read_peak > BOUND * n:
        failed.append("read_dataset + tuple_batches")
    a, b = built.tuples, loaded.tuples
    if (a.query_ids, a.passage_ids) != (b.query_ids, b.passage_ids) or not all(
            np.array_equal(getattr(a, c), getattr(b, c))
            for c in ("query", "pos", "neg", "margin")):
        failed.append("the stream read back differs from the one built")
    print(f"read_trec_run: holds {per_entry:.1f} B/entry (bound {RUN_BOUND}); "
          f"10,000 queries x {RUN_CUTOFF:,}: "
          f"{per_entry * 10_000 * RUN_CUTOFF / 2 ** 20:,.0f} MiB")
    if per_entry > RUN_BOUND:
        failed.append("read_trec_run")
    print(f"read_hard_negatives: holds {per_id:.1f} B/mined id (bound "
          f"{POOL_BOUND}); 250,000 queries x 100: "
          f"{per_id * 250_000 * 100 / 2 ** 20:,.0f} MiB")
    if per_id > POOL_BOUND:
        failed.append("read_hard_negatives")
    units = tied_output_units()
    paper = (_LOGIT_BLOCK * 8 + units * 30_522 * 768 * 8) / 2 ** 20
    print(f"tsdae step: holds 2 MiB of logits + {units:.2f} x V*d*8 B "
          f"(bound {TIED_BOUND}); V = 30,522, d = 768: {paper:,.0f} MiB")
    if units > TIED_BOUND:
        failed.append("tsdae step")
    print("failed: " + ", ".join(failed) if failed else "all bounds met")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
