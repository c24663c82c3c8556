"""Smoke test of the parity script: one case prints one stable line, and
the digests of the label TSV, a checkpoint file, a reranked run, the
mock generator's queries, a mined pool file, BM25 scores and TSDAE over
a vocabulary of several gradient blocks are pinned."""

import re

import parity


def test_case_prints_name_and_two_stable_digests(capsys):
    parity.main(["tsdae"])
    parity.main(["tsdae"])
    first, second = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"tsdae [0-9a-f]{64} [0-9a-f]{64}", first)
    assert first == second


def test_label_tsv_digest_pinned(capsys):
    """500 drawn tuples, about 20 per query, written exactly as each
    query's one random.Random negative stream and the per-pair scores
    made them."""
    parity.main(["label_tsv"])
    assert capsys.readouterr().out == (
        "label_tsv d572801af915b25569d4d50cfc8a95903ec0285707928ef26cb7a7af0fc187af"
        "\n")


def test_checkpoint_digest_pinned(capsys):
    """The bytes json.dump wrote for the same document."""
    parity.main(["checkpoint"])
    assert capsys.readouterr().out == (
        "checkpoint 72aee5247114c8a6fde5d6b00e3329d38572f403c6c21933feb7152d1fdb4756"
        "\n")


def test_rerank_digest_pinned(capsys):
    """The run the per-pair lexical cross-encoder reranked: each query's
    top 12 of a dense top 20, scores and id tie-breaks included."""
    parity.main(["rerank"])
    assert capsys.readouterr().out == (
        "rerank e26f3ea7d8a8053b0b81aaccf8358289a22c9cb2184ffed81ea3095c7b2d1ba1"
        "\n")


def test_generate_digest_pinned(capsys):
    """The queries the mock generator decoded when it counted its source
    passage's tokens at every decode step."""
    parity.main(["generate"])
    assert capsys.readouterr().out == (
        "generate 4c671f6a42b36c476f9f3d99be8a650b6e642c127bf89c141fcabf2734ee683a"
        "\n")


def test_mine_digest_pinned(capsys):
    """The pools BM25 and a cosine dense retriever mined over the toy
    corpus: each retriever's top 6 per query, ties broken by passage id,
    the source passage removed."""
    parity.main(["mine"])
    assert capsys.readouterr().out == (
        "mine 0c2a7b62081963417848b580f7a42c9cf2c730710f7e872cba2ce207e2ca2259"
        "\n")


def test_bm25_digest_pinned(capsys):
    """The float64 BM25 scores of every toy query over the toy corpus, as
    the retriever summed them when it recomputed idf and the length norm
    for each query token."""
    parity.main(["bm25"])
    assert capsys.readouterr().out == (
        "bm25 3698700f07a498b2e26672c48d4a065ade3efc42ddf24e59da37b4bf4ac87722"
        "\n")


def test_tsdae_wide_digest_pinned(capsys):
    """The weights and loss trace TSDAE trained with the vocabulary
    gradient formed as one V x d product, at V = 3 x 4,096 + 1 and d = 8;
    a last block of one row changes the weights."""
    parity.main(["tsdae_wide"])
    assert capsys.readouterr().out == (
        "tsdae_wide "
        "fd2657e8b18510beee26678b8c3c5272c6a06c06a5b78afe1d36aa83530fdcca "
        "d99d2cdfa9e0808c7a525c25052dc271962b736c44c50056180450e8e9827e6b"
        "\n")
