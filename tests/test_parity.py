"""Smoke test of the parity script: one case prints one stable line, and
the label TSV's and a checkpoint file's digests are pinned."""

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
