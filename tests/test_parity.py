"""Smoke test of the parity script: one case prints one stable line."""

import re

import parity


def test_case_prints_name_and_two_stable_digests(capsys):
    parity.main(["tsdae"])
    parity.main(["tsdae"])
    first, second = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"tsdae [0-9a-f]{64} [0-9a-f]{64}", first)
    assert first == second
