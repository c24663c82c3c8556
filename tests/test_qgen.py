"""Generation budget rule, nucleus filtering, and decoding determinism."""

import re
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denseadapt import qgen
from denseadapt.corpus import Passage, passage_text, tokenize
from denseadapt.models import QueryGenerator
from denseadapt.qgen import (EOS_TOKEN, NOISE_VOCAB, PLACEHOLDER_TOKEN,
                             GenerationBudget, SamplerConfig, _decode,
                             compute_budget, generate_queries, mock_generator,
                             nucleus_filter)


class TestComputeBudget:
    def test_mid_size_corpus_no_downsample(self):
        budget = compute_budget(57_600, 250_000)
        assert budget.effective_corpus_size == 57_600
        assert budget.qpp == 5

    def test_large_corpus_downsampled(self):
        budget = compute_budget(528_200, 250_000)
        assert budget.effective_corpus_size == 83_333
        assert budget.qpp == 3

    def test_small_corpus_many_queries(self):
        assert compute_budget(5_183, 250_000).qpp == 49

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compute_budget(0, 250_000)

    @given(st.integers(1, 2_000_000), st.integers(3, 2_000_000))
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, corpus_size, total_budget):
        budget = compute_budget(corpus_size, total_budget)
        assert budget.qpp >= 3
        assert budget.effective_corpus_size <= corpus_size
        # the floor in the down-sampling branch may undershoot by the
        # remainder of total_budget mod 3, never more
        assert budget.qpp * budget.effective_corpus_size >= total_budget - 2
        if 3 * corpus_size <= total_budget:
            assert budget.effective_corpus_size == corpus_size
            assert budget.qpp * budget.effective_corpus_size >= total_budget


class TestNucleusFilter:
    def test_equal_logits_all_survive(self):
        cfg = SamplerConfig(top_p=0.95, top_k=10)
        probs = nucleus_filter(np.zeros(4), cfg)
        np.testing.assert_allclose(probs, [0.25] * 4)

    def test_top_k_one_is_argmax(self):
        cfg = SamplerConfig(top_k=1)
        probs = nucleus_filter(np.array([0.1, 2.0, 0.5]), cfg)
        np.testing.assert_allclose(probs, [0.0, 1.0, 0.0])

    def test_tiny_temperature_point_mass(self):
        cfg = SamplerConfig(temperature=1e-4)
        probs = nucleus_filter(np.array([1.0, 1.5, 0.2]), cfg)
        assert probs[1] == pytest.approx(1.0)

    def test_top_p_cuts_tail(self):
        # probs 0.5, 0.3, 0.15, 0.05 -> prefix reaching 0.8: first two
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        cfg = SamplerConfig(top_p=0.8, top_k=10)
        probs = nucleus_filter(logits, cfg)
        np.testing.assert_allclose(probs, [0.625, 0.375, 0.0, 0.0])

    def test_ties_broken_by_index(self):
        cfg = SamplerConfig(top_k=2, top_p=1.0)
        probs = nucleus_filter(np.zeros(5), cfg)
        assert probs[0] > 0 and probs[1] > 0
        assert probs[2] == probs[3] == probs[4] == 0.0

    def test_all_neg_inf_rejected(self):
        with pytest.raises(ValueError, match="^all logits are -inf$"):
            nucleus_filter(np.full(3, -np.inf), SamplerConfig())

    @pytest.mark.parametrize("logits", [
        [0.0, np.nan, 1.0], [np.nan, -np.inf], [np.nan, np.inf, 0.0],
        [0.0, np.inf], [-np.inf, np.inf, -np.inf], [np.inf, np.inf],
    ])
    def test_nan_or_pos_inf_rejected(self, logits):
        message = "logits must not contain NaN or +inf"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nucleus_filter(np.array(logits), SamplerConfig())

    @pytest.mark.parametrize("logits", [[1e308, 0.0], [-np.inf, -1e308, 1e308]])
    def test_overflow_under_temperature_rejected(self, logits):
        cfg = SamplerConfig(temperature=0.5)
        message = "logits / temperature overflows to +inf"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nucleus_filter(np.array(logits), cfg)
        # The dense softmax gave NaN here, which the draw rejected.
        with np.errstate(over="ignore", invalid="ignore"):
            probs = dense_nucleus_filter(np.array(logits), cfg)
        with pytest.raises(ValueError, match="NaN"):
            np.random.default_rng(0).choice(len(probs), p=probs)

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=64),
           st.integers(1, 80),
           st.floats(0.05, 1.0),
           st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_output_is_distribution(self, logits, top_k, top_p, temperature):
        cfg = SamplerConfig(temperature=temperature, top_k=top_k, top_p=top_p)
        probs = nucleus_filter(np.array(logits), cfg)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(probs) <= top_k
        # downward closed: no excluded token beats an included one
        if np.count_nonzero(probs) < len(logits):
            base = np.exp(np.array(logits) / temperature)
            base /= base.sum()
            included = probs > 0
            assert base[~included].max() <= base[included].min() + 1e-12


# The dense filter and the `Generator.choice` draw that `nucleus_filter` and
# `_decode` replaced, kept verbatim as the oracle they must match bit for bit.
def dense_nucleus_filter(logits: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("logits must be a non-empty vector")
    if np.isnan(logits).any() or np.isposinf(logits).any():
        raise ValueError("logits must not contain NaN or +inf")
    if np.all(np.isneginf(logits)):
        raise ValueError("all logits are -inf")

    scaled = logits / cfg.temperature
    scaled = scaled - np.max(scaled)
    probs = np.exp(scaled)
    probs /= probs.sum()

    order = np.argsort(-probs, kind="stable")[: cfg.top_k]
    cumulative = np.cumsum(probs[order])
    cut = int(np.searchsorted(cumulative, cfg.top_p - 1e-12)) + 1
    keep = order[: min(cut, len(order))]

    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    out /= out.sum()
    return out


def choice_decode(gen, source_text, cfg, rng, limit):
    tokens: list[str] = []
    while len(tokens) < limit:
        logits = gen.next_token_logits(source_text, tuple(tokens))
        probs = dense_nucleus_filter(logits, cfg)
        idx = int(rng.choice(len(probs), p=probs))
        token = gen.vocab[idx]
        if token == gen.eos_token:
            break
        tokens.append(token)
    return tokens


def random_logits(rng: np.random.Generator, case: str) -> np.ndarray:
    n = int(rng.integers(1, 300))
    if case == "ties":
        return rng.integers(-2, 3, n).astype(float)
    if case == "all_finite":
        return rng.normal(0.0, float(rng.choice([0.5, 3.0, 40.0])), n)
    # -inf masks, with tied values among the finite entries
    logits = np.full(n, -np.inf)
    finite = rng.random(n) < rng.uniform(0.02, 0.5)
    finite[rng.integers(n)] = True
    logits[finite] = rng.choice([0.0, 6.0, 8.0, 8.0 + np.log(2.0)], finite.sum())
    return logits


class TestExactSampling:
    """`nucleus_filter` and the `_decode` draw equal the dense oracle."""

    @pytest.mark.parametrize("case", ["ties", "all_finite", "neg_inf_mask"])
    @pytest.mark.parametrize("top_k", ["small", "above_finite_count"])
    @pytest.mark.parametrize("top_p", [0.95, 1.0, "random"])
    def test_filter_bytes_and_draws_match_dense_oracle(self, case, top_k, top_p):
        rng = np.random.default_rng(zlib.crc32(f"{case} {top_k} {top_p}".encode()))
        for _ in range(60):
            logits = random_logits(rng, case)
            n_finite = int(np.isfinite(logits).sum())
            cfg = SamplerConfig(
                temperature=float(rng.choice([0.3, 1.0, 2.0, rng.uniform(0.3, 2.0)])),
                top_k=(int(rng.integers(1, n_finite + 1)) if top_k == "small"
                       else n_finite + int(rng.integers(0, 50))),
                top_p=float(rng.uniform(0.01, 1.0)) if top_p == "random" else top_p)
            assert nucleus_filter(logits, cfg).tobytes() == \
                dense_nucleus_filter(logits, cfg).tobytes()

            # The eos token is outside the vocabulary, so each decode
            # draws `limit` tokens from the same stream.
            gen = QueryGenerator(tuple(f"t{i}" for i in range(len(logits))),
                                 lambda text, prefix: logits, EOS_TOKEN)
            seed = int(rng.integers(2**32))
            assert _decode(gen, "", cfg, np.random.default_rng(seed), 8) == \
                choice_decode(gen, "", cfg, np.random.default_rng(seed), 8)


class TestSamplerConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"temperature": 0.0}, {"temperature": -1.0}, {"top_k": 0},
        {"top_p": 0.0}, {"top_p": 1.5},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


def small_corpus():
    return [Passage(f"d{i}", "", text) for i, text in enumerate([
        "futures contract basics trading",
        "options pricing model theory",
        "bond yield curve inversion",
        "stock dividend payout ratio",
        "currency swap hedging risk",
        "margin account leverage rules",
        "index fund expense ratio",
        "credit default swap spread",
        "commodity futures oil price",
        "treasury bill auction yield",
    ])]


class TestGenerateQueries:
    def test_counts_and_ids(self):
        passages = small_corpus()
        gen = mock_generator(passages)
        budget = compute_budget(len(passages), 30)
        queries = generate_queries(gen, passages, budget, SamplerConfig(seed=1))
        assert len(queries) == 30
        assert budget.qpp == 3
        for p in passages:
            ids = [q.id for q in queries if q.source_passage_id == p.id]
            assert ids == [f"genQ-{p.id}-{n}" for n in (1, 2, 3)]

    def test_deterministic(self):
        passages = small_corpus()
        gen = mock_generator(passages)
        budget = compute_budget(len(passages), 30)
        cfg = SamplerConfig(seed=5)
        a = generate_queries(gen, passages, budget, cfg)
        b = generate_queries(gen, passages, budget, cfg)
        assert a == b

    def test_mock_tokenizes_each_source_passage_once(self, monkeypatch):
        """Not once per decode step: a passage's queries are decoded in a
        row and the mock keeps the last passage's logits."""
        passages = small_corpus()
        gen = mock_generator(passages)
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(qgen, "tokenize", counting)
        queries = generate_queries(gen, passages,
                                   compute_budget(len(passages), 30),
                                   SamplerConfig(seed=1))
        assert sum(len(q.text.split()) for q in queries) > len(passages)
        assert calls == Counter(passage_text(p) for p in passages)

    def test_mock_logits_do_not_depend_on_the_last_passage(self):
        passages = small_corpus()
        gen = mock_generator(passages)
        texts = [passage_text(p) for p in passages[:2]] + [
            passage_text(passages[0]), "futures pricing unknownword", ""]
        for text in texts:
            logits = gen.next_token_logits(text, ())
            want = mock_generator(passages).next_token_logits(text, ("x",))
            assert logits.tobytes() == want.tobytes()
            logits[:] = 0.0  # the caller's copy, not the generator's

    @pytest.mark.parametrize("cfg,expected", [
        (SamplerConfig(seed=1), [
            "trading trading trading contract futures basics contract trading basics trading basics trading",
            "basics futures basics futures futures trading trading contract basics contract trading contract",
            "basics trading contract futures futures basics futures contract futures basics trading basics",
            "pricing options options options pricing model theory options options options pricing options",
            "options pricing pricing options options theory model model options pricing theory pricing",
            "theory theory model theory options options model pricing model pricing theory theory",
            "bond inversion yield curve curve inversion inversion bond inversion inversion bond curve",
            "inversion bond yield bond inversion inversion inversion bond yield curve bond yield",
            "bond curve inversion yield curve inversion bond yield yield yield bond yield",
            "dividend dividend dividend stock stock payout dividend payout ratio payout stock stock",
            "ratio stock payout payout dividend dividend payout stock stock ratio stock payout",
            "ratio payout stock payout dividend payout stock payout stock dividend dividend ratio",
        ]),
        (SamplerConfig(seed=9, temperature=2.0, top_k=300, top_p=1.0), [
            "noise139 contract basics noise198",
            "futures noise185 noise081 futures noise088 noise013 basics noise028 futures basics noise008 contract",
            "noise067 futures basics noise106 futures noise178 futures contract futures noise042 noise124 contract",
            "theory model noise122 theory options options options noise165 model theory noise199 noise122",
            "noise016 model noise029 noise162 noise089 noise183 noise151 model pricing noise172 noise197 noise108",
            "options options noise063 model pricing",
            "noise124 inversion inversion inversion curve noise160 bond noise185 noise060 yield curve yield",
            "inversion noise134",
            "noise190 inversion noise046 curve yield",
            "noise085 ratio stock noise019 payout noise116 noise085 noise046 ratio noise168",
            "noise001 noise036 dividend stock stock payout noise152 ratio payout noise081 noise183 noise070",
            "noise124 noise138 ratio noise078 stock stock noise171 ratio noise192 dividend noise091 noise144",
        ]),
    ])
    def test_pinned_queries(self, cfg, expected):
        # The queries the dense filter and `Generator.choice` decoded.
        passages = small_corpus()[:4]
        queries = generate_queries(mock_generator(passages), passages,
                                   compute_budget(len(passages), 12), cfg)
        assert [q.text for q in queries] == expected

    def test_budget_size_mismatch_rejected(self):
        passages = small_corpus()
        gen = mock_generator(passages)
        budget = compute_budget(4, 30)
        with pytest.raises(ValueError):
            generate_queries(gen, passages, budget, SamplerConfig())

    def test_high_temperature_lowers_source_overlap(self):
        passages = small_corpus()
        gen = mock_generator(passages)
        budget = compute_budget(len(passages), 30)

        def avg_overlap(temperature):
            cfg = SamplerConfig(temperature=temperature, seed=3)
            queries = generate_queries(gen, passages, budget, cfg)
            texts = {p.id: set(tokenize(p.body)) for p in passages}
            scores = []
            for q in queries:
                q_tokens = tokenize(q.text)
                src = texts[q.source_passage_id]
                scores.append(sum(t in src for t in q_tokens) / len(q_tokens))
            return sum(scores) / len(scores)

        assert avg_overlap(10.0) < avg_overlap(1.0)

    def test_placeholder_on_immediate_eos(self):
        # a generator that always emits eos first
        gen = QueryGenerator(vocab=("tok", EOS_TOKEN),
                             next_token_logits=lambda text, prefix:
                             np.array([-np.inf, 0.0]),
                             eos_token=EOS_TOKEN)
        passages = [Passage("d0", "", "anything")]
        budget = GenerationBudget(3, 3, 1)
        queries = generate_queries(gen, passages, budget, SamplerConfig(seed=0))
        assert all(q.text == PLACEHOLDER_TOKEN for q in queries)


class TestMockGenerator:
    def test_low_temperature_dominated_by_content(self):
        passages = [Passage("d0", "", "futures contract basics")]
        gen = mock_generator(passages)
        budget = GenerationBudget(3, 3, 1)
        queries = generate_queries(gen, passages, budget,
                                   SamplerConfig(temperature=0.1, seed=2))
        content = {"futures", "contract", "basics"}
        for q in queries:
            assert set(tokenize(q.text)) <= content

    def test_high_temperature_dominated_by_noise(self):
        passages = [Passage("d0", "", "futures contract basics")]
        gen = mock_generator(passages)
        budget = GenerationBudget(3, 3, 1)
        queries = generate_queries(gen, passages, budget,
                                   SamplerConfig(temperature=10.0, seed=2))
        noise = set(NOISE_VOCAB)
        tokens = [t for q in queries for t in tokenize(q.text)]
        assert sum(t in noise for t in tokens) > len(tokens) / 2

    def test_different_passages_different_queries(self):
        passages = small_corpus()[:2]
        gen = mock_generator(passages)
        budget = GenerationBudget(6, 3, 2)
        queries = generate_queries(gen, passages, budget, SamplerConfig(seed=4))
        first = [q.text for q in queries if q.source_passage_id == "d0"]
        second = [q.text for q in queries if q.source_passage_id == "d1"]
        assert first != second
