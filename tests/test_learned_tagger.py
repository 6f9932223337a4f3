"""The trained tagger (kernels/learned.py + pipelines/train_tagger.py):
training convergence, the north-rule P/R band, checkpoint restore, and
distributed-serving == sequential-replay equality.

This is the non-tautological model path: unlike the crf/combinatorial
scorers (decode-equivalence guarantee), the learned scorer's output
depends on fitted weights and DISAGREES with the dictionary gold on a
few percent of mentions — the engine's metrics machinery (metrics.py,
G7) is exercised with genuinely imperfect predictions, like the
reference's dev-F1 loop (JNLPBA.ipynb cell 11) scoring a real model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biomedical_ner_ray.kernels.bio import extract_entities
from biomedical_ner_ray.kernels.learned import LearnedScorer, features, row_feature
from biomedical_ner_ray.kernels.tagger import AliasDict, tag_tokens
from biomedical_ner_ray.kernels.tokenize import MAX_SEQ_LEN
from biomedical_ner_ray.metrics import set_prf

token_st = st.text(
    alphabet=st.characters(codec="ascii", min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=10,
)


@given(st.lists(token_st, min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_row_feature_matches_features(tokens):
    """The trainer's distinct-row dedup builds vectors through
    row_feature; it must equal the corresponding features() row exactly
    (same hashes, same BOS/EOS slots) or the dedup would train on a
    different design matrix than inference decodes."""
    full = features(tokens)
    for i, tk in enumerate(tokens):
        pv = tokens[i - 1].lower() if i else None
        nx = tokens[i + 1].lower() if i + 1 < len(tokens) else None
        np.testing.assert_array_equal(full[i], row_feature(tk, pv, nx))


@pytest.fixture(scope="module")
def tagger_artifacts():
    from biomedical_ner_ray.pipelines.train_tagger import ensure_tagger_artifacts

    return ensure_tagger_artifacts(replay_sf="sf0.001")


@pytest.fixture(scope="module")
def train_fixture():
    from biomedical_ner_ray.fixtures import ensure_fixture
    from biomedical_ner_ray.pipelines.train_tagger import TRAIN_FIXTURE

    return ensure_fixture(TRAIN_FIXTURE)


def _scorer(paths, ckpt) -> LearnedScorer:
    import pyarrow.parquet as pq

    rows = pq.read_table(paths["alias_dict"]).to_pylist()
    types = sorted({e.type for e in AliasDict(rows).by_key.values()})
    return LearnedScorer(types, ckpt)


def test_training_converged_and_checkpointed(tagger_artifacts):
    """The reference lifecycle is load-bearing: dev F1 must IMPROVE over
    epochs (training happened), the checkpointed epoch must be the best
    one, and restore must be strict (every parameter from the file)."""
    from biomedical_ner_ray.state.checkpoint import load_meta

    meta = load_meta(tagger_artifacts["checkpoint"])
    hist = meta["history"]
    assert len(hist) >= 5
    assert hist[0]["dev_f1"] < 0.5 < meta["best_dev_f1"]
    # history entries are rounded to 6dp at write time
    assert meta["best_dev_f1"] == pytest.approx(
        max(h["dev_f1"] for h in hist), abs=1e-6
    )
    assert meta["best_epoch"] == max(
        range(len(hist)), key=lambda i: (hist[i]["dev_f1"], -i)
    )
    assert meta["best_dev_f1"] >= 0.9
    assert meta["optimizer"]["lr"] == 1e-3  # reference settings
    assert meta["optimizer"]["weight_decay"] == 5e-4


def test_checkpoint_restore_identical(train_fixture, tagger_artifacts):
    a = _scorer(train_fixture, tagger_artifacts["checkpoint"])
    b = _scorer(train_fixture, tagger_artifacts["checkpoint"])
    assert a.checkpoint_report["mode"] == "strict"
    np.testing.assert_array_equal(a.W, b.W)
    toks = "Mutations in the BRCA1 gene are associated with breast cancer .".split()
    assert a.decode_tokens(toks) == b.decode_tokens(toks)


def _mention_sets(paths, scorer):
    """(pred, gold) mention-span sets over the test split (never seen in
    training, never noised)."""
    from biomedical_ner_ray.pipelines.train_tagger import _split_of, load_turns
    import pyarrow.parquet as pq

    rows = pq.read_table(paths["alias_dict"]).to_pylist()
    alias = AliasDict(rows)

    def spans(tokens, tags):
        return {
            (e["start_position"], e["end_position"], e["type"])
            for e in extract_entities(list(zip(tokens, tags)))
        }

    pred, gold = set(), set()
    for conv, tix, toks in load_turns(paths):
        if _split_of(conv) != "test" or not toks:
            continue
        for m in spans(toks, tag_tokens(toks, alias)):
            gold.add((conv, tix) + m)
        for m in spans(toks, scorer.decode_tokens(toks)):
            pred.add((conv, tix) + m)
    return pred, gold


def test_north_rule_band_on_held_out_split(train_fixture, tagger_artifacts):
    """0.95 ≤ P, R < 1.0 on held-out mentions: ≥0.95 is the north rule's
    conformance bar; <1.0 proves the weights (not the dictionary)
    determine the output — the model genuinely disagrees with gold."""
    scorer = _scorer(train_fixture, tagger_artifacts["checkpoint"])
    pred, gold = _mention_sets(train_fixture, scorer)
    m = set_prf(pred, gold)
    assert 0.95 <= m["precision"] < 1.0, m
    assert 0.95 <= m["recall"] < 1.0, m
    assert pred != gold  # real disagreement, not a tautology


def test_distributed_serving_equals_replay(ray_session, tagger_artifacts):
    """annotate_stage(scorer='learned') over Ray must reproduce the
    sequential replay artifact tag-for-tag (the same invariant the
    driver's SQL oracle checks at sf0.01, here at sf0.001 in-process,
    via the actors mode + GPU-slot/token-budget kwargs)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from biomedical_ner_ray.fixtures import ensure_fixture
    from biomedical_ner_ray.stages.annotate import annotate_stage
    from biomedical_ner_ray.state.manifest import list_parquet_files

    paths = ensure_fixture("sf0.001")
    rows = pq.read_table(paths["alias_dict"]).to_pylist()
    ref = ray.put(AliasDict(rows))
    ds = rd.read_parquet(
        list_parquet_files(paths["transcripts"]),
        columns=["conv_id", "turn_idx", "text"],
    )
    ann = annotate_stage(
        ds,
        ref,
        mode="actors",
        concurrency=2,
        scorer="learned",
        scorer_kwargs={"checkpoint_path": tagger_artifacts["checkpoint"]},
        max_tokens_per_batch=25_600,  # 256-turn batches via token budget
    ).to_pandas()

    # rebuild per-turn mention spans from the replay artifact's raw tags
    expected = pq.read_table(tagger_artifacts["expected_tags"]).to_pandas()
    got = {}
    for r in ann.itertuples():
        got[(r.conv_id, r.turn_idx)] = {
            (m["start_tok"], m["end_tok"], m["type"]) for m in r.mentions
        }
    want = {}
    for (conv, tix), g in expected.groupby(["conv_id", "turn_idx"], sort=False):
        g = g.sort_values("tok_idx")
        spans = {
            (e["start_position"], e["end_position"], e["type"])
            for e in extract_entities(list(zip(g["token"], g["tag"])))
        }
        want[(conv, int(tix))] = spans
    for key, spans in want.items():
        assert got.get(key, set()) == spans, key


def test_actor_pool_kwargs_gpu_slot():
    """GPU slot + token-budget batch sizing plumb through to the
    map_batches kwargs (reference app.py:266-271 CUDA slot)."""
    from biomedical_ner_ray.kernels.tokenize import MAX_SEQ_LEN
    from biomedical_ner_ray.stages.annotate import actor_pool_kwargs

    kw = actor_pool_kwargs(
        "ref", concurrency=4, scorer="learned",
        scorer_kwargs={"checkpoint_path": "/x.npz"},
        num_gpus=0.5, max_tokens_per_batch=6400,
    )
    assert kw["num_gpus"] == 0.5 and "num_cpus" not in kw
    assert kw["batch_size"] == 6400 // MAX_SEQ_LEN
    assert kw["concurrency"] == 4
    assert kw["fn_constructor_kwargs"]["scorer"] == "learned"
    assert kw["fn_constructor_kwargs"]["scorer_kwargs"] == {
        "checkpoint_path": "/x.npz"
    }
    cpu = actor_pool_kwargs("ref")
    assert cpu["num_cpus"] == 1 and "num_gpus" not in cpu


def test_north_rule_triples_band_end_to_end(ray_session, tagger_artifacts):
    """The north rule grades TRIPLE P/R ≥ 0.95: run the full
    annotate→triples path with the trained scorer and compare its
    (subj, pred, obj, conv, turn) set against the dictionary-gold
    pipeline. Precision stays ~1.0 (a mispredicted span almost never
    alias-links, so it cannot emit a triple); recall pays the mention
    errors — asserted ≥ 0.95 and < 1.0 (genuinely imperfect)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from biomedical_ner_ray.fixtures import ensure_fixture
    from biomedical_ner_ray.stages.annotate import annotate_stage
    from biomedical_ner_ray.stages.explode import triples_stage
    from biomedical_ner_ray.state.manifest import list_parquet_files

    paths = ensure_fixture("sf0.001")
    rows = pq.read_table(paths["alias_dict"]).to_pylist()
    ref = ray.put(AliasDict(rows))

    def triples(scorer, kw=None):
        ds = rd.read_parquet(
            list_parquet_files(paths["transcripts"]),
            columns=["conv_id", "turn_idx", "text"],
        )
        df = triples_stage(annotate_stage(ds, ref, scorer=scorer, scorer_kwargs=kw)).to_pandas()
        cols = ["subj_cui", "pred", "obj_cui", "conv_id", "turn_idx"]
        return set(map(tuple, df[cols].itertuples(index=False)))

    gold = triples("dict")
    pred = triples("learned", {"checkpoint_path": tagger_artifacts["checkpoint"]})
    m = set_prf(pred, gold)
    assert m["precision"] >= 0.95, m
    assert 0.95 <= m["recall"] < 1.0, m


LEARNED_TYPES = ["DNA", "cell_type", "protein"]
WORDS = ["IL-2", "receptor", "gene", "binds", "the", "of", "alpha", "p53",
         "promoter", "x", "cells", "expression", ",", "İl-2", "ΟΔΟΣ"]


def _random_scorer(tmp_path, name: str, seed: int) -> LearnedScorer:
    """A LearnedScorer over seeded random weights."""
    from biomedical_ner_ray.kernels.learned import FEATURE_DIM
    from biomedical_ner_ray.state.checkpoint import save_checkpoint

    rng = np.random.RandomState(seed)
    k = 1 + 2 * len(LEARNED_TYPES)
    path = str(tmp_path / f"{name}.npz")
    save_checkpoint(path, {"W": rng.randn(FEATURE_DIM, k), "b": rng.randn(k)})
    return LearnedScorer(LEARNED_TYPES, path)


def _seqs(seed: int, n: int = 60) -> list[list[str]]:
    rng = np.random.RandomState(seed)
    lens = rng.choice([0, 1, 2, 5, 17, 40, 99, 100, 101, 130], size=n)
    return [[WORDS[j] for j in rng.randint(len(WORDS), size=m)] for m in lens]


def test_learned_batched_decode_equals_sequential_bitwise(tmp_path):
    """decode_tokens_batch rows equal decode_tokens under random
    mixed-length compositions (cold and warm token-row cache), and a
    sequence's emission rows are the same bits in any composition."""
    from biomedical_ner_ray.kernels.crf import ids_to_tags

    s = _random_scorer(tmp_path, "w", 3)
    seqs = _seqs(4)
    single = [s.decode_tokens(q) for q in seqs]
    rng = np.random.RandomState(5)
    for _ in range(4):
        order = rng.permutation(len(seqs))[: rng.randint(1, len(seqs) + 1)]
        batch = s.decode_tokens_batch([seqs[i] for i in order])
        assert [ids_to_tags(ids, s.tags, len(seqs[i])) for i, ids in zip(order, batch)] \
            == [single[i] for i in order]
    a, b = [q for q in seqs if q][:2]
    em = s.emissions([b, a[:MAX_SEQ_LEN], b])
    assert np.array_equal(em[len(b): len(b) + len(a[:MAX_SEQ_LEN])],
                          s.emissions([a[:MAX_SEQ_LEN]]))
    # gather-add is the dense linear model regrouped
    np.testing.assert_allclose(
        s.emissions([b]), features(b).astype(np.float64) @ s.W + s.b,
        rtol=1e-12, atol=1e-12,
    )


def test_learned_scorers_do_not_share_token_rows(tmp_path):
    """Two checkpoints decoding interleaved in one process each equal a
    fresh scorer of the same checkpoint: token rows are cached per
    scorer, never across checkpoints."""
    seqs = _seqs(8, 30)
    a = _random_scorer(tmp_path, "a", 1)
    b = _random_scorer(tmp_path, "b", 2)
    got_a1 = [list(x) for x in a.decode_tokens_batch(seqs)]
    got_b = [list(x) for x in b.decode_tokens_batch(seqs)]
    got_a2 = [list(x) for x in a.decode_tokens_batch(seqs)]
    fresh_a = _random_scorer(tmp_path, "a2", 1)
    fresh_b = _random_scorer(tmp_path, "b2", 2)
    assert got_a1 == got_a2 == [list(x) for x in fresh_a.decode_tokens_batch(seqs)]
    assert got_b == [list(x) for x in fresh_b.decode_tokens_batch(seqs)]
    assert got_a1 != got_b  # the two weight sets really decode differently
    some = [q for q in seqs if q][:3]
    assert np.array_equal(b.emissions(some), fresh_b.emissions(some))
    # and each is its own dense linear model, whatever decoded before
    for x in (a, b):
        for q in some:
            np.testing.assert_allclose(
                x.emissions([q]), features(q).astype(np.float64) @ x.W + x.b,
                rtol=1e-12, atol=1e-12,
            )
