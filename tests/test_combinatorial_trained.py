"""The trained FULL CombinatorialNER (kernels/combi_train.py +
pipelines/train_combinatorial.py): gradient-descent convergence through
char-CNN/char-BiLSTM/fusion/context-BiLSTM/attention/CRF, the
north-rule mention P/R band on the held-out split, strict checkpoint
restore, and distributed-serving == sequential-replay equality.

Gradient correctness itself is covered by tests/test_combi_train.py
(finite-difference checks per kernel)."""

import numpy as np
import pytest

from biomedical_ner_ray.kernels.bio import extract_entities
from biomedical_ner_ray.kernels.combinatorial import CombinatorialScorer
from biomedical_ner_ray.kernels.tagger import AliasDict, tag_tokens
from biomedical_ner_ray.metrics import set_prf


@pytest.fixture(scope="module")
def combi_artifacts():
    from biomedical_ner_ray.pipelines.train_combinatorial import (
        ensure_combinatorial_artifacts,
    )

    return ensure_combinatorial_artifacts(replay_sf="sf0.001")


@pytest.fixture(scope="module")
def train_fixture():
    from biomedical_ner_ray.fixtures import ensure_fixture
    from biomedical_ner_ray.pipelines.train_combinatorial import TRAIN_FIXTURE

    return ensure_fixture(TRAIN_FIXTURE)


def _scorer(paths, ckpt) -> CombinatorialScorer:
    import pyarrow.parquet as pq

    rows = pq.read_table(paths["alias_dict"]).to_pylist()
    types = sorted({e.type for e in AliasDict(rows).by_key.values()})
    return CombinatorialScorer(types, checkpoint_path=ckpt)


def test_training_converged_and_checkpointed(combi_artifacts):
    from biomedical_ner_ray.state.checkpoint import load_meta

    meta = load_meta(combi_artifacts["checkpoint"])
    hist = meta["history"]
    assert len(hist) >= 5
    # the all-O basin at epoch 0 → genuine learning curve
    assert hist[0]["dev_f1"] < 0.5 < meta["best_dev_f1"]
    assert meta["best_dev_f1"] == pytest.approx(
        max(h["dev_f1"] for h in hist), abs=1e-6
    )
    assert meta["best_dev_f1"] >= 0.9
    assert meta["optimizer"]["weight_decay"] == 5e-4
    arch = meta["architecture"]
    assert all(
        arch[k] for k in
        ("char_cnn", "char_lstm", "attention", "fc_fusion", "context_lstm", "crf")
    )


def test_checkpoint_restore_strict_and_identical(train_fixture, combi_artifacts):
    a = _scorer(train_fixture, combi_artifacts["checkpoint"])
    b = _scorer(train_fixture, combi_artifacts["checkpoint"])
    assert a.checkpoint_report["mode"] == "strict"
    # trained transition scores actually moved off the 0-init
    assert np.abs(a.params["trans_w"]).max() > 0.01
    toks = "Mutations in the BRCA1 gene are associated with breast cancer .".split()
    assert a.decode_tokens(toks) == b.decode_tokens(toks)


def _mention_sets(paths, scorer):
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


def test_north_rule_band_on_held_out_split(train_fixture, combi_artifacts):
    """0.95 ≤ P, R < 1.0 on held-out mentions with FITTED weights:
    ≥0.95 is the north-rule conformance bar; <1.0 proves the gradient
    fit (not the dictionary) determines the output."""
    scorer = _scorer(train_fixture, combi_artifacts["checkpoint"])
    pred, gold = _mention_sets(train_fixture, scorer)
    m = set_prf(pred, gold)
    assert 0.95 <= m["precision"] < 1.0, m
    assert 0.95 <= m["recall"] < 1.0, m
    assert pred != gold


def test_distributed_serving_equals_replay(ray_session, combi_artifacts):
    """annotate_stage(actor pool, scorer="combinatorial") over
    the sf0.001 fixture must reproduce the sequential replay artifact
    tag-for-tag — the same per-token contract the driver's
    kg_mentions_combinatorial oracle enforces at sf0.01."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from biomedical_ner_ray.fixtures import ensure_fixture
    from biomedical_ner_ray.stages.annotate import annotate_stage
    from biomedical_ner_ray.stages.explode import mentions_stage
    from biomedical_ner_ray.state.manifest import list_parquet_files

    paths = ensure_fixture("sf0.001")
    rows = pq.read_table(paths["alias_dict"]).to_pylist()
    ref = ray.put(AliasDict(rows))
    ds = rd.read_parquet(
        list_parquet_files(paths["transcripts"]),
        columns=["conv_id", "turn_idx", "text"],
    )
    ann = annotate_stage(
        ds, ref, scorer="combinatorial",
        scorer_kwargs={"checkpoint_path": combi_artifacts["checkpoint"]},
    )
    got = (
        mentions_stage(ann)
        .select_columns(["conv_id", "turn_idx", "start_tok", "end_tok", "type"])
        .to_pandas()
    )
    got_set = set(map(tuple, got.to_numpy()))

    tags = pq.read_table(combi_artifacts["expected_tags"]).to_pandas()
    exp = set()
    for (conv, tix), g in tags.groupby(["conv_id", "turn_idx"], sort=False):
        g = g.sort_values("tok_idx")
        for e in extract_entities(list(zip(g["token"], g["tag"]))):
            exp.add(
                (conv, int(tix), e["start_position"], e["end_position"], e["type"])
            )
    assert got_set == exp
    assert len(exp) > 100
