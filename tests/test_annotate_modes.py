"""Annotate-stage execution modes (tasks vs explicit actor pool) must
produce identical annotations; a model scorer loads its trained
artifacts once per worker and serves them identically over Ray and in
process; a model scorer without a checkpoint is refused."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from biomedical_ner_ray.fixtures import alias_rows
from biomedical_ner_ray.kernels.tagger import AliasDict
from biomedical_ner_ray.stages.annotate import TurnAnnotator, annotate_stage


def _norm(ds) -> pd.DataFrame:
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    df["mentions"] = df["mentions"].map(
        lambda ms: tuple(tuple(sorted(m.items())) for m in ms)
    )
    df["triples"] = df["triples"].map(
        lambda ts: tuple(tuple(sorted(t.items())) for t in ts)
    )
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def test_modes_and_scorers_agree(ray_session, tiny_fixture):
    import glob

    files = sorted(glob.glob(tiny_fixture["transcripts"] + "/*.parquet"))[:2]
    ref = ray.put(AliasDict(alias_rows()))

    def run(**kw):
        ds = rd.read_parquet(files, columns=["conv_id", "turn_idx", "text"])
        return _norm(annotate_stage(ds, ref, batch_size=256, **kw))

    base = run(mode="tasks", scorer="dict")
    actor = run(mode="actors", concurrency=2, scorer="dict")
    pd.testing.assert_frame_equal(base, actor)
    assert len(base) == sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def test_crf_with_trained_artifacts_agrees(ray_session, tiny_fixture, tmp_path):
    """The J4/S5 slot in the flagship: a CombinatorialNER (BiLSTM-CRF)
    scorer loading a trained embedding matrix AND a partial parameter
    checkpoint restores what it should, and annotate_stage over Ray
    serves exactly what the same artifacts decode in process."""
    import glob

    import numpy as np

    from biomedical_ner_ray.kernels.blasctl import single_threaded_blas
    from biomedical_ner_ray.kernels.combinatorial import CombinatorialScorer
    from biomedical_ner_ray.pipelines.embeddings import train_sgns
    from biomedical_ner_ray.sources.word2vec_bin import kv_to_parquet
    from biomedical_ner_ray.state.checkpoint import save_checkpoint

    m = train_sgns(
        [["the", "patient", "received", "il-2", "therapy"]] * 30, epochs=1
    )
    mat_path = str(tmp_path / "matrix.parquet")
    kv_to_parquet(m.words, m.vectors.astype(np.float32), mat_path)
    ad = AliasDict(alias_rows())
    types = sorted({e.type for e in ad.by_key.values()})
    probe = CombinatorialScorer(types, embedding_matrix_path=mat_path)
    ck = str(tmp_path / "ck")
    # every parameter at half scale, plus one entry the model lacks
    save_checkpoint(
        ck,
        {**{k: v * 0.5 for k, v in probe.parameters().items()},
         "bogus": np.zeros((2, 2))},
    )
    kw = {"embedding_matrix_path": mat_path, "checkpoint_path": ck}

    local = TurnAnnotator(ad, scorer="combinatorial", scorer_kwargs=kw)
    rep = local.crf.checkpoint_report
    assert rep["mode"] == "partial"
    assert rep["loaded"] == len(probe.parameters())
    assert rep["skipped"] == ["bogus"]
    np.testing.assert_array_equal(
        local.crf.params["emission_W"], probe.params["emission_W"] * 0.5
    )
    emb = local.crf.word_embeddings(["IL-2", "zzz-oov"])
    row = m.words.index("il-2")
    np.testing.assert_allclose(emb[0], m.vectors[row], atol=1e-6)
    np.testing.assert_array_equal(emb[1], probe.word_embeddings(["zzz-oov"])[0])

    files = sorted(glob.glob(tiny_fixture["transcripts"] + "/*.parquet"))[:2]
    turns = pa.concat_tables(
        pq.read_table(f, columns=["conv_id", "turn_idx", "text"]) for f in files
    )
    ref = ray.put(ad)
    served = _norm(
        annotate_stage(
            rd.from_arrow(turns), ref, batch_size=256,
            scorer="combinatorial", scorer_kwargs=kw,
        )
    )
    # Ray workers run BLAS single-threaded; match them on near-ties
    with single_threaded_blas():
        replay = _norm(local(turns).to_pandas())
    pd.testing.assert_frame_equal(served, replay)
    assert len(served) == turns.num_rows


@pytest.mark.parametrize(
    "scorer", ["learned", "combinatorial", "combinatorial_torch"]
)
@pytest.mark.parametrize("scorer_kwargs", [None, {}, {"checkpoint_path": ""}])
def test_model_scorer_without_checkpoint_refused(scorer, scorer_kwargs):
    """A model scorer with no checkpoint would serve seeded random
    weights; the annotate slot refuses it instead."""
    with pytest.raises(ValueError, match="checkpoint_path"):
        TurnAnnotator(
            AliasDict(alias_rows()), scorer=scorer, scorer_kwargs=scorer_kwargs
        )


def test_unknown_scorer_refused():
    with pytest.raises(ValueError, match="unknown scorer"):
        TurnAnnotator(AliasDict(alias_rows()), scorer="crf")
