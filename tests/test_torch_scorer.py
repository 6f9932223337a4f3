"""Torch-optional serving slot (kernels/torch_scorer.py).

This sandbox has no torch, so the always-run tests pin the HONEST-GATE
contract (clear ImportError, no silent fallback, correct annotate-stage
wiring); the numeric twin test — torch emissions == numpy emissions on
the real trained checkpoint — runs wherever torch exists (skipif)."""

import numpy as np
import pytest

try:
    import torch  # noqa: F401

    HAS_TORCH = True
except ImportError:
    HAS_TORCH = False


@pytest.fixture(scope="module")
def combi_ckpt():
    from biomedical_ner_ray.pipelines.train_combinatorial import (
        ensure_combinatorial_artifacts,
    )

    return ensure_combinatorial_artifacts()["checkpoint"]


@pytest.mark.skipif(HAS_TORCH, reason="torch present: gate not applicable")
def test_import_gate_is_clear_without_torch(combi_ckpt):
    from biomedical_ner_ray.kernels.torch_scorer import TorchCombinatorialScorer

    with pytest.raises(ImportError, match="CombinatorialScorer"):
        TorchCombinatorialScorer(["topic"], combi_ckpt)


@pytest.mark.skipif(HAS_TORCH, reason="torch present: gate not applicable")
def test_annotate_stage_slot_raises_cleanly(combi_ckpt, alias_rows_fx):
    """The actor slot must surface the same honest gate, never a silent
    downgrade to another scorer."""
    from biomedical_ner_ray.kernels.tagger import AliasDict
    from biomedical_ner_ray.stages.annotate import TurnAnnotator

    with pytest.raises(ImportError, match="torch"):
        TurnAnnotator(
            AliasDict(alias_rows_fx),
            scorer="combinatorial_torch",
            scorer_kwargs={"checkpoint_path": combi_ckpt},
        )


@pytest.mark.skipif(not HAS_TORCH, reason="torch not installed")
def test_torch_twin_matches_numpy_emissions(combi_ckpt, alias_rows_fx):
    """Where torch exists: the tensor forward must reproduce the numpy
    forward on the trained checkpoint (same conv formulation, gate
    math, attention algebra) — decode identity follows."""
    from biomedical_ner_ray.kernels.combinatorial import CombinatorialScorer
    from biomedical_ner_ray.kernels.tagger import AliasDict
    from biomedical_ner_ray.kernels.torch_scorer import TorchCombinatorialScorer

    types = sorted(
        {e.type for e in AliasDict(alias_rows_fx).by_key.values()}
    )
    np_sc = CombinatorialScorer(types, checkpoint_path=combi_ckpt)
    th_sc = TorchCombinatorialScorer(types, combi_ckpt, device="cpu")
    toks = "please schedule a follow-up scan for the left knee".split()
    np.testing.assert_allclose(
        th_sc.scores(toks), np_sc.scores(toks), rtol=1e-4, atol=1e-5
    )
    assert th_sc.decode_tokens(toks) == np_sc.decode_tokens(toks)
