"""run_kg_pipeline's run-scoped guards: bad input turns are counted,
never dropped silently, and the ``fsspec.implementations.http`` stub is
installed only when the real module cannot be imported, and only for
the length of one run."""

import json
import os
import sys
import types

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HTTP = "fsspec.implementations.http"


def _transcripts(tmp_path) -> str:
    """Two files of turns: 3 without tokens, 2 over MAX_SEQ_LEN tokens."""
    texts = [
        None, "", "   ",
        " ".join(["p53"] * 101), " ".join(["IL-2 binds TP53 ."] * 40),
        "IL-2 binds TP53 in HeLa cells .", "p53 protein", "thanks",
    ]
    d = tmp_path / "transcripts"
    d.mkdir()
    for f in range(2):
        rows = range(f, len(texts), 2)
        pq.write_table(pa.table({
            "conv_id": [f"c{i % 3}" for i in rows],
            "turn_idx": pa.array(list(rows), pa.int32()),
            "text": pa.array([texts[i] for i in rows], pa.string()),
        }), d / f"part-{f}.parquet")
    return str(d)


def test_empty_and_truncated_turns_counted(ray_session, tiny_fixture, tmp_path):
    from biomedical_ner_ray.pipelines.kg import run_kg_pipeline
    from biomedical_ner_ray.state.manifest import MANIFEST_NAME

    src = _transcripts(tmp_path)
    out = str(tmp_path / "out")
    res = run_kg_pipeline(src, tiny_fixture["alias_dict"], out, sort=False)
    ann = res["annotations"]
    assert ann["rows"] == 8
    assert (ann["empty_turns"], ann["truncated_turns"]) == (3, 2)
    assert sum(m["counters"]["turns"] for m in ann["buckets"]) == 8

    # a resumed bucket whose manifest predates the two counters gets
    # them back-filled from its files
    bdir = os.path.join(out, "annotations", "bucket=000")
    path = os.path.join(bdir, MANIFEST_NAME)
    m = json.load(open(path))
    for k in ("empty_turns", "truncated_turns"):
        del m["counters"][k]
    json.dump(m, open(path, "w"))
    again = run_kg_pipeline(src, tiny_fixture["alias_dict"], out, sort=False)
    assert again["annotations"]["skipped_buckets"] == 2
    assert (again["annotations"]["empty_turns"],
            again["annotations"]["truncated_turns"]) == (3, 2)
    assert "empty_turns" in json.load(open(path))["counters"]


def _spy_annotate(monkeypatch, raise_it: bool) -> list:
    """Record the module under HTTP while the annotate stage is built;
    optionally make that stage raise."""
    from biomedical_ner_ray.pipelines import kg

    seen = []
    real = kg.annotate_stage

    def spy(*args, **kwargs):
        seen.append(sys.modules.get(HTTP))
        if raise_it:
            raise RuntimeError("planted stage failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(kg, "annotate_stage", spy)
    return seen


def test_real_http_module_left_untouched(ray_session, tiny_fixture, tmp_path,
                                         monkeypatch):
    from biomedical_ner_ray.pipelines.kg import run_kg_pipeline

    fake = types.ModuleType(HTTP)
    fake.HTTPFileSystem = type("HTTPFileSystem", (), {})
    monkeypatch.setitem(sys.modules, HTTP, fake)
    seen = _spy_annotate(monkeypatch, raise_it=False)
    res = run_kg_pipeline(_transcripts(tmp_path), tiny_fixture["alias_dict"],
                          str(tmp_path / "out"), sort=False)
    assert res["edges"]["rows"] > 0
    assert seen and all(m is fake for m in seen)
    assert sys.modules[HTTP] is fake


@pytest.mark.parametrize("raise_it", [False, True], ids=["ok", "stage_raises"])
def test_stub_scoped_to_the_run(ray_session, tiny_fixture, tmp_path,
                                monkeypatch, raise_it):
    from biomedical_ner_ray.pipelines.kg import run_kg_pipeline

    # a None entry makes ``import fsspec.implementations.http`` fail
    monkeypatch.setitem(sys.modules, HTTP, None)
    seen = _spy_annotate(monkeypatch, raise_it)
    args = (_transcripts(tmp_path), tiny_fixture["alias_dict"], str(tmp_path / "out"))
    if raise_it:
        with pytest.raises(RuntimeError, match="planted"):
            run_kg_pipeline(*args, sort=False)
    else:
        assert run_kg_pipeline(*args, sort=False)["edges"]["rows"] > 0
    assert seen
    for stub in seen:
        assert stub is not None and not hasattr(stub, "__file__")
        assert isinstance(stub.HTTPFileSystem, type)
    assert HTTP not in sys.modules
