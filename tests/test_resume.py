"""Resumability: killed-run semantics via per-partition lineage manifests.

north_rule: resume produces byte-identical outputs with manifests showing
zero recomputation of completed partitions."""

import glob
import hashlib
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from biomedical_ner_ray.oracle import run_oracle
from biomedical_ner_ray.pipelines.kg import run_kg_pipeline
from biomedical_ner_ray.state import manifest as mf


def _content_hash(d: str) -> str:
    h = hashlib.sha256()
    for f in sorted(glob.glob(d + "/**/*.parquet", recursive=True)):
        tbl = pq.read_table(f)
        rows = sorted(map(str, tbl.to_pylist()))
        for r in rows:
            h.update(r.encode())
    return h.hexdigest()


def test_resume_skips_completed_partitions(tmp_path, tiny_fixture):
    out = str(tmp_path / "kg")
    res1 = run_kg_pipeline(tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out)
    assert res1["annotations"]["built_buckets"] > 0
    hashes1 = {k: _content_hash(v) for k, v in res1["paths"].items() if v}

    # simulate a kill of the fused annotate stage: delete two buckets'
    # files in every per-bucket output, and everything downstream
    ann = res1["paths"]["annotations"]
    buckets = sorted(glob.glob(ann + "/bucket=*"))
    for b in buckets[:2]:
        m = mf.read_manifest(b)
        for kind in m["outputs"]:
            for f in mf.manifest_outputs(b, m, kind):
                os.remove(f)
        shutil.rmtree(b)
    for stage in ("nodes", "edges"):
        shutil.rmtree(res1["paths"][stage])

    res2 = run_kg_pipeline(tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out)
    # completed partitions were NOT recomputed
    assert res2["turns_sorted"]["skipped"] is True
    assert res2["annotations"]["skipped_buckets"] == len(buckets) - 2
    assert res2["annotations"]["built_buckets"] == 2
    # byte-identical final content
    hashes2 = {k: _content_hash(v) for k, v in res2["paths"].items() if v}
    assert hashes1 == hashes2


def test_noop_resume_everything_skipped(tmp_path, tiny_fixture):
    out = str(tmp_path / "kg2")
    run_kg_pipeline(tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out)
    res = run_kg_pipeline(tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out)
    assert res["annotations"]["built_buckets"] == 0
    for stage in ("turns_sorted", "mentions", "triples", "nodes", "edges"):
        assert res[stage]["skipped"] is True


def test_manifest_records_lineage(tmp_path, tiny_fixture):
    out = str(tmp_path / "kg3")
    res = run_kg_pipeline(tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out)
    for m in res["annotations"]["buckets"]:
        assert m["fingerprint"]
        assert m["rows"] > 0
    # manifest file exists inside each completed partition dir
    ann = res["paths"]["annotations"]
    for b in sorted(glob.glob(ann + "/bucket=*")):
        assert os.path.exists(os.path.join(b, "_MANIFEST.json"))


def _graph(res) -> tuple[list, list]:
    def rows(d, cols):
        t = pa.concat_tables(
            pq.read_table(f) for f in sorted(glob.glob(d + "/*.parquet"))
        )
        return sorted(zip(*(t[c].to_pylist() for c in cols)))

    return (
        rows(res["paths"]["nodes"], ["cui", "canonical_name", "type", "mention_count"]),
        rows(res["paths"]["edges"], ["subj_cui", "pred", "obj_cui", "weight"]),
    )


def _oracle(transcripts, alias_path) -> tuple[list, list]:
    gold = run_oracle(
        pq.read_table(transcripts, columns=["conv_id", "turn_idx", "text"]).to_pylist(),
        pq.read_table(alias_path).to_pylist(),
    )
    return (
        sorted((x["cui"], x["canonical_name"], x["type"], x["mention_count"])
               for x in gold["nodes"]),
        sorted((x["subj_cui"], x["pred"], x["obj_cui"], x["weight"])
               for x in gold["edges"]),
    )


def test_alias_change_rebuilds(tmp_path, tiny_fixture):
    """The alias dictionary is part of every bucket, nodes and edges
    fingerprint: rebuilding into the same output after it changes
    rebuilds them and equals the oracle for the new dictionary."""
    alias = str(tmp_path / "alias.parquet")
    shutil.copy(tiny_fixture["alias_dict"], alias)
    out = str(tmp_path / "kg")
    run_kg_pipeline(tiny_fixture["transcripts"], alias, out)

    rows = pq.read_table(alias).to_pylist()
    dropped = sorted({r["type"] for r in rows})[0]
    pq.write_table(pa.Table.from_pylist([r for r in rows if r["type"] != dropped]), alias)
    res = run_kg_pipeline(tiny_fixture["transcripts"], alias, out)
    assert res["annotations"]["skipped_buckets"] == 0
    assert res["nodes"]["skipped"] is False and res["edges"]["skipped"] is False
    want = _oracle(tiny_fixture["transcripts"], alias)
    assert _graph(res) == want
    assert want != _oracle(tiny_fixture["transcripts"], tiny_fixture["alias_dict"])


def test_lost_derived_file_rebuilds_its_bucket(tmp_path, tiny_fixture):
    """A completed bucket whose mention file is gone is incomplete: that
    bucket alone is rebuilt, and the build still equals the oracle."""
    out = str(tmp_path / "kg")
    res1 = run_kg_pipeline(tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out)
    lost = res1["annotations"]["buckets"][1]
    for f in mf.manifest_outputs(lost["dir"], lost, "mentions"):
        os.remove(f)

    res2 = run_kg_pipeline(tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out)
    built = [m["stage"] for m in res2["annotations"]["buckets"] if not m["skipped"]]
    assert built == [lost["stage"]]
    assert all(os.path.exists(f) for f in mf.manifest_outputs(lost["dir"], lost, "mentions"))
    assert res2["mentions"]["rows"] == res1["mentions"]["rows"]
    assert pq.read_table(res2["paths"]["mentions"]).num_rows == res1["mentions"]["rows"]
    assert _graph(res2) == _oracle(tiny_fixture["transcripts"], tiny_fixture["alias_dict"])
