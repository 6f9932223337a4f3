"""Streaming-ingest composition (pipelines/ingest.py): three successive
deltas through incremental-dedup → annotate → edge upsert → vector
upsert must leave the store EQUAL to a from-scratch recompute over the
surviving turns (the kg_update_edges oracle discipline end-to-end),
with idempotent re-submission and crash-safe generation flips."""

import json
import os
import shutil

import pandas as pd
import pytest

from biomedical_ner_ray.fixtures import ensure_fixture


@pytest.fixture(scope="module")
def deltas(tmp_path_factory):
    """sf0.001 transcripts split into 3 delta dirs by conv md5 % 3."""
    import pyarrow.parquet as pq

    from biomedical_ner_ray.kernels.hashing import stable_u64_md5

    p = ensure_fixture("sf0.001")
    root = tmp_path_factory.mktemp("ingest_deltas")
    import pyarrow as pa

    from biomedical_ner_ray.state.manifest import list_parquet_files

    tables = [pq.read_table(f) for f in list_parquet_files(p["transcripts"])]
    t = pa.concat_tables(tables)
    convs = t["conv_id"].to_pylist()
    shard = [stable_u64_md5(f"delta:{c}".encode()) % 3 for c in convs]
    paths = []
    for s in range(3):
        mask = pa.array([x == s for x in shard])
        d = os.path.join(str(root), f"delta{s}")
        os.makedirs(d)
        pq.write_table(t.filter(mask), os.path.join(d, "part.parquet"))
        paths.append(d)
    return p, paths


def _frames_equal(a: pd.DataFrame, b: pd.DataFrame, keys):
    a = a.sort_values(keys, ignore_index=True)
    b = b.sort_values(keys, ignore_index=True)
    pd.testing.assert_frame_equal(a, b[a.columns])


def _assert_store_equals_recompute(store: str, alias_dict: str) -> pd.DataFrame:
    """The store's edge table and vector summary equal a from-scratch
    recompute over its surviving turns; returns the store's edges."""
    import pyarrow.parquet as pq
    import ray

    from biomedical_ner_ray.kernels.tagger import AliasDict
    from biomedical_ner_ray.oracle import canonical_components
    from biomedical_ner_ray.pipelines.ingest import (
        _turn_vector,
        _vpart,
        store_edges,
        store_turns,
        store_vector_summary,
    )
    from biomedical_ner_ray.stages.annotate import annotate_stage
    from biomedical_ner_ray.stages.explode import triples_stage
    from biomedical_ner_ray.stages.graph import edges_stage

    alias_rows = pq.read_table(alias_dict).to_pylist()
    alias_ref = ray.put(AliasDict(alias_rows))
    comp_ref = ray.put(canonical_components(alias_rows))
    surv = store_turns(store).materialize()
    ann = annotate_stage(
        surv.select_columns(["conv_id", "turn_idx", "text"]), alias_ref
    )
    full = edges_stage(lambda: triples_stage(ann), comp_ref).to_pandas()
    got = store_edges(store).to_pandas()
    assert len(got) > 0
    _frames_equal(got, full, ["subj_cui", "pred", "obj_cui"])

    sdf = surv.to_pandas()
    sdf["vpart"] = [ _vpart(_turn_vector(t)) for t in sdf["text"] ]
    exp = (
        sdf.groupby("vpart")["doc_id"]
        .agg(n_vecs="size", min_vec_id="min", max_vec_id="max")
        .reset_index()
        .astype({"vpart": "int64", "n_vecs": "int64"})
    )
    got_v = store_vector_summary(store)
    _frames_equal(
        got_v.astype({"min_vec_id": "int64", "max_vec_id": "int64"}),
        exp.astype({"min_vec_id": "int64", "max_vec_id": "int64"}),
        ["vpart"],
    )
    return got


def test_three_delta_ingest_equals_full_recompute(ray_session, deltas, tmp_path):
    from biomedical_ner_ray.pipelines.ingest import ingest_delta, store_edges

    p, delta_paths = deltas
    store = str(tmp_path / "store")
    reports = [ingest_delta(store, d, p["alias_dict"]) for d in delta_paths]

    assert [r["delta"] for r in reports] == [0, 1, 2]
    assert all(r["n_kept"] <= r["n_delta_turns"] for r in reports)
    # dedup actually fired: the fixture's turn texts are heavily
    # duplicated, so later deltas must drop against the standing index
    assert sum(r["n_dropped"] for r in reports[1:]) > 0
    # every delta touched only a bounded bucket set
    for r in reports:
        assert len(r["touched_edge_buckets"]) <= 16

    # idempotence: re-submitting an applied delta is a no-op
    again = ingest_delta(store, delta_paths[1], p["alias_dict"])
    assert again.get("skipped") is True
    state = json.load(open(os.path.join(store, "store.json")))
    assert state["generation"] == 2

    # ---- final edge table + vector summary == recompute -------------
    got = _assert_store_equals_recompute(store, p["alias_dict"])

    # ---- crash-safety: an orphan next-generation dir is rebuilt -----
    orphan = os.path.join(store, "gen3")
    os.makedirs(orphan, exist_ok=True)
    open(os.path.join(orphan, "junk.parquet"), "w").close()
    # new delta content (re-use delta0 with a marker row removed → new
    # fingerprint): simplest is re-ingesting an edited copy
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(delta_paths[0], "part.parquet"))
    d4 = str(tmp_path / "delta_edit")
    os.makedirs(d4)
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), os.path.join(d4, "p.parquet"))
    r4 = ingest_delta(store, d4, p["alias_dict"])
    assert r4["delta"] == 3 and not r4.get("skipped")
    # every turn of the re-submitted slice is either already registered
    # or a near-dup of the standing index — the APPEND-ONLY-per-turn-id
    # guard drops all of them and the generation is a pure carry
    assert r4["n_kept"] == 0
    assert not os.path.exists(os.path.join(store, "gen3", "junk.parquet"))
    # superseded generation is swept
    assert not os.path.exists(os.path.join(store, "gen2"))
    # the carried store still serves the same edge table
    assert store_edges(store).count() == len(got)


def test_carry_over_falls_back_to_copy_across_filesystems(
    ray_session, deltas, tmp_path, monkeypatch
):
    """Where hardlinks fail (a store spanning filesystems: EXDEV), every
    carry-over — registry/index trees and untouched edge buckets and
    vector partitions — copies instead, and the store still equals the
    recompute."""
    import errno

    from biomedical_ner_ray.pipelines.ingest import ingest_delta

    calls = []

    def no_link(src, dst, *a, **kw):
        calls.append(dst)
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    p, delta_paths = deltas
    # a small second delta leaves most edge buckets untouched
    import pyarrow.parquet as pq

    small = str(tmp_path / "small_delta")
    os.makedirs(small)
    t = pq.read_table(os.path.join(delta_paths[1], "part.parquet"))
    pq.write_table(t.slice(0, 40), os.path.join(small, "part.parquet"))

    monkeypatch.setattr(os, "link", no_link)
    store = str(tmp_path / "store")
    for d in (delta_paths[0], small):
        assert not ingest_delta(store, d, p["alias_dict"]).get("skipped")
    gen1 = os.sep + "gen1" + os.sep
    carried = {c.split(gen1)[1].split(os.sep)[0] for c in calls if gen1 in c}
    assert {"turns", "edges", "vectors"} <= carried
    assert all(os.stat(c).st_nlink == 1 for c in calls)
    _assert_store_equals_recompute(store, p["alias_dict"])


def _small_delta(src_dir: str, dst: str, n: int = 40) -> str:
    import pyarrow.parquet as pq

    os.makedirs(dst)
    t = pq.read_table(os.path.join(src_dir, "part.parquet"))
    pq.write_table(t.slice(0, n), os.path.join(dst, "part.parquet"))
    return dst


def test_bootstrap_with_no_survivors_leaves_valid_empty_generation(
    ray_session, deltas, tmp_path
):
    """A bootstrap delta with no rows records the delta and leaves an
    empty, readable generation; a real delta then builds on it."""
    import pyarrow.parquet as pq

    from biomedical_ner_ray.pipelines.ingest import (
        EDGES_SCHEMA,
        TURNS_SCHEMA,
        ingest_delta,
        store_edges,
        store_turns,
    )

    p, delta_paths = deltas
    empty = str(tmp_path / "empty_delta")
    os.makedirs(empty)
    src = pq.read_table(os.path.join(delta_paths[0], "part.parquet"))
    pq.write_table(src.schema.empty_table(), os.path.join(empty, "part.parquet"))

    store = str(tmp_path / "store")
    r0 = ingest_delta(store, empty, p["alias_dict"])
    assert (r0["delta"], r0["n_delta_turns"], r0["n_kept"]) == (0, 0, 0)
    assert ingest_delta(store, empty, p["alias_dict"]).get("skipped") is True
    edges = store_edges(store).materialize()
    turns = store_turns(store).materialize()
    assert edges.count() == turns.count() == 0
    assert edges.schema().base_schema == EDGES_SCHEMA
    assert turns.schema().base_schema == TURNS_SCHEMA

    r1 = ingest_delta(store, delta_paths[0], p["alias_dict"])
    assert r1["delta"] == 1 and r1["n_kept"] > 0
    assert not os.path.exists(os.path.join(store, "gen0"))
    _assert_store_equals_recompute(store, p["alias_dict"])


def test_leaked_superseded_generation_is_swept(ray_session, deltas, tmp_path):
    """A kill between the flip and the removal of the superseded
    generation leaks it; the next ingest removes every generation below
    the live one."""
    from biomedical_ner_ray.pipelines.ingest import ingest_delta

    p, delta_paths = deltas
    store = str(tmp_path / "store")
    ingest_delta(store, delta_paths[0], p["alias_dict"])
    ingest_delta(store, _small_delta(delta_paths[1], str(tmp_path / "d1")),
                 p["alias_dict"])
    assert sorted(n for n in os.listdir(store) if n.startswith("gen")) == ["gen1"]
    # plant the leak: a stale generation below the live one
    shutil.copytree(os.path.join(store, "gen1"), os.path.join(store, "gen0"))

    r = ingest_delta(store, _small_delta(delta_paths[2], str(tmp_path / "d2")),
                     p["alias_dict"])
    assert r["delta"] == 2 and not r.get("skipped")
    assert sorted(n for n in os.listdir(store) if n.startswith("gen")) == ["gen2"]
    _assert_store_equals_recompute(store, p["alias_dict"])


def test_delta_without_pairs_or_edges_then_real_delta(ray_session, deltas, tmp_path):
    """A bootstrap delta whose turns form no near-dup candidate pair and
    yield no triples stores its turns and no edges; a real delta then
    builds on it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from biomedical_ner_ray.pipelines.ingest import (
        ingest_delta,
        store_edges,
        store_turns,
    )

    p, delta_paths = deltas
    src = pq.read_table(os.path.join(delta_paths[0], "part.parquet")).slice(0, 2)
    texts = [
        "we will talk again next week about the schedule",
        "thanks for calling, the office opens at nine tomorrow morning",
    ]
    t = src.set_column(
        src.schema.get_field_index("conv_id"), "conv_id", pa.array(["quiet-a", "quiet-b"])
    ).set_column(src.schema.get_field_index("text"), "text", pa.array(texts))
    quiet = str(tmp_path / "quiet_delta")
    os.makedirs(quiet)
    pq.write_table(t, os.path.join(quiet, "part.parquet"))

    store = str(tmp_path / "store")
    r0 = ingest_delta(store, quiet, p["alias_dict"])
    assert (r0["n_kept"], r0["touched_edge_buckets"]) == (2, [])
    assert store_turns(store).count() == 2
    assert store_edges(store).count() == 0

    ingest_delta(store, delta_paths[0], p["alias_dict"])
    _assert_store_equals_recompute(store, p["alias_dict"])


# exchange size-rule thresholds that force a path (tests/test_exchange_paths.py)
SHUFFLE, IN_PROCESS = -1, 1 << 40
HIVE_TABLES = {"edges": "edge_bucket", "vectors": "vpart", "bands": "band_bucket"}


def _force(monkeypatch, threshold: int) -> None:
    from biomedical_ner_ray.stages import exchange

    monkeypatch.setattr(exchange, "BYTES_PER_PARTITION", threshold)


def _hive_dirs(store: str) -> dict:
    """{(table, bucket dir): rows sorted} of the live generation's hive
    tables, plus {(table, bucket dir): file names}."""
    import pyarrow.parquet as pq

    from biomedical_ner_ray.pipelines.ingest import _gen_dir, _store_state

    gdir = _gen_dir(store, _store_state(store)["generation"])
    tables, names = {}, {}
    for table, col in HIVE_TABLES.items():
        for b in sorted(os.listdir(os.path.join(gdir, table))):
            assert b.startswith(f"{col}=")
            d = os.path.join(gdir, table, b)
            files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
            df = pd.concat([pq.read_table(os.path.join(d, f)).to_pandas() for f in files])
            tables[table, b] = df.sort_values(list(df.columns), ignore_index=True)
            names[table, b] = files
    return tables, names


def test_hive_tables_agree_across_exchange_paths(
    ray_session, deltas, tmp_path, monkeypatch
):
    """The edge, vector and band tables written from the exchange's
    combine are the same whichever path the exchange takes, a delta adds
    at most one band file per touched bucket, and the store equals the
    recompute."""
    p, delta_paths = deltas
    from biomedical_ner_ray.pipelines.ingest import ingest_delta

    small = _small_delta(delta_paths[1], str(tmp_path / "d1"), n=120)
    got = {}
    for name, threshold in (("shuffle", SHUFFLE), ("in_process", IN_PROCESS)):
        _force(monkeypatch, threshold)
        store = str(tmp_path / name)
        for d in (delta_paths[0], small):
            assert not ingest_delta(store, d, p["alias_dict"]).get("skipped")
        tables, names = _hive_dirs(store)
        for (table, b), files in names.items():
            if table == "bands":  # one file per generation that touched it
                gens = [f.split("-")[0] for f in files]
                assert len(gens) == len(set(gens)) and len(gens) <= 2
        _assert_store_equals_recompute(store, p["alias_dict"])
        got[name] = (tables, names)
    (t_sh, n_sh), (t_ip, n_ip) = got["shuffle"], got["in_process"]
    assert n_sh == n_ip
    assert {t for t, _ in t_sh} == set(HIVE_TABLES)
    for k in t_sh:
        pd.testing.assert_frame_equal(t_sh[k], t_ip[k])


def _store_snapshot(store: str):
    from biomedical_ner_ray.pipelines.ingest import (
        store_edges,
        store_turns,
        store_vector_summary,
    )

    edges = store_edges(store).to_pandas()
    turns = store_turns(store).to_pandas()
    return (
        json.load(open(os.path.join(store, "store.json"))),
        edges.sort_values(list(edges.columns), ignore_index=True),
        turns.sort_values("doc_id", ignore_index=True),
        store_vector_summary(store),
    )


@pytest.mark.parametrize("table", sorted(HIVE_TABLES))
def test_failed_store_write_keeps_generation(
    ray_session, deltas, tmp_path, monkeypatch, table
):
    """A write that fails mid-way through a hive table leaves the live
    generation and the store as they were; re-submitting the delta
    rebuilds the orphan generation and the store equals the recompute."""
    from biomedical_ner_ray.pipelines.ingest import ingest_delta
    from biomedical_ner_ray.stages import exchange

    p, delta_paths = deltas
    store = str(tmp_path / "store")
    ingest_delta(store, delta_paths[0], p["alias_dict"])
    before = _store_snapshot(store)

    _force(monkeypatch, IN_PROCESS)  # the writer runs in this process
    real_write = exchange._write_file
    written = []

    def fail_second(table_, path):
        if f"{os.sep}{table}{os.sep}" in path:
            written.append(path)
            if len(written) == 2:
                raise OSError("disk full")
        real_write(table_, path)

    monkeypatch.setattr(exchange, "_write_file", fail_second)
    delta = _small_delta(delta_paths[1], str(tmp_path / "d1"), n=120)
    with pytest.raises(OSError, match="disk full"):
        ingest_delta(store, delta, p["alias_dict"])
    assert len(written) == 2
    assert os.path.isdir(os.path.join(store, "gen1"))  # the orphan
    after = _store_snapshot(store)
    assert after[0] == before[0] and after[0]["generation"] == 0
    for a, b in zip(after[1:], before[1:]):
        pd.testing.assert_frame_equal(a, b)

    monkeypatch.setattr(exchange, "_write_file", real_write)
    r = ingest_delta(store, delta, p["alias_dict"])
    assert r["delta"] == 1 and not r.get("skipped")
    _assert_store_equals_recompute(store, p["alias_dict"])
