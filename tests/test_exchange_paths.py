"""Size-rule equivalence for stages/exchange: a keyed stream at most
``BYTES_PER_PARTITION`` bytes is combined in the calling process, a
larger one is shuffled. The path is a physical-plan choice, never a
semantic one, so forcing either (threshold -1: always shuffle; 1 TB:
always in-process) must give the same result."""

import glob
import os

import pandas as pd
import pyarrow as pa
import pytest

# -1: below every stream size, even an empty stream's 0 bytes
SHUFFLE, IN_PROCESS = -1, 1 << 40


def _force(monkeypatch, threshold: int) -> None:
    from biomedical_ner_ray.stages import exchange

    monkeypatch.setattr(exchange, "BYTES_PER_PARTITION", threshold)


def _fns() -> dict:
    """Combines defined in a function body, so Ray ships them by value
    (workers cannot import this test module)."""

    def sum_v(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False)["v"].sum()

    def arrow_sum_v(g: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(sum_v(g), preserve_index=False)

    def none_for_even_min(g: pd.DataFrame):
        # None for some partitions, a frame for the others
        return None if g["k"].min() % 2 == 0 else sum_v(g)

    return {"pandas": sum_v, "arrow": arrow_sum_v, "none": none_for_even_min}


def _exchange_result(monkeypatch, threshold, rows, fn):
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    from biomedical_ner_ray.stages.exchange import keyed_exchange

    _force(monkeypatch, threshold)
    df = pd.DataFrame({"k": [i % 13 for i in range(rows)], "v": range(rows)})
    ds = rd.from_pandas(df)
    if rows == 0:
        ds = ds.filter(lambda r: False)  # zero blocks reach the exchange
    out = keyed_exchange(ds, ["k"], fn, 4)
    # the in-process path hands back already-built blocks
    assert isinstance(out, MaterializedDataset) == (threshold == IN_PROCESS)
    got = out.to_pandas()
    if len(got):
        got = got.sort_values("k", ignore_index=True)
    return got


@pytest.mark.parametrize("kind", ["pandas", "arrow", "none"])
def test_keyed_exchange_paths_agree(ray_session, monkeypatch, kind):
    fn = _fns()[kind]
    shuffled = _exchange_result(monkeypatch, SHUFFLE, 200, fn)
    local = _exchange_result(monkeypatch, IN_PROCESS, 200, fn)
    assert len(local) > 0
    pd.testing.assert_frame_equal(local, shuffled[local.columns])
    if kind == "none":
        assert len(local) < 13  # some partitions really returned None


def test_keyed_exchange_paths_agree_on_empty_input(ray_session, monkeypatch):
    fn = _fns()["pandas"]
    shuffled = _exchange_result(monkeypatch, SHUFFLE, 0, fn)
    local = _exchange_result(monkeypatch, IN_PROCESS, 0, fn)
    assert len(shuffled) == len(local) == 0
    assert list(shuffled.columns) == list(local.columns) == []


def test_kg_shards_byte_identical_across_paths(
    ray_session, tiny_fixture, tmp_path, monkeypatch
):
    """The node/edge shard files written from the combine are the same
    bytes whichever path the exchange takes."""
    from biomedical_ner_ray.pipelines.kg import run_kg_pipeline

    shards = {}
    for name, threshold in (("shuffle", SHUFFLE), ("in_process", IN_PROCESS)):
        _force(monkeypatch, threshold)
        out = str(tmp_path / name)
        res = run_kg_pipeline(
            tiny_fixture["transcripts"], tiny_fixture["alias_dict"], out
        )
        assert res["nodes"]["rows"] > 0 and res["edges"]["rows"] > 0
        shards[name] = {
            os.path.relpath(f, out): open(f, "rb").read()
            for stage in ("nodes", "edges")
            for f in sorted(glob.glob(os.path.join(out, stage, "part-*.parquet")))
        }
    assert len(shards["shuffle"]) == 16  # 8 shards per table at this scale
    assert shards["shuffle"] == shards["in_process"]


def _shards(out_dir: str) -> dict:
    return {
        os.path.basename(f): open(f, "rb").read()
        for f in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))
    }


@pytest.mark.parametrize("threshold", [SHUFFLE, IN_PROCESS], ids=["shuffle", "in_process"])
def test_edges_shards_at_wide_partition_counts(ray_session, tmp_path, monkeypatch,
                                               threshold):
    """The edges plan written at 8, 64 and 512 partitions on a forced
    path: the shards' union is table-equal to the 8-wide build, every
    key sits in shard ``hash(keys) % P``, and each shard file has the
    bytes the other path writes."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from biomedical_ner_ray.stages.exchange import sharded_sorted_write
    from biomedical_ner_ray.stages.graph import EDGE_KEYS, edges_plan

    rng = np.random.RandomState(0)
    cuis = [f"C{i:07d}" for i in range(300)]
    n = 6000
    df = pd.DataFrame({
        "subj_cui": rng.choice(cuis, n),
        "pred": rng.choice(["binds", "co_occurs_with", "expressed_in"], n),
        "obj_cui": rng.choice(cuis, n),
    })
    # canonical components merge every third CUI into one
    comp_ref = ray.put({c: cuis[i - i % 3] for i, c in enumerate(cuis)})

    def build(P: int, thr: int) -> str:
        out = str(tmp_path / f"{thr}-{P}")
        if not os.path.isdir(out):
            _force(monkeypatch, thr)
            os.makedirs(out)
            sharded_sorted_write(
                *edges_plan(lambda: rd.from_pandas(df), comp_ref), out, P
            )
        return out

    def union(out: str) -> pa.Table:
        t = pa.concat_tables(pq.read_table(f) for f in glob.glob(f"{out}/part-*.parquet"))
        return t.sort_by([(k, "ascending") for k in EDGE_KEYS])

    base = union(build(8, IN_PROCESS))
    assert base.num_rows > 1000
    for P in (8, 64, 512):
        out = build(P, threshold)
        assert union(out).equals(base), P
        for name, blob in _shards(out).items():
            shard = pq.read_table(pa.BufferReader(blob)).to_pandas()
            h = pd.util.hash_pandas_object(shard[EDGE_KEYS], index=False) % P
            assert (h == int(name[5:10])).all(), (P, name)
        if threshold == SHUFFLE:
            assert _shards(out) == _shards(build(P, IN_PROCESS)), P


def _join_sides(case: str):
    """(left, right) Arrow tables for one keyed_join case; the left key
    is ``k``, the right key ``rk``."""
    big = 2**60 + 1  # exact only if the payload never passes through float64
    left = pa.table({
        "k": pa.array([1, 1, 2, 3, 5, 8], pa.int64()),
        "lv": pa.array([10, 11, big, 13, 14, 15], pa.int64()),
        "ls": ["a", "b", "c", "d", "e", "f"],
    })
    right = pa.table({
        "rk": pa.array([1, 1, 1, 2, 4, 8], pa.int64()),
        "rv": ["x", "y", "z", "w", "v", "u"],
    })
    if case == "empty_left":
        left = left.slice(0, 0)
    elif case == "empty_right":
        right = right.slice(0, 0)
    elif case == "null_keys":
        left = left.set_column(0, "k", pa.array([1, None, 2, None, 5, 8], pa.int64()))
        right = right.set_column(0, "rk", pa.array([1, None, 1, 2, None, 8], pa.int64()))
    elif case == "int32_left_int64_right":
        left = left.set_column(0, "k", pa.array([-1, -1, 2, -7, 5, -300000], pa.int32()))
        right = right.set_column(0, "rk", pa.array([-1, -7, 5, 2, -2, -300000], pa.int64()))
    return left, right


_JOIN_SQL = {
    "inner": "SELECT l.*, r.rv FROM l JOIN r ON l.k = r.rk",
    "left_anti": "SELECT * FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.rk = l.k)",
}


@pytest.mark.parametrize("threshold", [SHUFFLE, IN_PROCESS], ids=["shuffle", "in_process"])
@pytest.mark.parametrize("how", ["inner", "left_anti"])
@pytest.mark.parametrize(
    "case",
    ["many_to_many", "empty_left", "empty_right", "null_keys", "int32_left_int64_right"],
)
def test_keyed_join_equals_duckdb(ray_session, monkeypatch, threshold, how, case):
    """keyed_join on either exchange path equals DuckDB's join of the
    same tables: many-to-many keys, keys on one side only, an empty
    side, null keys (which never match) and an int32 key joined to an
    int64 key (hashed under one dtype, or equal keys land apart). The
    result keeps the left columns' Arrow types, right payload after,
    also when it has no rows."""
    import duckdb
    import ray.data as rd

    from biomedical_ner_ray.stages.exchange import keyed_join

    _force(monkeypatch, threshold)
    l, r = _join_sides(case)
    # materialized, so schema() reads block metadata instead of running
    # the plan a second time and cancelling it after the first block
    out = keyed_join(rd.from_arrow(l), rd.from_arrow(r), "k", how, right_on="rk",
                     num_partitions=4).materialize()
    got = out.to_pandas()
    con = duckdb.connect()
    con.register("l", l)
    con.register("r", r)
    want = con.execute(_JOIN_SQL[how]).arrow()
    assert len(got) == want.num_rows
    # an empty result keeps its columns too
    assert out.schema().names == want.column_names
    assert out.schema().types == l.schema.types + ([pa.string()] if how == "inner" else [])
    if want.num_rows == 0:
        return
    cols = want.column_names
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols, ignore_index=True),
        want.to_pandas().sort_values(cols, ignore_index=True),
        check_dtype=False,
    )


def test_no_second_shuffle_mechanism():
    """Every join and aggregate runs on ``keyed_exchange``. Ray's
    hash-shuffle backend (a ``DataContext`` shuffle-strategy flip, used
    by ``Dataset.join``) did not complete a join in 240 s at Ray
    ``num_cpus=1`` — its aggregator actors held the only CPU while no
    read task ran — so the package must not bring it back."""
    import re

    import biomedical_ner_ray

    root = os.path.dirname(biomedical_ner_ray.__file__)
    banned = re.compile(r"ShuffleStrategy|hash_shuffle|join_type=")
    hits = []
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                for i, line in enumerate(open(path, encoding="utf-8"), 1):
                    if banned.search(line):
                        hits.append(f"{os.path.relpath(path, root)}:{i}: {line.strip()}")
    assert not hits, "\n".join(hits)


def test_one_minhash_pair_detector():
    """``incremental_minhash_pairs`` is the one MinHash pair detector:
    it is the path the ingest benchmark runs, so a second detector
    (the shingle-payload band exchange or the per-bucket pair loop it
    replaced) would be a copy no benchmark watches."""
    import re

    import biomedical_ner_ray

    root = os.path.dirname(biomedical_ner_ray.__file__)
    banned = re.compile(
        r"minhash_pairs_join|_minhash_band_rows|_verify_minhash_buckets"
        r"|\b_bucket_pairs\b|(^|[^_a-z])minhash_pairs\b"
    )
    hits = []
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                for i, line in enumerate(open(path, encoding="utf-8"), 1):
                    if banned.search(line):
                        hits.append(f"{os.path.relpath(path, root)}:{i}: {line.strip()}")
    assert not hits, "\n".join(hits)
