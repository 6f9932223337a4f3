"""Graph-depth operators: k-core peeling (queries.part_kcore),
neighborhood-Jaccard link prediction (queries.part_neighbor_jaccard),
and KG edge temporal provenance (queries.kg_edge_provenance)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from biomedical_ner_ray import queries as Q


def _write_lineitem(tmp_path, edges):
    """One synthetic order per undirected edge (the test_triangles
    encoding): the co-purchase graph of this table IS the edge list."""
    rows = {"l_orderkey": [], "l_partkey": []}
    for ok, (u, v) in enumerate(edges):
        rows["l_orderkey"] += [ok, ok]
        rows["l_partkey"] += [u, v]
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(rows["l_orderkey"], pa.int64()),
                "l_partkey": pa.array(rows["l_partkey"], pa.int64()),
            }
        ),
        os.path.join(tmp_path, "lineitem.parquet"),
    )
    return str(tmp_path)


def _peel(edges, k):
    """Brute-force k-core: peel to fixpoint, return ({node: degree}, rounds)."""
    uu = np.array([e[0] for e in edges], dtype=np.int64)
    vv = np.array([e[1] for e in edges], dtype=np.int64)
    rounds = 0
    while True:
        if not len(uu):
            return {}, rounds
        nodes, cnt = np.unique(np.concatenate([uu, vv]), return_counts=True)
        alive = nodes[cnt >= k]
        rounds += 1
        if len(alive) == len(nodes):
            return dict(zip(nodes.tolist(), cnt.tolist())), rounds
        m = np.isin(uu, alive) & np.isin(vv, alive)
        uu, vv = uu[m], vv[m]


def test_kcore_planted_exact(ray_session, tmp_path, monkeypatch):
    """A 6-clique survives k=3 peeling; a pendant chain hanging off it
    (each link degree <= 2) must cascade away over multiple rounds."""
    clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    chain = [(5, 10), (10, 11), (11, 12), (12, 13)]
    sf = _write_lineitem(tmp_path, clique + chain)
    monkeypatch.setattr(Q, "KCORE_K", 3)
    expected, rounds = _peel(clique + chain, 3)
    assert rounds <= Q.KCORE_ROUNDS  # planted cascade fits the budget
    out = Q.part_kcore(sf)
    got = dict(zip(out["part_id"], out["core_degree"]))
    assert got == expected
    assert set(got) == set(range(6)) and all(v == 5 for v in got.values())


def test_kcore_fixpoint_within_rounds_sf001():
    """KCORE_ROUNDS must cover the real fixture's peeling fixpoint —
    i.e. the shipped constant yields the true k-core (every survivor's
    within-core degree >= K), not a truncated intermediate. Pure
    numpy/pandas replay of the co-purchase graph, no Ray."""
    li = pq.read_table(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"],
    ).to_pandas()
    d = li.drop_duplicates()
    m = d.merge(d, on="l_orderkey")
    m = m[m["l_partkey_x"] < m["l_partkey_y"]]
    edges = list(
        {(int(a), int(b)) for a, b in zip(m["l_partkey_x"], m["l_partkey_y"])}
    )
    core, rounds = _peel(edges, Q.KCORE_K)
    assert rounds <= Q.KCORE_ROUNDS
    assert all(v >= Q.KCORE_K for v in core.values())


def test_neighbor_jaccard_planted_exact(ray_session, tmp_path, monkeypatch):
    """Sampling off, gates open: wedge-join common/union counts must
    equal brute-force neighbor-set arithmetic on a planted graph with a
    hub (checks the Sigma-deg^2 path handles a skewed center)."""
    hub = [(100, i) for i in range(8)]
    ring = [(i, (i + 1) % 8) for i in range(8)]
    edges = hub + ring
    sf = _write_lineitem(tmp_path, edges)
    monkeypatch.setattr(Q, "TRI_SAMPLE_MOD", 1)
    monkeypatch.setattr(Q, "JACC_NB_MIN_COMMON", 1)
    monkeypatch.setattr(Q, "JACC_NB_NUM", 0)  # ratio gate always true
    out = Q.part_neighbor_jaccard(sf).to_pandas().sort_values(
        ["part_a", "part_b"]
    )
    # brute force
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    exp = []
    ns = sorted(nbrs)
    for i, a in enumerate(ns):
        for b in ns[i + 1 :]:
            cn = len(nbrs[a] & nbrs[b])
            if cn >= 1:
                exp.append((a, b, cn, len(nbrs[a] | nbrs[b])))
    exp = pd.DataFrame(
        exp, columns=["part_a", "part_b", "common_n", "union_n"]
    ).sort_values(["part_a", "part_b"])
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype("int64"),
        exp.reset_index(drop=True).astype("int64"),
    )


def test_edge_provenance_consistent_with_kg_edges(ray_session):
    """Provenance rows are kg_edges rows with lineage attached: same
    canonical edge set, same weights, and per-edge invariants
    1 <= n_convs <= weight, first_ts <= last_ts."""
    sf = "/root/testdata/sf0.001"
    prov = Q.kg_edge_provenance(sf).to_pandas()
    edges = Q.kg_edges(sf).to_pandas()
    k = ["subj_cui", "pred", "obj_cui"]
    merged = edges.merge(prov, on=k, how="outer", indicator=True)
    assert (merged["_merge"] == "both").all()
    assert (merged["weight_x"] == merged["weight_y"]).all()
    assert (prov["n_convs"] >= 1).all()
    assert (prov["n_convs"] <= prov["weight"]).all()
    assert (prov["first_ts"] <= prov["last_ts"]).all()


def test_cross_turn_edges_brute_force(ray_session):
    """Window join == literal per-conversation double loop over the
    linked mentions (subject strictly earlier, gap within the window),
    with canonical remap + self-loop drop + type-pair predicates."""
    from biomedical_ner_ray.kernels.relations import predicate_for
    from biomedical_ner_ray.oracle import canonical_components

    sf = "/root/testdata/sf0.001"
    lm = Q.kg_linked_mentions(sf).to_pandas()
    comp = canonical_components(Q._alias_rows(Q._fixture(sf)))
    counts = {}
    for _, conv in lm.groupby("conv_id"):
        rows = list(conv.itertuples())
        for a in rows:
            for b in rows:
                gap = b.turn_idx - a.turn_idx
                if not (1 <= gap <= Q.XTURN_WINDOW):
                    continue
                s, o = comp[a.cui], comp[b.cui]
                if s == o:
                    continue
                k = (s, predicate_for(a.type, b.type), o)
                counts[k] = counts.get(k, 0) + 1
    out = Q.kg_cross_turn_edges(sf).to_pandas()
    got = {
        (r.subj_cui, r.pred, r.obj_cui): r.weight for r in out.itertuples()
    }
    assert got == counts


def test_kg_update_edges_equals_recompute(ray_session):
    """The delta upsert over the persisted base buckets must equal the
    full-corpus recompute (kg_edges), the split must be a real
    partition (both shards non-empty), and every persisted bucket file
    must hold only its own bucket's edges (the touched-bucket read
    soundness condition)."""
    sf = "/root/testdata/sf0.001"
    upd = Q.kg_update_edges(sf).to_pandas()
    full = Q.kg_edges(sf).to_pandas()
    k = ["subj_cui", "pred", "obj_cui"]
    m = full.merge(upd, on=k, how="outer", indicator=True, suffixes=("_f", "_u"))
    assert (m["_merge"] == "both").all()
    assert (m["weight_f"] == m["weight_u"]).all()

    # split is a real partition at this scale
    base_ann, _ = Q._kg_split_annotations(sf, delta=False)
    delta_ann, _ = Q._kg_split_annotations(sf, delta=True)
    nb, nd = base_ann.count(), delta_ann.count()
    assert nb > 0 and nd > 0

    # bucket soundness: each persisted file holds only its bucket
    from biomedical_ner_ray.state.manifest import list_parquet_files

    base_dir = Q._kg_base_edges_cache(sf)
    for f in list_parquet_files(base_dir):
        b = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        df = pq.read_table(f).to_pandas()
        got = Q._with_edge_bucket(df[["subj_cui", "pred", "obj_cui"]])
        assert (got["edge_bucket"] == b).all()


def test_node_provenance_consistent_with_kg_nodes(ray_session):
    """Node lineage rows are kg_nodes rows with lineage attached: same
    canonical node set and mention counts; per-node invariants."""
    sf = "/root/testdata/sf0.001"
    prov = Q.kg_node_provenance(sf).to_pandas()
    nodes = Q.kg_nodes(sf).to_pandas()
    m = nodes.merge(prov, on="cui", how="outer", indicator=True)
    assert (m["_merge"] == "both").all()
    assert (m["mention_count_x"] == m["mention_count_y"]).all()
    assert (prov["n_convs"] >= 1).all()
    assert (prov["n_convs"] <= prov["mention_count"]).all()
    assert (prov["first_ts"] <= prov["last_ts"]).all()


def test_annotation_cache_carries_each_turns_ts(ray_session, tiny_fixture):
    """Every annotation-cache row is one input turn and carries that
    turn's own timestamp as epoch-µs ``ts_us``, also where a text
    recurs at a different time (annotate tags each distinct text once,
    so a value taken per text would be wrong there)."""
    from biomedical_ner_ray.state.manifest import list_parquet_files

    ann_dir, _ = Q._annotations_cache(tiny_fixture["dir"])
    cached = pq.read_table(
        list_parquet_files(ann_dir), columns=["conv_id", "turn_idx", "ts_us"]
    ).to_pandas()
    turns = pq.read_table(
        list_parquet_files(tiny_fixture["transcripts"]),
        columns=["conv_id", "turn_idx", "text", "ts"],
    ).to_pandas()
    turns["ts_us"] = turns["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
    m = turns.merge(cached, on=["conv_id", "turn_idx"], how="outer", indicator=True)
    assert len(cached) == len(turns)
    assert (m["_merge"] == "both").all()
    assert (m["ts_us_x"] == m["ts_us_y"]).all()
    # load-bearing: some text recurs with different timestamps
    assert (turns.groupby("text")["ts_us"].nunique() > 1).any()


def test_corpus_minmax_from_footers(tmp_path, monkeypatch):
    """``_corpus_minmax_us`` reads the cache's ``ts_us`` row-group
    statistics: a row group of only nulls is skipped, and one with
    values but no statistics raises."""
    cache = tmp_path / "cache"
    cache.mkdir()
    ts = pa.array([None, None, 9, 5, 1, None], pa.int64())
    pq.write_table(pa.table({"x": range(6), "ts_us": ts}), cache / "a.parquet",
                   row_group_size=2)
    monkeypatch.setattr(Q, "_annotations_cache", lambda sf: (str(cache), []))
    assert Q._corpus_minmax_us("unused") == (1, 9)

    pq.write_table(pa.table({"ts_us": pa.array([3], pa.int64())}),
                   cache / "b.parquet", write_statistics=False)
    with pytest.raises(ValueError, match="no ts_us min/max statistics"):
        Q._corpus_minmax_us("unused")


def test_temporal_queries_join_no_timestamps():
    """The six temporal-KG queries read each turn's ts from the
    annotation cache (``_turn_partials``): none reads the transcripts
    or runs a turn-keyed exchange."""
    import inspect

    for q in (
        Q.kg_edge_provenance,
        Q.kg_node_provenance,
        Q.kg_snapshot_edges,
        Q.kg_edge_churn,
        Q.kg_decay_edges,
        Q.kg_edge_activity_intervals,
    ):
        src = inspect.getsource(q)
        assert "_turn_partials(sf_dir" in src, q.__name__
        assert "_transcripts_ds" not in src, q.__name__
        assert '["conv_id", "turn_idx"]' not in src, q.__name__


def test_ktruss_planted_exact(ray_session, tmp_path, monkeypatch):
    """4-truss on a planted graph: a 4-clique (every edge in 2
    triangles) survives; a triangle glued to it by one shared vertex
    (support 1 per edge) must peel away, cascading its shared edges."""
    clique = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pendant_tri = [(3, 10), (3, 11), (10, 11)]
    sf = _write_lineitem(tmp_path, clique + pendant_tri)
    monkeypatch.setattr(Q, "TRI_SAMPLE_MOD", 1)
    out = Q.part_ktruss(sf).to_pandas().sort_values(["part_u", "part_v"])
    got = {(r.part_u, r.part_v): r.support for r in out.itertuples()}
    assert got == {(u, v): 2 for (u, v) in clique}


def test_ktruss_fixpoint_within_rounds():
    """KTRUSS_ROUNDS covers the real sampled graph's peeling fixpoint at
    sf0.001 (every survivor's support within the survivor set >= K-2).
    Pure-python replay, no Ray."""
    from collections import defaultdict

    from biomedical_ner_ray.kernels.hashing import stable_u64_md5

    li = pq.read_table(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"],
    ).to_pandas()
    d = li.drop_duplicates()
    m = d.merge(d, on="l_orderkey")
    m = m[m["l_partkey_x"] < m["l_partkey_y"]]
    edges = {
        (int(a), int(b))
        for a, b in zip(m["l_partkey_x"], m["l_partkey_y"])
        if stable_u64_md5(f"tri:{a}:{b}".encode()) % Q.TRI_SAMPLE_MOD == 0
    }
    thr = Q.KTRUSS_K - 2
    cur, rounds = set(edges), 0
    while True:
        adj = defaultdict(set)
        for u, v in cur:
            adj[u].add(v)
            adj[v].add(u)
        nxt = {(u, v) for u, v in cur if len(adj[u] & adj[v]) >= thr}
        rounds += 1
        if nxt == cur or not nxt:
            break
        cur = nxt
    assert rounds <= Q.KTRUSS_ROUNDS
    for u, v in cur:
        adj = defaultdict(set)
        for x, y in cur:
            adj[x].add(y)
            adj[y].add(x)
        assert len(adj[u] & adj[v]) >= thr
