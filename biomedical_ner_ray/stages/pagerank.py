"""Bounded-iteration PageRank over a co-occurrence graph — the
iterative-graph-algorithm slot of the engine (alongside the
connected-components propagation in ``canonicalize.py``).

ALL-INTEGER fixed-point arithmetic: ranks live in millionths
(``SCALE`` = 10^6), per-edge contributions are floor divisions
(``rank // out_degree``), and the damping update is
``150000 + (85 * incoming) // 100``. Integer sums are associative and
commutative REGARDLESS of partitioning or summation order, so the
distributed result is bit-identical to the driver path and to the SQL
oracle — no float-reduction nondeterminism anywhere.

Distributed shape — PIN EDGES, MOVE RANKS:
- setup (once): a src-keyed exchange co-locates and globally dedups
  each src's edge rows (duplicates of a pair share the src key, so the
  per-partition drop_duplicates IS the global distinct), attaches the
  out-degree per row, and MATERIALIZES the partitions. The edge set —
  the O(E) payload — never moves again.
- per iteration: the rank table (O(N) rows, N = nodes ≪ E) is
  broadcast via ``ray.put``; a LOCAL ``map_batches`` over the pinned
  edge blocks computes floor contributions and pre-sums them per dst
  WITHIN the block; the ≤ P·N partial rows combine on the driver into
  the next rank table. Zero per-iteration shuffle.

An earlier formulation re-exchanged the edge stream twice per
iteration (label-union pattern as in canonicalize._half_round) — 2–3×
slower at sf0.1 and O(E·iterations) shuffle at scale. Bounds of this
one: the rank broadcast holds to ~10⁷ nodes (the engine's
broadcast-small standard, SCALE.md §7) and the driver combine to
P·N partial rows; past ``PR_BROADCAST_LIMIT`` the EXCHANGE tier
(``_pagerank_exchange_tier``, built in r5) takes over — pinned per-pid
edge handoff + pid-aligned O(N) rank exchange, zero node-dimension
driver state, still never re-shuffling the edges — and the integer
arithmetic guarantees bit-identical results on every tier
(tests/test_scale_fallbacks.py::test_pagerank_exchange_tier).

Adaptive: a graph at or under ``small_graph_threshold`` edges runs on
the driver (same integers, same result), matching the engine's
broadcast-small standard (stages/canonicalize.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import keyed_exchange

SCALE = 1_000_000
DAMP_NUM, DAMP_DEN = 85, 100
BASE = SCALE * (DAMP_DEN - DAMP_NUM) // DAMP_DEN  # 150000


def _pin_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Per complete src partition: global dedup (duplicates of a pair
    share the src key) + out-degree attached per row, so downstream
    batch splitting can never miscount degrees."""
    e = df.drop_duplicates()
    deg = e.groupby("src", sort=False)["src"].transform("size").astype("int64")
    return e.assign(deg=deg)


# Node-dimension budget for the per-iteration rank broadcast + driver
# combine (the queries.LP_BROADCAST_LIMIT standard): past it the
# EXCHANGE tier runs — pinned per-pid edge handoff + pid-aligned rank
# exchange, zero driver state (see _pagerank_exchange_tier).
PR_BROADCAST_LIMIT = 5_000_000


def pagerank_int(
    edges_ds,
    iterations: int = 3,
    num_partitions: int = 8,
    small_graph_threshold: int = 200_000,
    broadcast_limit: int = PR_BROADCAST_LIMIT,
):
    """edges_ds: Dataset with int64 (src, dst) columns — directed
    pairs, duplicates allowed (deduped inside the src-keyed exchange).

    HARD PRECONDITION: the edge set must be SYMMETRIC (every (a, b)
    has its (b, a) — a co-occurrence graph is symmetric by
    construction). Symmetry implies every source also has in-edges, so
    all three formulations (this driver path, the distributed path, the
    unrolled SQL oracle with its inner join on the previous rank table)
    provably agree. On merely out-degree-≥-1 graphs the oracle would
    DROP sources with no in-edges while both engine paths rank them at
    SCALE — the engine paths agree with each other (missing ranks fill
    with SCALE below), but not with the oracle.

    Returns a Dataset of (node, pr_score) in millionths."""
    import ray.data as rd

    edges = edges_ds.select_columns(["src", "dst"]).materialize()

    if edges.count() <= small_graph_threshold:
        e = edges.to_pandas().drop_duplicates()
        deg = e.groupby("src")["src"].transform("size").astype("int64")
        r = pd.Series(SCALE, index=pd.unique(e["src"]), dtype="int64")
        for _ in range(iterations):
            # reindex with fill_value=SCALE: identical to the distributed
            # path's fillna(SCALE) merge — a source with no in-edges
            # (absent from r after round 1) contributes at SCALE instead
            # of raising. On symmetric graphs (the precondition) the fill
            # never fires; this only keeps the two engine paths aligned.
            contrib = (
                r.reindex(e["src"], fill_value=SCALE).to_numpy() // deg.to_numpy()
            )
            s = pd.Series(contrib).groupby(e["dst"].to_numpy()).sum()
            r = (BASE + (DAMP_NUM * s) // DAMP_DEN).astype("int64")
        out = pd.DataFrame(
            {"node": r.index.astype("int64"), "pr_score": r.to_numpy()}
        ).sort_values("node", ignore_index=True)
        return rd.from_pandas(out)

    if 2 * edges.count() > broadcast_limit:
        return _pagerank_exchange_tier(edges, iterations, num_partitions)

    import ray

    from ..state.broadcast import resolve

    pinned = keyed_exchange(
        edges, ["src"], _pin_partition, num_partitions
    ).materialize()

    ranks: pd.DataFrame | None = None  # None => every node at SCALE
    for _ in range(iterations):
        rref = ray.put(ranks) if ranks is not None else None

        def partial(e: pd.DataFrame, _r=rref) -> pd.DataFrame:
            if _r is None:
                rank = pd.Series(
                    np.full(len(e), SCALE, dtype=np.int64), index=e.index
                )
            else:
                r = resolve(_r)
                m = e[["src"]].merge(r, left_on="src", right_on="node", how="left")
                rank = m["r"].fillna(SCALE).astype("int64")
            contrib = rank.to_numpy() // e["deg"].to_numpy()
            return (
                pd.DataFrame({"node": e["dst"].to_numpy(), "contrib": contrib})
                .groupby("node", as_index=False)["contrib"]
                .sum()
            )

        partials = pinned.map_batches(partial, batch_format="pandas").to_pandas()
        s = partials.groupby("node", as_index=False)["contrib"].sum()
        ranks = pd.DataFrame(
            {
                "node": s["node"].astype("int64"),
                "r": (BASE + (DAMP_NUM * s["contrib"]) // DAMP_DEN).astype("int64"),
            }
        )

    out = ranks.rename(columns={"r": "pr_score"}).sort_values(
        "node", ignore_index=True
    )
    return rd.from_pandas(out)


def _pagerank_exchange_tier(edges, iterations: int, P: int):
    """Exchange tier (the docstring's promised scale-out path, built):
    NO per-iteration rank broadcast, NO driver combine — zero
    node-dimension driver state.

    Setup (once): the src-keyed pin exchange additionally WRITES each
    co-located partition as one parquet file keyed by its partition id
    (``pid = hash(src) % P`` — the keyed_exchange hash itself), a
    worker-side handoff the iterations re-read instead of re-shuffling
    the edge set. Its (pid, rows) summary lists the files: a listed
    pid whose file is missing when an iteration reads it raises.

    Per iteration: the O(N) rank table rides ONE node-keyed exchange
    with the SAME hash/partition count, so each rank partition lands
    exactly where its sources' pinned edges live; the combine re-reads
    that pid's edge file (node-local at scale), merges ranks onto
    sources (fillna SCALE — fires only on asymmetric inputs, outside
    the documented precondition), and emits per-partition pre-summed
    (dst, contrib) rows; a second dst-keyed exchange sums and applies
    the damping. Integer sums are order-independent, so the result is
    bit-identical to the broadcast tier and the driver path
    (tests/test_scale_fallbacks.py::test_pagerank_exchange_tier).

    Iteration 0 needs no rank table (every node starts at SCALE): the
    contributions stream straight off the handoff files."""
    import os
    import tempfile

    import ray.data as rd

    from ..state.manifest import sweep_stale_handoffs

    work = sweep_stale_handoffs(
        os.path.join(tempfile.gettempdir(), "graft_pagerank_pin")
    )
    os.makedirs(work, exist_ok=True)

    def pin_write(df: pd.DataFrame) -> pd.DataFrame:
        e = _pin_partition(df)
        # int() BEFORE the mod: a numpy uint64 scalar % python int
        # silently round-trips through float64 and mangles the value
        pid = int(
            pd.util.hash_pandas_object(e[["src"]].iloc[:1], index=False).iloc[0]
        ) % P
        e.to_parquet(os.path.join(work, f"pid={pid}.parquet"), index=False)
        return pd.DataFrame({"pid": [pid], "rows": [len(e)]})

    # the pin pass's (pid, rows) summary is the handoff's manifest: a
    # listed pid whose file is gone (another node's disk, a sweep) is an
    # error, never "no edges"
    pinned = keyed_exchange(edges, ["src"], pin_write, P).to_pandas()
    pin_rows = (
        dict(zip(pinned["pid"].tolist(), pinned["rows"].tolist()))
        if len(pinned)
        else {}
    )

    def pin_edges(pid: int) -> pd.DataFrame:
        path = os.path.join(work, f"pid={pid}.parquet")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"pagerank pin file of partition {pid} is missing: {path} "
                f"(the pin pass wrote {pin_rows[pid]} edge rows there)"
            )
        return pd.read_parquet(path)

    def damp(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("node", as_index=False)["contrib"].sum()
        return pd.DataFrame(
            {
                "node": s["node"].astype("int64"),
                "r": (BASE + (DAMP_NUM * s["contrib"]) // DAMP_DEN).astype(
                    "int64"
                ),
            }
        )

    def first_contribs(pid_df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for pid in pid_df["pid"]:
            e = pin_edges(int(pid))
            contrib = np.full(len(e), SCALE, dtype=np.int64) // e["deg"].to_numpy()
            outs.append(
                pd.DataFrame({"node": e["dst"].to_numpy(), "contrib": contrib})
                .groupby("node", as_index=False)["contrib"]
                .sum()
            )
        return (
            pd.concat(outs, ignore_index=True)
            if outs
            else pd.DataFrame({"node": pd.Series(dtype="int64"),
                               "contrib": pd.Series(dtype="int64")})
        )

    def attach_contribs(rdf: pd.DataFrame) -> pd.DataFrame:
        pid = int(
            pd.util.hash_pandas_object(rdf[["node"]].iloc[:1], index=False).iloc[0]
        ) % P
        if pid not in pin_rows:  # pid with ranks but no edges
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "contrib": pd.Series(dtype="int64")})
        e = pin_edges(pid)
        m = e[["src"]].merge(rdf, left_on="src", right_on="node", how="left")
        rank = m["r"].fillna(SCALE).astype("int64")
        contrib = rank.to_numpy() // e["deg"].to_numpy()
        return (
            pd.DataFrame({"node": e["dst"].to_numpy(), "contrib": contrib})
            .groupby("node", as_index=False)["contrib"]
            .sum()
        )

    import shutil

    ranks = None
    try:
        for it in range(iterations):
            if ranks is None:
                contribs = (
                    rd.from_pandas(pd.DataFrame({"pid": sorted(pin_rows)}))
                    .repartition(max(len(pin_rows), 1))  # one task per pid file
                    .map_batches(first_contribs, batch_format="pandas")
                )
            else:
                contribs = keyed_exchange(ranks, ["node"], attach_contribs, P)
            ranks = keyed_exchange(contribs, ["node"], damp, P).materialize()
    finally:
        # The final ranks are materialized and the trailing rename never
        # touches the pin files, so the O(|E|) handoff is dead weight —
        # remove it now instead of leaning on the 6h TTL sweep. Caveat
        # (multi-node): losing a materialized rank block after this
        # point would send Ray's lineage reconstruction through
        # attach_contribs against the deleted files; a run that needs
        # object-loss tolerance should persist the result to parquet
        # before discarding the handoff.
        shutil.rmtree(work, ignore_errors=True)
    return ranks.map_batches(
        lambda df: df.rename(columns={"r": "pr_score"}), batch_format="pandas"
    )
