"""Near-dup cluster canonicalization (stages/dedup.minhash_clusters):
transitive chains collapse to one component-min representative even
when the endpoints are NOT directly similar."""

import pandas as pd
import ray.data as rd

from biomedical_ner_ray.stages.dedup import incremental_minhash_pairs, minhash_clusters

_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lam mu nu xi "
    "omicron pi rho sigma tau upsilon phi chi psi omega one two three four "
    "five six seven eight nine ten eleven twelve thirteen fourteen fifteen "
    "sixteen"
).split()
_BASE = " ".join(_WORDS)
# 0 ~ 1 and 1 ~ 2 (J ≈ 0.85 each) but 0 !~ 2 (J ≈ 0.73 < 4/5): a chain.
_D0 = " ".join(["x1", "x2", "x3"] + _WORDS[3:])
_D2 = " ".join(_WORDS[:-3] + ["y1", "y2", "y3"])
_ROWS = [
    {"doc_id": 0, "text": _D0},
    {"doc_id": 1, "text": _BASE},
    {"doc_id": 2, "text": _D2},
    {"doc_id": 3, "text": "totally unrelated content about maritime law"},
]


def _factory():
    return lambda: rd.from_pandas(pd.DataFrame(_ROWS))


def test_chain_is_one_cluster(ray_session):
    pairs = incremental_minhash_pairs(_factory(), None, num_partitions=2).to_pandas()
    found = {(a, b) for a, b in zip(pairs["doc_id_a"], pairs["doc_id_b"])}
    assert (0, 1) in found and (1, 2) in found
    assert (0, 2) not in found  # endpoints below threshold — true chain

    clusters = minhash_clusters(_factory(), num_partitions=2).to_pandas()
    got = dict(zip(clusters["doc_id"], clusters["cluster_rep"]))
    assert got == {0: 0, 1: 0, 2: 0}  # transitive closure, component-min rep


def test_unclustered_docs_absent(ray_session):
    clusters = minhash_clusters(_factory(), num_partitions=2).to_pandas()
    assert 3 not in set(clusters["doc_id"])
