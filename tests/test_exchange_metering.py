"""exchange_metering: the opt-in measured-volume counters must see the
rows entering a keyed exchange and the combined output, and must be a
no-op outside the scope. Both exchange paths (in-process and shuffle,
forced through ``BYTES_PER_PARTITION``) meter the same counts."""

import pandas as pd
import pytest

# -1: below every stream size, even an empty stream's 0 bytes
SHUFFLE, IN_PROCESS = -1, 1 << 40

DF = pd.DataFrame({"k": [1, 2, 3, 4] * 25, "v": range(100)})


def _combine_fn():
    # defined in a function body so Ray ships it by value (workers
    # cannot import this test module)
    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False)["v"].sum()

    return combine


def _metered(monkeypatch, threshold: int):
    import ray.data as rd

    from biomedical_ner_ray.stages import exchange

    monkeypatch.setattr(exchange, "BYTES_PER_PARTITION", threshold)
    with exchange.exchange_metering() as snapshot:
        out = exchange.keyed_exchange(
            rd.from_pandas(DF), ["k"], _combine_fn(), 4, label="t"
        ).to_pandas()
        counters = snapshot()
    return out, counters["t"]


@pytest.mark.parametrize(
    "threshold", [SHUFFLE, IN_PROCESS], ids=["shuffle", "in_process"]
)
def test_metering_counts_rows(ray_session, monkeypatch, threshold):
    import ray.data as rd

    from biomedical_ner_ray.stages.exchange import keyed_exchange

    out, counters = _metered(monkeypatch, threshold)
    assert len(out) == 4
    assert counters["rows_in"] == 100
    assert counters["rows_out"] == 4
    assert counters["bytes_in"] > 0
    assert counters["bytes_out"] > 0
    # the other path meters exactly the same rows and bytes
    _, other = _metered(monkeypatch, IN_PROCESS if threshold == SHUFFLE else SHUFFLE)
    assert counters == other

    # outside the scope: no meter, no counters, exchange still works
    out2 = keyed_exchange(rd.from_pandas(DF), ["k"], _combine_fn(), 4).to_pandas()
    assert len(out2) == 4
