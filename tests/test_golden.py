"""Golden hand-written transcripts with expected mentions and triples —
the reference's own test idiom (JNLPBA.ipynb cell 80: 8 hand-labeled
sentences with expected tags) promoted to the KG surface."""

import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from biomedical_ner_ray.fixtures import alias_rows
from biomedical_ner_ray.kernels.tagger import AliasDict
from biomedical_ner_ray.stages.annotate import annotate_stage

GOLDEN = [
    # (text, expected [(mention_text, type)], expected [(subj, pred, obj)])
    (
        "Mutations in the BRCA1 gene are associated with breast cancer.",
        [("BRCA1 gene", "DNA"), ("breast cancer", "Disease")],
        [("C0000001", "associated_with", "C0000050")],
    ),
    (
        "p53 binds to the TP53 gene promoter in HeLa cells.",
        [("p53", "protein"), ("TP53 gene", "DNA"), ("HeLa cells", "cell_line")],
        [
            ("C0000020", "binds", "C0000003"),
            ("C0000020", "expressed_in", "C0000030"),
            ("C0000003", "expressed_in", "C0000030"),
        ],
    ),
    (
        # longest-match: "HeLa cells" must win over "HeLa"; lowercase alias
        "we detected interleukin-2 in hela cells",
        [("interleukin-2", "protein"), ("hela cells", "cell_line")],
        [("C0000022", "expressed_in", "C0000030")],
    ),
    (
        # hyphenated tokens through the app regex
        "NF-kappa B and TNF-alpha mRNA were measured.",
        [("NF-kappa B", "protein"), ("TNF-alpha mRNA", "RNA")],
        [("C0000021", "binds", "C0000011")],
    ),
    (
        # no mentions at all
        "The meeting is at 10 30 tomorrow, room 204.",
        [],
        [],
    ),
    (
        # same CUI twice -> no self-triple
        "IL-2 activates IL-2 signalling.",
        [("IL-2", "protein"), ("IL-2", "protein")],
        [],
    ),
]


def test_golden_transcripts(ray_session):
    rows = [
        {"conv_id": "g", "turn_idx": i, "text": text}
        for i, (text, _, _) in enumerate(GOLDEN)
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    ref = ray.put(AliasDict(alias_rows()))
    out = (
        annotate_stage(ds, ref, batch_size=16, scorer="dict")
        .to_pandas()
        .sort_values("turn_idx")
        .reset_index(drop=True)
    )
    for i, (text, exp_mentions, exp_triples) in enumerate(GOLDEN):
        got_m = [(m["text"], m["type"]) for m in out.loc[i, "mentions"]]
        assert got_m == exp_mentions, f"turn {i}: {got_m} != {exp_mentions}"
        got_t = [
            (t["subj_cui"], t["pred"], t["obj_cui"]) for t in out.loc[i, "triples"]
        ]
        assert got_t == exp_triples, f"turn {i}: {got_t} != {exp_triples}"
