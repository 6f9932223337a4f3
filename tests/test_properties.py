"""Property-based tests (hypothesis) for the row-local kernels: these
guard the conformance-critical invariants under arbitrary inputs, not
just the fixture's planted cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from biomedical_ner_ray.fixtures import alias_rows
from biomedical_ner_ray.kernels.bio import extract_entities
from biomedical_ner_ray.kernels.markup import parse_annotated_text
from biomedical_ner_ray.kernels.tagger import AliasDict, tag_tokens
from biomedical_ner_ray.kernels.tokenize import MAX_SEQ_LEN, TOKEN_RE, tokenize_text

_AD = AliasDict(alias_rows())

text_st = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cc", "Cs")),
    max_size=400,
)
token_st = st.text(
    alphabet=st.characters(codec="ascii", min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)
types_st = st.sampled_from(["DNA", "RNA", "protein", "Disease", "cell_line"])


@st.composite
def bio_tags(draw):
    """Arbitrary (possibly invalid) BIO tag sequences."""
    n = draw(st.integers(0, 30))
    tags = []
    for _ in range(n):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            tags.append("O")
        else:
            tags.append(("B-" if kind == 1 else "I-") + draw(types_st))
    return tags


@given(text_st)
@settings(max_examples=200, deadline=None)
def test_tokenizer_covers_all_nonspace(text):
    """Every non-whitespace character lands in exactly one token, tokens
    appear in order, and tokenize_text == TOKEN_RE.findall."""
    toks = tokenize_text(text)
    assert toks == TOKEN_RE.findall(text)
    joined = "".join(toks)
    stripped = "".join(text.split())
    # tokens cover non-space chars (regex never drops word chars/punct)
    assert len(joined) <= len(stripped)
    for t in toks:
        assert t and not any(c.isspace() for c in t)


@given(bio_tags())
@settings(max_examples=300, deadline=None)
def test_bio_decoder_invariants(tags):
    """Spans are in-bounds, non-overlapping, ordered, typed like their
    tags, and orphan I- is promoted to a new entity (reference
    app.py:370-386 repair semantics)."""
    tokens = [f"t{i}" for i in range(len(tags))]
    ents = extract_entities(list(zip(tokens, tags)))
    prev_end = -1
    for e in ents:
        assert 0 <= e["start_position"] <= e["end_position"] < len(tags)
        assert e["start_position"] > prev_end
        prev_end = e["end_position"]
        assert tags[e["start_position"]][2:] == e["type"]
        assert e["tokens"] == tokens[e["start_position"] : e["end_position"] + 1]
    # every non-O tag belongs to exactly one decoded span
    covered = {
        i for e in ents for i in range(e["start_position"], e["end_position"] + 1)
    }
    assert covered == {i for i, t in enumerate(tags) if t != "O"}


@given(st.lists(token_st, max_size=40))
@settings(max_examples=150, deadline=None)
def test_tagger_outputs_valid_bio(tokens):
    """Dictionary tags are always BIO-valid and past-limit tokens are O."""
    tags = tag_tokens(tokens, _AD)
    assert len(tags) == len(tokens)
    prev = "O"
    for i, t in enumerate(tags):
        if t.startswith("I-"):
            assert prev in (f"B-{t[2:]}", f"I-{t[2:]}")
        if i >= MAX_SEQ_LEN:
            assert t == "O"
        prev = t


@given(st.lists(st.tuples(types_st, st.text(
    alphabet=st.characters(codec="ascii", min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=8)), max_size=6), text_st)
@settings(max_examples=150, deadline=None)
def test_markup_roundtrip(entities, filler):
    """Composing markup then parsing recovers exact mentions + offsets."""
    marked = filler
    for typ, mention in entities:
        marked += f'<category="{typ}">{mention}</category>' + filler
    clean, ents = parse_annotated_text(marked)
    assert len(ents) == len(entities)
    for (typ, mention), e in zip(entities, ents):
        assert e["type"] == typ and e["text"] == mention
        assert clean[e["start"] : e["end"]] == mention


@given(
    st.text(
        alphabet=st.sampled_from("ab x"),
        min_size=0,
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_winnowing_vectorized_matches_sequential(text):
    """The numpy window-min winnowing must reproduce the sequential
    Schleimer et al. loop exactly (picks AND order), including the
    first-min-in-window and idx != prev dedupe rules."""
    from biomedical_ner_ray.kernels.hashing import (
        stable_u64_md5,
        winnowing_fingerprint,
    )

    k, window = 8, 4

    def reference(s: str) -> list[int]:
        s = s.lower()
        if len(s) < k:
            return [stable_u64_md5(s.encode())] if s else []
        hs = [stable_u64_md5(s[i : i + k].encode()) for i in range(len(s) - k + 1)]
        picks, prev = [], -1
        for w in range(0, len(hs) - window + 1):
            sl = hs[w : w + window]
            m = min(sl)
            idx = w + sl.index(m)
            if idx != prev:
                picks.append(m)
                prev = idx
        return picks

    assert winnowing_fingerprint(text, hash_fn=stable_u64_md5) == reference(text)


@given(
    st.lists(
        st.text(alphabet=st.sampled_from("ab xé"), min_size=0, max_size=40),
        min_size=0,
        max_size=8,
    )
)
@settings(max_examples=150, deadline=None)
def test_winnowing_batch_matches_per_doc(texts):
    """The batch kernel (codepoint void-records + batch-wide distinct
    gram hashing) must emit exactly the per-doc distinct fingerprints of
    the sequential kernel, skipping texts shorter than k — including
    non-ASCII texts that take the chr-join gram path."""
    from biomedical_ner_ray.kernels.hashing import (
        stable_u64_md5,
        winnowing_fingerprint,
        winnowing_fingerprints_batch,
    )

    idx, fps = winnowing_fingerprints_batch(texts)
    got: dict[int, set[int]] = {}
    for i, fp in zip(idx.tolist(), fps.tolist()):
        got.setdefault(i, set()).add(fp)
    want = {
        i: set(winnowing_fingerprint(t, hash_fn=stable_u64_md5))
        for i, t in enumerate(texts)
        if len(t.lower()) >= 8
    }
    want = {i: s for i, s in want.items() if s}
    assert got == want


def _greedy_reference(tokens, ad: AliasDict) -> list[str]:
    """The tagger's greedy longest match as a plain scan that tries every
    length up to ``max_ngram`` at every position (no first-token index)."""
    limit = min(len(tokens), MAX_SEQ_LEN)
    tags = ["O"] * len(tokens)
    low = [t.lower() for t in tokens[:limit]]
    i = 0
    while i < limit:
        for n in range(min(ad.max_ngram, limit - i), 0, -1):
            entry = ad.lookup(" ".join(low[i : i + n]))
            if entry is not None:
                tags[i : i + n] = [f"B-{entry.type}"] + [f"I-{entry.type}"] * (n - 1)
                i += n
                break
        else:
            i += 1
    return tags


_VOCAB = ["a", "b", "c", "A", "B", "d", "İ", "Σ"]


@given(
    st.lists(st.tuples(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=6),
                       types_st), min_size=1, max_size=12),
    st.lists(st.sampled_from(_VOCAB + ["x"]), max_size=120),
)
@settings(max_examples=300, deadline=None)
def test_tagger_first_token_index_equals_full_scan(aliases, tokens):
    """Random dictionaries whose keys share first tokens, overlap, and run
    past MAX_NGRAM tokens: the first-token index tags exactly as the
    full scan does."""
    rows = [
        {"alias": " ".join(toks), "alias_key": " ".join(t.lower() for t in toks),
         "cui": f"C{i:03d}", "type": typ, "canonical_name": f"n{i}"}
        for i, (toks, typ) in enumerate(aliases)
    ]
    ad = AliasDict(rows)
    assert tag_tokens(tokens, ad) == _greedy_reference(tokens, ad)
