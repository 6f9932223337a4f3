"""Dictionary NER tagger kernel.

The reference's learned BiLSTM-CRF scorer (``models/models.py:73-193``,
served by ``app.py:254-303``) fills the "assign a BIO tag per token" slot.
Our engine's deterministic stand-in is a greedy longest-match tagger over
a UMLS/MeSH-style alias dictionary (the ``north_star``'s entity-link
dictionary, SURVEY.md §2.4 J6): it produces exact, reproducible BIO tags
so correctness can be oracle-checked, while occupying the *same* stage
interface as a learned scorer (load-once state + per-batch calls,
reference ``app.py:121-208`` ``StreamlitNERPredictor``).

Matching semantics (shared verbatim by the oracle, the Ray actor stage,
and — via maximal-match SQL — the DuckDB oracle):

- tokens are lowercased for lookup (reference ``app.py:233`` lowercases
  before vocab lookup);
- only the first ``MAX_SEQ_LEN`` (=100) tokens are tagged (reference
  ``app.py:218-219`` truncation);
- greedy left-to-right, longest n-gram first (n ≤ ``max_ngram``);
- an alias key mapping to several CUIs resolves to the smallest CUI
  (deterministic top-1 link, exercised by the canonicalization tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from .tokenize import MAX_SEQ_LEN

MAX_NGRAM = 4


@dataclass(frozen=True)
class AliasEntry:
    cui: str
    type: str
    canonical_name: str
    surface: str  # original-case alias surface (space-joined tokens)


class AliasDict:
    """Broadcastable alias dictionary: alias_key -> resolved AliasEntry.

    ``alias_key`` is the space-join of the lowercased tokens of the alias
    surface (tokenized with the app regex), so lookups against token
    n-grams are plain string equality.
    """

    def __init__(self, rows: list[dict]):
        """rows: dicts with alias_key, alias, cui, type, canonical_name."""
        best: dict[str, AliasEntry] = {}
        by_key_all: dict[str, list[AliasEntry]] = {}
        max_n = 1
        for r in rows:
            e = AliasEntry(
                cui=r["cui"],
                type=r["type"],
                canonical_name=r["canonical_name"],
                surface=r["alias"],
            )
            k = r["alias_key"]
            by_key_all.setdefault(k, []).append(e)
            cur = best.get(k)
            if cur is None or e.cui < cur.cui:
                best[k] = e
            max_n = max(max_n, k.count(" ") + 1)
        self.by_key = best
        self.by_key_all = by_key_all
        self.max_ngram = min(max_n, MAX_NGRAM)
        # first token -> longest key length starting with it (capped at
        # max_ngram): a token that opens no key skips the n-gram joins,
        # and one that does tries only the lengths some key can have
        first: dict[str, int] = {}
        for k in best:
            n = min(k.count(" ") + 1, self.max_ngram)
            head = k.split(" ", 1)[0]
            if n > first.get(head, 0):
                first[head] = n
        self.first_ngram = first

    def lookup(self, key: str) -> AliasEntry | None:
        return self.by_key.get(key)


def tag_tokens(tokens: list[str], alias_dict: AliasDict) -> list[str]:
    """Greedy longest-match BIO tagging over the first MAX_SEQ_LEN tokens.

    Returns one tag per *input* token; tokens past MAX_SEQ_LEN get 'O'
    (reference app.py:218-219 drops them before the model ever sees them).
    """
    n_tok = len(tokens)
    limit = min(n_tok, MAX_SEQ_LEN)
    tags = ["O"] * n_tok
    lowered = [t.lower() for t in tokens[:limit]]
    first = alias_dict.first_ngram
    end = 0  # tokens before ``end`` are inside an earlier match
    # only a token that opens some key can start a match
    for i in [i for i, w in enumerate(lowered) if w in first]:
        if i < end:
            continue
        for n in range(min(first[lowered[i]], limit - i), 0, -1):
            entry = alias_dict.lookup(" ".join(lowered[i : i + n]))
            if entry is not None:
                tags[i] = f"B-{entry.type}"
                for j in range(i + 1, i + n):
                    tags[j] = f"I-{entry.type}"
                end = i + n
                break
    return tags
