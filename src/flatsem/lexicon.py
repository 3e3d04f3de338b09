"""Word categories and the five-sequence part-of-speech embedding.

Each input token maps to a small integer code.  Verbs are form-ambiguous
("liked" is a plain transitive, a passive participle, a clause-embedder and an
infinitive-taker all at once), so a word carries up to four verb codes in
fixed slots:

    slot 1  active/main form       (9, 11, 15, 16, 17, or 18)
    slot 2  passive participle     (10, 12, 19, 20)
    slot 3  clause-complement use  (13)
    slot 4  infinitive-taking use  (14)

``SLOT`` is that table, the one map from verb code to slot; a verb frame is
passive exactly when its licensing code sits in slot 2.  ``embed`` turns a
token list into five aligned sequences: the primary code plus the four
slots.  Later analyses test slots directly (e.g. "is this word usable as a
passive participle here?") instead of guessing a single tag.
Each word's row of five codes is worked out once, when the ``Lexicon`` is
built, so embedding is one lookup per token.

Every entry is a word an input sentence may hold.  A verb's output label
("sold" -> "sell") is the entry's stem; a stem that is no input word of its
own has no entry, so a sentence holding one raises ``LexiconError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

FILLER = 0
DET = 1
PP = 2
WAS = 3
BY = 4
TO = 5
THAT = 6
COMMON_NOUN = 7
PROPER_NOUN = 8
V_TRANS_OMISSIBLE = 9
V_TRANS_OMISSIBLE_PP = 10
V_TRANS_NOT_OMISSIBLE = 11
V_TRANS_NOT_OMISSIBLE_PP = 12
V_CP_TAKING = 13
V_INF_TAKING = 14
V_UNACC = 15
V_UNERG = 16
V_INF = 17
V_DAT = 18
V_DAT_PP = 19
V_UNACC_PP = 20
N_CODES = 21  # every code above lies in range(N_CODES)

CATEGORY_CODES = {
    "det": DET,
    "pp": PP,
    "was": WAS,
    "by": BY,
    "to": TO,
    "that": THAT,
    "common_noun": COMMON_NOUN,
    "proper_noun": PROPER_NOUN,
    "v_trans_omissible": V_TRANS_OMISSIBLE,
    "v_trans_omissible_pp": V_TRANS_OMISSIBLE_PP,
    "v_trans_not_omissible": V_TRANS_NOT_OMISSIBLE,
    "v_trans_not_omissible_pp": V_TRANS_NOT_OMISSIBLE_PP,
    "v_cp_taking": V_CP_TAKING,
    "v_inf_taking": V_INF_TAKING,
    "v_unacc": V_UNACC,
    "v_unerg": V_UNERG,
    "v_inf": V_INF,
    "v_dat": V_DAT,
    "v_dat_pp": V_DAT_PP,
    "v_unacc_pp": V_UNACC_PP,
}
CODE_CATEGORIES = {v: k for k, v in CATEGORY_CODES.items()}

# verb code -> embedding slot (1-4) that carries it
SLOT = {
    **dict.fromkeys((V_TRANS_OMISSIBLE, V_TRANS_NOT_OMISSIBLE, V_UNACC, V_UNERG, V_INF, V_DAT), 1),
    **dict.fromkeys((V_TRANS_OMISSIBLE_PP, V_TRANS_NOT_OMISSIBLE_PP, V_DAT_PP, V_UNACC_PP), 2),
    V_CP_TAKING: 3,
    V_INF_TAKING: 4,
}


class LexiconError(KeyError):
    """Unknown word: the parser halts rather than guess."""


@dataclass(frozen=True)
class Entry:
    codes: tuple[int, ...]
    stem: str  # equals the entry's word unless the output form is normalized


@dataclass
class Embedded:
    """Five aligned code sequences for one token list."""

    tokens: list[str]
    pos: list[int]
    vmap1: list[int]
    vmap2: list[int]
    vmap3: list[int]
    vmap4: list[int]

    def __len__(self) -> int:
        return len(self.tokens)


def _row(word: str, codes: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """A word's embedding row: the primary code, then the four verb slots.
    The encoder reads a word only through it, so codes it cannot all hold
    raise ``ValueError``."""
    slots = [0, 0, 0, 0]
    for c in codes:
        if c in SLOT:
            slots[SLOT[c] - 1] = c
    s1, s2, s3, s4 = slots
    row = (s1 or s2 or s3 or s4 or codes[0]), s1, s2, s3, s4
    if not set(codes) <= set(row):
        names = ",".join(CODE_CATEGORIES[c] for c in codes)
        raise ValueError(f"word {word!r}: its categories {names} do not fit one embedding row "
                         "(one non-verb category, one verb category per slot)")
    return row


class Lexicon:
    def __init__(self, entries: dict[str, Entry]):
        self.entries = entries
        by_cat: dict[str, list[str]] = {}
        for word, e in entries.items():
            for c in e.codes:
                by_cat.setdefault(CODE_CATEGORIES[c], []).append(word)
        self._by_cat = {cat: tuple(sorted(ws)) for cat, ws in by_cat.items()}
        self._rows = {word: _row(word, e.codes) for word, e in entries.items()}
        self._rows["."] = (FILLER, 0, 0, 0, 0)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._rows

    def codes(self, word: str) -> tuple[int, ...]:
        entry = self.entries.get(word.lower())
        if entry is None:
            raise LexiconError(f"word not in lexicon: {word!r}")
        return entry.codes

    def stem(self, word: str) -> str:
        """Output form of a verb ("painted" -> "paint"); nouns pass through."""
        entry = self.entries.get(word.lower())
        if entry is None:
            raise LexiconError(f"word not in lexicon: {word!r}")
        return entry.stem

    def words_for(self, category: str) -> tuple[str, ...]:
        return self._by_cat.get(category, ())

    def embed(self, tokens: list[str]) -> Embedded:
        """Token list -> the lowercased tokens and their five aligned code
        sequences.

        "." is structural filler (all zeros).  Unknown words raise
        LexiconError, naming the first one lowercased -- there is no
        unknown-word token.
        """
        words = list(map(str.lower, tokens))
        try:
            rows = list(map(self._rows.__getitem__, words))
        except KeyError:
            word = next(word for word in words if word not in self._rows)
            raise LexiconError(f"word not in lexicon: {word!r}") from None
        pos, v1, v2, v3, v4 = map(list, zip(*rows)) if rows else ([], [], [], [], [])
        return Embedded(words, pos, v1, v2, v3, v4)


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a word<TAB>categories[<TAB>stem] table; a line that cannot be
    read, whose word is empty or holds whitespace (no token can be it), that
    lists a word twice or does not fit its row raises ``ValueError``."""
    entries: dict[str, Entry] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
        word = parts[0].lower()
        if word.split() != [word]:
            raise ValueError(f"{path}:{lineno}: word {word!r} is empty or holds whitespace")
        try:
            codes = tuple(CATEGORY_CODES[c] for c in parts[1].split(","))
        except KeyError as e:
            raise ValueError(f"{path}:{lineno}: unknown category {e}") from None
        if word in entries:
            raise ValueError(f"{path}:{lineno}: word {word!r} listed twice")
        try:
            _row(word, codes)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        stem = parts[2].lower() if len(parts) == 3 else word
        entries[word] = Entry(codes, stem)
    return Lexicon(entries)


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    with resources.as_file(resources.files("flatsem") / "data" / "lexicon.tsv") as p:
        return load_lexicon(p)
