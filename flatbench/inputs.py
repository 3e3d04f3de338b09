"""Seeded inputs for the three workloads, with expected outputs computed
apart from the flat decoder.

Every corpus is drawn from ``round_rng(workload, seed, round_index)``: the
same seed and round give the same inputs, and each round of a run draws a
fresh corpus of the same make-up, so no two rounds feed the program the same
sentences.

* ``fuzz_round``   -- a uniform ``fuzz_generate`` corpus with the fuzzer's own
                      trees (the reference parse and, through ``lf_oracle``,
                      the reference logical form).
* ``chain_round``  -- pp chains on the subject or the object and clause
                      chains, with logical forms built here in closed form
                      from the construction.
* ``split_round``  -- train / test / gen TSV rows with oracle golds, gen golds
                      reordered by a seeded shuffle of their body conjuncts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import flatsem
from flatsem import lexicon as lx
from flatsem.grammar import COGS_INPUT_GRAMMAR_NO_TERMINALS, Tree

# decode() stops after this many output tokens, so any sentence whose logical
# form is at least this long fails with "decode exceeded 400 steps".
STEP_LIMIT = 400

# Length bands (inclusive upper bounds, in tokens) and their metric suffixes.
BANDS: tuple[tuple[int, str], ...] = ((32, "len032"), (128, "len128"),
                                      (320, "len320"), (512, "len512"))


def band_of(n_tokens: int) -> str:
    for upper, label in BANDS:
        if n_tokens <= upper:
            return label
    raise ValueError(f"{n_tokens} tokens is longer than the last band")


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes
    return random.Random(f"{workload}:{seed}:{round_index}")


def _sub_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


# ----------------------------------------------------------------------
# fuzz-check


FUZZ_ROUND = 2000  # sentences per round
FUZZ_PP_DEPTH = 2
FUZZ_CP_DEPTH = 2


def fuzz_round(seed: int, round_index: int,
               lexicon: lx.Lexicon) -> list[tuple[list[str], Tree]]:
    rng = round_rng("fuzz-check", seed, round_index)
    return flatsem.fuzz_generate(FUZZ_ROUND, lexicon, seed=_sub_seed(rng),
                                 pp_depth=FUZZ_PP_DEPTH, cp_depth=FUZZ_CP_DEPTH)


# ----------------------------------------------------------------------
# long-chains


@dataclass(frozen=True)
class Pools:
    """Words whose lexicon entry allows exactly one reading in the chain
    frames, so the closed-form logical form is the only right answer."""

    dets: tuple[str, ...]
    preps: tuple[str, ...]
    nouns: tuple[str, ...]
    names: tuple[str, ...]
    trans_verbs: tuple[str, ...]  # active "np V np": agent + theme
    cp_verbs: tuple[str, ...]  # "np V that ...": agent + ccomp
    core_verbs: tuple[tuple[str, str], ...]  # "np V .": (word, role)


def word_pools(lexicon: lx.Lexicon) -> Pools:
    def having(*categories: str) -> tuple[str, ...]:
        want = {lx.CATEGORY_CODES[c] for c in categories}
        return tuple(sorted(w for w, e in lexicon.entries.items()
                            if set(e.codes) == want))

    trans = (having("v_trans_omissible", "v_trans_omissible_pp")
             + having("v_trans_not_omissible", "v_trans_not_omissible_pp")
             + having("v_trans_omissible") + having("v_trans_not_omissible"))
    core = ([(w, "theme") for w in having("v_unacc", "v_unacc_pp") + having("v_unacc")]
            + [(w, "agent") for w in having("v_unerg")])
    return Pools(having("det"), having("pp"), having("common_noun"),
                 having("proper_noun"), tuple(sorted(trans)), having("v_cp_taking"),
                 tuple(sorted(core)))


@dataclass(frozen=True)
class Chain:
    shape: str  # "pp-subj" | "pp-obj" | "cp"
    depth: int
    tokens: tuple[str, ...]
    lf: str  # closed-form logical form

    @property
    def lf_tokens(self) -> int:
        return len(self.lf.split())

    @property
    def over_step_limit(self) -> bool:
        return self.lf_tokens >= STEP_LIMIT


def _intro(label: str, pos: int, star: bool) -> str:
    return ("* " if star else "") + f"{label} ( {pos} )"


def _rel(name: str, left: int, right: int) -> str:
    return f"{name} ( {left} , {right} )"


def _closed_form(intros: list[str], body: list[tuple[int, str]]) -> str:
    """Nouns in sentence order, then body conjuncts ordered by the position
    of their head word (ties keep construction order)."""
    conjuncts = [text for _, text in sorted(body, key=lambda item: item[0])]
    return " ; ".join(intros + [" AND ".join(conjuncts)] if conjuncts else intros)


def build_chain(shape: str, depth: int, rng: random.Random, pools: Pools,
                lexicon: lx.Lexicon) -> Chain:
    """One chain sentence and its logical form, read off the construction."""
    toks: list[str] = []
    intros: list[str] = []
    body: list[tuple[int, str]] = []

    def noun_phrase() -> int:
        det, noun = rng.choice(pools.dets), rng.choice(pools.nouns)
        toks.extend((det, noun))
        intros.append(_intro(noun, len(toks) - 1, det == "the"))
        return len(toks) - 1

    def pp_chain(head: int) -> None:
        for _ in range(depth):
            prep = rng.choice(pools.preps)
            toks.append(prep)
            obj = noun_phrase()
            body.append((head, _rel(f"nmod . {prep}", head, obj)))
            head = obj

    if shape in ("pp-subj", "pp-obj"):
        subj = noun_phrase()
        if shape == "pp-subj":
            pp_chain(subj)
        verb = rng.choice(pools.trans_verbs)
        v = len(toks)
        toks.append(verb)
        obj = noun_phrase()
        if shape == "pp-obj":
            pp_chain(obj)
        stem = lexicon.stem(verb)
        body += [(v, _intro(stem, v, False)), (v, _rel("agent", v, subj)),
                 (v, _rel("theme", v, obj))]
    elif shape == "cp":
        verbs: list[int] = []
        for _ in range(depth):
            name = rng.choice(pools.names)
            toks.append(name)
            intros.append(_intro(name, len(toks) - 1, False))
            verb = rng.choice(pools.cp_verbs)
            v = len(toks)
            toks.extend((verb, "that"))
            body += [(v, _intro(lexicon.stem(verb), v, False)), (v, _rel("agent", v, v - 1))]
            verbs.append(v)
        subj = noun_phrase()
        verb, role = rng.choice(pools.core_verbs)
        v = len(toks)
        toks.append(verb)
        body += [(v, _intro(lexicon.stem(verb), v, False)), (v, _rel(role, v, subj))]
        # ccomp follows agent inside each verb group and points one clause down
        for k, cv in enumerate(verbs):
            nxt = verbs[k + 1] if k + 1 < len(verbs) else v
            body.append((cv, _rel("ccomp", cv, nxt)))
    else:
        raise ValueError(f"unknown chain shape {shape!r}")
    toks.append(".")
    return Chain(shape, depth, tuple(toks), _closed_form(intros, body))


SHAPES = ("pp-subj", "pp-obj", "cp")


def chain_length(shape: str, depth: int) -> int:
    return 3 * depth + (4 if shape == "cp" else 6)


def chain_lf_range(shape: str, depth: int, pools: Pools, lexicon: lx.Lexicon) -> tuple[int, int]:
    """Fewest and most logical-form tokens a chain of this shape and depth
    can have: only the "the"/"a" choice changes the count (one star each)."""
    counts = []
    for det in ("a", "the"):
        fixed = Pools((det,), pools.preps, pools.nouns, pools.names,
                      pools.trans_verbs, pools.cp_verbs, pools.core_verbs)
        counts.append(build_chain(shape, depth, random.Random(0), fixed, lexicon).lf_tokens)
    return min(counts), max(counts)


# Sentences per round in each length band.  Decode time grows roughly with the
# square of the length, so the counts fall steeply with the band; they are set
# so that each band takes a comparable share of a round's time.
CHAIN_BAND_COUNTS: dict[str, int] = {"len032": 480, "len128": 51, "len320": 9, "len512": 3}
CHAIN_BAND_RANGES: dict[str, tuple[int, int]] = {
    "len032": (16, 32), "len128": (33, 128), "len320": (129, 320), "len512": (321, 512)}


def chain_recipe(pools: Pools, lexicon: lx.Lexicon) -> list[tuple[str, int]]:
    """The (shape, depth) list of one long-chains round; it does not depend
    on the seed.

    Lengths are spread evenly over each band and shapes cycle.  A depth at
    which the determiners alone decide whether the logical form reaches the
    step limit is moved shallower until they no longer do, so the set of
    sentences that hit the limit is the same in every round and for every
    seed.
    """
    recipe = []
    for band, count in CHAIN_BAND_COUNTS.items():
        lo, hi = CHAIN_BAND_RANGES[band]
        for k in range(count):
            shape = SHAPES[k % len(SHAPES)]
            target = lo + (hi - lo) * k // max(count - 1, 1)
            depth = (target - chain_length(shape, 0)) // 3
            while chain_length(shape, depth) < lo:
                depth += 1
            low, high = chain_lf_range(shape, depth, pools, lexicon)
            while low < STEP_LIMIT <= high:
                depth -= 1
                low, high = chain_lf_range(shape, depth, pools, lexicon)
            recipe.append((shape, depth))
    return recipe


def chain_round(seed: int, round_index: int, recipe: list[tuple[str, int]],
                pools: Pools, lexicon: lx.Lexicon) -> list[Chain]:
    rng = round_rng("long-chains", seed, round_index)
    return [build_chain(shape, depth, rng, pools, lexicon) for shape, depth in recipe]


# ----------------------------------------------------------------------
# paper-splits


SPLIT_ROWS = {"train": 600, "test": 600, "gen": 600}
SHUFFLES = 200
TRAIN_DEPTHS = (2, 2)  # (pp, cp) for train and test
GEN_DEPTHS = (3, 3)  # deeper structure for the generalization split
TEST_CATEGORY = "in_distribution"


def reorder_body(lf: str, rng: random.Random) -> str:
    """Shuffle the AND-joined body conjuncts; noun introductions stay put."""
    head, sep, body = lf.rpartition(" ; ")
    conjuncts = body.split(" AND ")
    rng.shuffle(conjuncts)
    return head + sep + " AND ".join(conjuncts)


def tree_expansion_keys(tree: Tree) -> set[str]:
    """Productions a tree uses, keyed like the grammar's "<lhs> -> <rhs>"."""
    if tree.is_leaf:
        return set()
    keys = {f"{tree.symbol} -> {' '.join(c.symbol for c in tree.children)}"}
    for child in tree.children:
        keys |= tree_expansion_keys(child)
    return keys


def grammar_expansion_keys() -> set[str]:
    return {f"{lhs} -> {' '.join(rhs)}"
            for lhs, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items() for rhs in alts}


@dataclass
class SplitRound:
    rows: dict[str, list[tuple[str, str, str]]]  # split -> (sentence, gold, category)
    shuffle_seed: int
    covered: set[str]  # expansions of the train trees
    first_full: Optional[int]  # 1-based train row reaching full coverage
    em_expected: dict[str, int]  # split or "gen/<category>" -> rows not reordered
    n_expected: dict[str, int]  # split or "gen/<category>" -> rows


def split_round(seed: int, round_index: int, lexicon: lx.Lexicon) -> SplitRound:
    rng = round_rng("paper-splits", seed, round_index)
    rows: dict[str, list[tuple[str, str, str]]] = {}
    n_expected: dict[str, int] = {}
    em_expected: dict[str, int] = {}

    universe = grammar_expansion_keys()
    covered: set[str] = set()
    first_full = None
    train = flatsem.fuzz_generate(SPLIT_ROWS["train"], lexicon, seed=_sub_seed(rng),
                                  pp_depth=TRAIN_DEPTHS[0], cp_depth=TRAIN_DEPTHS[1])
    rows["train"] = []
    for k, (tokens, tree) in enumerate(train, start=1):
        covered |= tree_expansion_keys(tree)
        if first_full is None and covered == universe:
            first_full = k
        rows["train"].append((" ".join(tokens), flatsem.lf_oracle(tree, lexicon), "train"))

    test = flatsem.fuzz_generate(SPLIT_ROWS["test"], lexicon, seed=_sub_seed(rng),
                                 pp_depth=TRAIN_DEPTHS[0], cp_depth=TRAIN_DEPTHS[1])
    rows["test"] = [(" ".join(t), flatsem.lf_oracle(tree, lexicon), TEST_CATEGORY) for t, tree in test]
    n_expected["test"] = em_expected["test"] = len(rows["test"])

    gen = flatsem.fuzz_generate(SPLIT_ROWS["gen"], lexicon, seed=_sub_seed(rng),
                                pp_depth=GEN_DEPTHS[0], cp_depth=GEN_DEPTHS[1])
    rows["gen"] = []
    for tokens, tree in gen:
        gold = flatsem.lf_oracle(tree, lexicon)
        shuffled = reorder_body(gold, rng)
        category = flatsem.oracle.matrix_template(tree)
        kept = int(shuffled.split() == gold.split())
        for key in ("gen", f"gen/{category}"):
            n_expected[key] = n_expected.get(key, 0) + 1
            em_expected[key] = em_expected.get(key, 0) + kept
        rows["gen"].append((" ".join(tokens), shuffled, category))
    return SplitRound(rows, _sub_seed(rng), covered, first_full, em_expected, n_expected)
