#!/usr/bin/env python3
"""Regenerate src/flatsem/data/lexicon.tsv from the COGS generation vocabulary.

The word lists below are the noun/verb pools of the original COGS data
generator (MacArthur CDI + BNC nouns, Levin/VerbNet verb classes), which is
where every surface form in the ReCOGS_pos splits comes from.  The shipped
lexicon is the union of those pools, so it covers the training vocabulary plus
the handful of words that only surface in the generalization splits
(e.g. "monastery", "gardner").

Row format:  word<TAB>category,category,...<TAB>stem
The stem column is present only for verb forms whose output stem differs from
the surface form ("painted" -> "paint").  Every row is an input word: a stem
that never occurs as an input word of its own ("sold" -> "sell") gets no row.
"""

import argparse
from pathlib import Path

animate_nouns = [
    'girl', 'boy', 'cat', 'dog', 'baby', 'child', 'teacher', 'frog', 'chicken', 'mouse',
    'lion', 'monkey', 'bear', 'giraffe', 'horse', 'bird', 'duck', 'bunny', 'butterfly', 'penguin',
    'student', 'professor', 'monster', 'hero', 'sailor', 'lawyer', 'customer', 'scientist', 'princess', 'president',
    'cow', 'crocodile', 'goose', 'hen', 'deer', 'donkey', 'bee', 'fly', 'kitty', 'tiger',
    'wolf', 'zebra', 'mother', 'father', 'patient', 'manager', 'director', 'king', 'queen', 'kid',
    'fish', 'moose', 'pig', 'pony', 'puppy', 'sheep', 'squirrel', 'lamb', 'turkey', 'turtle',
    'doctor', 'pupil', 'prince', 'driver', 'consumer', 'writer', 'farmer', 'friend', 'judge', 'visitor',
    'guest', 'servant', 'chief', 'citizen', 'champion', 'prisoner', 'captain', 'soldier', 'passenger', 'tenant',
    'politician', 'resident', 'buyer', 'spokesman', 'governor', 'guard', 'creature', 'coach', 'producer', 'researcher',
    'guy', 'dealer', 'duke', 'tourist', 'landlord', 'human', 'host', 'priest', 'journalist', 'poet', 'hedgehog',
    'shark', 'cockroach', 'cobra', 'hippo'
]

inanimate_nouns = [
    'cake', 'donut', 'cookie', 'box', 'rose', 'drink', 'raisin', 'melon', 'sandwich', 'strawberry',
    'ball', 'balloon', 'bat', 'block', 'book', 'crayon', 'chalk', 'doll', 'game', 'glue',
    'lollipop', 'hamburger', 'banana', 'biscuit', 'muffin', 'pancake', 'pizza', 'potato', 'pretzel', 'pumpkin',
    'sweetcorn', 'yogurt', 'pickle', 'jigsaw', 'pen', 'pencil', 'present', 'toy', 'cracker', 'brush',
    'radio', 'cloud', 'mandarin', 'hat', 'basket', 'plant', 'flower', 'chair', 'spoon', 'pillow',
    'gumball', 'scarf', 'shoe', 'jacket', 'hammer', 'bucket', 'knife', 'cup', 'plate', 'towel',
    'bottle', 'bowl', 'can', 'clock', 'jar', 'penny', 'purse', 'soap', 'toothbrush', 'watch',
    'newspaper', 'fig', 'bag', 'wine', 'key', 'weapon', 'brain', 'tool', 'crown', 'ring',
    'leaf', 'fruit', 'mirror', 'beer', 'shirt', 'guitar', 'chemical', 'seed', 'shell', 'brick',
    'bell', 'coin', 'button', 'needle', 'molecule', 'crystal', 'flag', 'nail', 'bean', 'liver'
]

proper_nouns = [
    'Emma', 'Liam', 'Olivia', 'Noah', 'Ava', 'William', 'Isabella', 'James', 'Sophia', 'Oliver',
    'Charlotte', 'Benjamin', 'Mia', 'Elijah', 'Amelia', 'Lucas', 'Harper', 'Mason', 'Evelyn', 'Logan',
    'Abigail', 'Alexander', 'Emily', 'Ethan', 'Elizabeth', 'Jacob', 'Mila', 'Michael', 'Ella', 'Daniel',
    'Avery', 'Henry', 'Sofia', 'Jackson', 'Camila', 'Sebastian', 'Aria', 'Aiden', 'Scarlett', 'Matthew',
    'Victoria', 'Samuel', 'Madison', 'David', 'Luna', 'Joseph', 'Grace', 'Carter', 'Chloe', 'Owen',
    'Penelope', 'Wyatt', 'Layla', 'John', 'Riley', 'Jack', 'Zoey', 'Luke', 'Nora', 'Jayden',
    'Lily', 'Dylan', 'Eleanor', 'Grayson', 'Hannah', 'Levi', 'Lillian', 'Isaac', 'Addison', 'Gabriel',
    'Aubrey', 'Julian', 'Ellie', 'Mateo', 'Stella', 'Anthony', 'Natalie', 'Jaxon', 'Zoe', 'Lincoln',
    'Leah', 'Joshua', 'Hazel', 'Christopher', 'Violet', 'Andrew', 'Aurora', 'Theodore', 'Savannah', 'Caleb',
    'Audrey', 'Ryan', 'Brooklyn', 'Asher', 'Bella', 'Nathan', 'Claire', 'Thomas', 'Skylar', 'Leo', 'Lina',
    'Paula', 'Charlie'
]
proper_nouns = [n.lower() for n in proper_nouns]

on_nouns = [
    'table', 'stage', 'bed', 'chair', 'stool', 'road', 'tree', 'box', 'surface', 'seat',
    'speaker', 'computer', 'rock', 'boat', 'cabinet', 'tv', 'plate', 'desk', 'bowl', 'bench',
    'shelf', 'cloth', 'piano', 'bible', 'leaflet', 'sheet', 'cupboard', 'truck', 'tray', 'notebook',
    'blanket', 'deck', 'coffin', 'log', 'ladder', 'barrel', 'rug', 'canvas', 'tiger', 'towel',
    'throne', 'booklet', 'sock', 'corpse', 'sofa', 'keyboard', 'book', 'pillow', 'pad', 'train',
    'couch', 'bike', 'pedestal', 'platter', 'paper', 'rack', 'board', 'panel', 'tripod', 'branch',
    'machine', 'floor', 'napkin', 'cookie', 'block', 'cot', 'device', 'yacht', 'dog', 'mattress',
    'ball', 'stand', 'stack', 'windowsill', 'counter', 'cushion', 'hanger', 'trampoline', 'gravel', 'cake',
    'carpet', 'plaque', 'boulder', 'leaf', 'mound', 'bun', 'dish', 'cat', 'podium', 'tabletop',
    'beach', 'bag', 'glacier', 'brick', 'crack', 'vessel', 'futon', 'turntable', 'rag', 'chessboard'
]

in_nouns = [
    'house', 'room', 'car', 'garden', 'box', 'cup', 'glass', 'bag', 'vehicle', 'hole',
    'cabinet', 'bottle', 'shoe', 'storage', 'cot', 'vessel', 'pot', 'pit', 'tin', 'can',
    'cupboard', 'envelope', 'nest', 'bush', 'coffin', 'drawer', 'container', 'basin', 'tent', 'soup',
    'well', 'barrel', 'bucket', 'cage', 'sink', 'cylinder', 'parcel', 'cart', 'sack', 'trunk',
    'wardrobe', 'basket', 'bin', 'fridge', 'mug', 'jar', 'corner', 'pool', 'blender', 'closet',
    'pile', 'van', 'trailer', 'saucepan', 'truck', 'taxi', 'haystack', 'dumpster', 'puddle', 'bathtub',
    'pod', 'tub', 'trap', 'bun', 'microwave', 'bookstore', 'package', 'cafe', 'train', 'castle',
    'bunker', 'vase', 'backpack', 'tube', 'hammock', 'stadium', 'backyard', 'swamp', 'monastery', 'refrigerator',
    'palace', 'cubicle', 'crib', 'condo', 'tower', 'crate', 'dungeon', 'teapot', 'tomb', 'casket',
    'jeep', 'shoebox', 'wagon', 'bakery', 'fishbowl', 'kennel', 'china', 'spaceship', 'penthouse', 'pyramid'
]

beside_nouns = [
    'table', 'stage', 'bed', 'chair', 'book', 'road', 'tree', 'machine', 'house', 'seat',
    'speaker', 'computer', 'rock', 'car', 'box', 'cup', 'glass', 'bag', 'flower', 'boat',
    'vehicle', 'key', 'painting', 'cabinet', 'tv', 'bottle', 'cat', 'desk', 'shoe', 'mirror',
    'clock', 'bench', 'bike', 'lamp', 'lion', 'piano', 'crystal', 'toy', 'duck', 'sword',
    'sculpture', 'rod', 'truck', 'basket', 'bear', 'nest', 'sphere', 'bush', 'surgeon', 'poster',
    'throne', 'giant', 'trophy', 'hedge', 'log', 'tent', 'ladder', 'helicopter', 'barrel', 'yacht',
    'statue', 'bucket', 'skull', 'beast', 'lemon', 'whale', 'cage', 'gardner', 'fox', 'sink',
    'trainee', 'dragon', 'cylinder', 'monk', 'bat', 'headmaster', 'philosopher', 'foreigner', 'worm', 'chemist',
    'corpse', 'wolf', 'torch', 'sailor', 'valve', 'hammer', 'doll', 'genius', 'baron', 'murderer',
    'bicycle', 'keyboard', 'stool', 'pepper', 'warrior', 'pillar', 'monkey', 'cassette', 'broker', 'bin'
]

V_trans_omissible = [
    'ate', 'painted', 'drew', 'cleaned', 'cooked',
    'dusted', 'hunted', 'nursed', 'sketched', 'juggled',
    'called', 'heard', 'packed', 'saw', 'noticed',
    'studied', 'examined', 'observed', 'knew', 'investigated', 'baked'
]
V_trans_omissible_pp = [
    'eaten', 'painted', 'drawn', 'cleaned', 'cooked',
    'dusted', 'hunted', 'nursed', 'sketched', 'juggled',
    'called', 'heard', 'packed', 'seen', 'noticed',
    'studied', 'examined', 'observed', 'known', 'investigated'
]
V_trans_not_omissible = [
    'liked', 'helped', 'found', 'loved', 'poked',
    'admired', 'adored', 'appreciated', 'missed', 'respected',
    'threw', 'tolerated', 'valued', 'worshipped', 'discovered',
    'held', 'stabbed', 'touched', 'pierced', 'tossed'
]
V_trans_not_omissible_pp = [
    'liked', 'helped', 'found', 'loved', 'poked',
    'admired', 'adored', 'appreciated', 'missed', 'respected',
    'thrown', 'tolerated', 'valued', 'worshipped', 'discovered',
    'held', 'stabbed', 'touched', 'pierced', 'tossed'
]
V_cp_taking = [
    'liked', 'hoped', 'said', 'noticed', 'believed',
    'confessed', 'declared', 'proved', 'thought', 'admired',
    'appreciated', 'respected', 'supported', 'tolerated', 'valued',
    'wished', 'dreamed', 'expected', 'imagined', 'meant'
]
V_inf_taking = [
    'wanted', 'preferred', 'needed', 'intended', 'tried',
    'attempted', 'planned', 'expected', 'hoped', 'wished',
    'craved', 'liked', 'hated', 'loved', 'enjoyed',
    'dreamed', 'meant', 'longed', 'yearned', 'itched'
]
V_unacc = [
    'rolled', 'froze', 'burned', 'shortened', 'floated',
    'grew', 'slid', 'broke', 'crumpled', 'split',
    'changed', 'snapped', 'disintegrated', 'collapsed', 'decomposed',
    'doubled', 'improved', 'inflated', 'enlarged', 'reddened',
    'shattered', 'blessed', 'squeezed'
]
V_unacc_pp = [
    'rolled', 'frozen', 'burned', 'shortened', 'floated',
    'grown', 'slid', 'broken', 'crumpled', 'split',
    'changed', 'snapped', 'disintegrated', 'collapsed', 'decomposed',
    'doubled', 'improved', 'inflated', 'enlarged', 'reddened',
    'shattered', 'blessed', 'squeezed'
]
V_unerg = [
    'slept', 'smiled', 'laughed', 'sneezed', 'cried',
    'talked', 'danced', 'jogged', 'walked', 'ran',
    'napped', 'snoozed', 'screamed', 'stuttered', 'frowned',
    'giggled', 'scoffed', 'snored', 'smirked', 'gasped'
]
V_inf = [
    'walk', 'run', 'sleep', 'sneeze', 'nap',
    'eat', 'read', 'cook', 'hunt', 'paint',
    'talk', 'dance', 'giggle', 'jog', 'smirk',
    'call', 'sketch', 'dust', 'clean', 'investigate', 'crawl'
]
V_dat = [
    'gave', 'lended', 'sold', 'offered', 'fed',
    'passed', 'sent', 'rented', 'served', 'awarded',
    'brought', 'handed', 'forwarded', 'promised', 'mailed',
    'loaned', 'posted', 'returned', 'slipped', 'wired',
    'teleported', 'shipped'
]
V_dat_pp = [
    'given', 'lended', 'sold', 'offered', 'fed',
    'passed', 'sent', 'rented', 'served', 'awarded',
    'brought', 'handed', 'forwarded', 'promised', 'mailed',
    'loaned', 'posted', 'returned', 'slipped', 'wired'
]

verbs_lemmas = {
    'ate': 'eat', 'painted': 'paint', 'drew': 'draw', 'cleaned': 'clean',
    'cooked': 'cook', 'dusted': 'dust', 'hunted': 'hunt', 'nursed': 'nurse',
    'sketched': 'sketch', 'washed': 'wash', 'juggled': 'juggle', 'called': 'call',
    'eaten': 'eat', 'drawn': 'draw', 'baked': 'bake', 'liked': 'like', 'knew': 'know',
    'helped': 'help', 'saw': 'see', 'found': 'find', 'heard': 'hear', 'noticed': 'notice',
    'loved': 'love', 'admired': 'admire', 'adored': 'adore', 'appreciated': 'appreciate',
    'missed': 'miss', 'respected': 'respect', 'tolerated': 'tolerate', 'valued': 'value',
    'worshipped': 'worship', 'observed': 'observe', 'discovered': 'discover', 'held': 'hold',
    'stabbed': 'stab', 'touched': 'touch', 'pierced': 'pierce', 'poked': 'poke',
    'known': 'know', 'seen': 'see', 'hit': 'hit', 'hoped': 'hope', 'said': 'say',
    'believed': 'believe', 'confessed': 'confess', 'declared': 'declare', 'proved': 'prove',
    'thought': 'think', 'supported': 'support', 'wished': 'wish', 'dreamed': 'dream',
    'expected': 'expect', 'imagined': 'imagine', 'envied': 'envy', 'wanted': 'want',
    'preferred': 'prefer', 'needed': 'need', 'intended': 'intend', 'tried': 'try',
    'attempted': 'attempt', 'planned': 'plan', 'craved': 'crave', 'hated': 'hate', 'loved': 'love',
    'enjoyed': 'enjoy', 'rolled': 'roll', 'froze': 'freeze', 'burned': 'burn', 'shortened': 'shorten',
    'floated': 'float', 'grew': 'grow', 'slid': 'slide', 'broke': 'break', 'crumpled': 'crumple',
    'split': 'split', 'changed': 'change', 'snapped': 'snap', 'tore': 'tear', 'collapsed': 'collapse',
    'decomposed': 'decompose', 'doubled': 'double', 'improved': 'improve', 'inflated': 'inflate',
    'enlarged': 'enlarge', 'reddened': 'redden', 'popped': 'pop', 'disintegrated': 'disintegrate',
    'expanded': 'expand', 'cooled': 'cool', 'soaked': 'soak', 'frozen': 'freeze', 'grown': 'grow',
    'broken': 'break', 'torn': 'tear', 'slept': 'sleep', 'smiled': 'smile', 'laughed': 'laugh',
    'sneezed': 'sneeze', 'cried': 'cry', 'talked': 'talk', 'danced': 'dance', 'jogged': 'jog',
    'walked': 'walk', 'ran': 'run', 'napped': 'nap', 'snoozed': 'snooze', 'screamed': 'scream',
    'stuttered': 'stutter', 'frowned': 'frown', 'giggled': 'giggle', 'scoffed': 'scoff',
    'snored': 'snore', 'snorted': 'snort', 'smirked': 'smirk', 'gasped': 'gasp',
    'gave': 'give', 'lended': 'lend', 'sold': 'sell', 'offered': 'offer', 'fed': 'feed',
    'passed': 'pass', 'rented': 'rent', 'served': 'serve', 'awarded': 'award', 'promised': 'promise',
    'brought': 'bring', 'sent': 'send', 'handed': 'hand', 'forwarded': 'forward', 'mailed': 'mail',
    'posted': 'post', 'given': 'give', 'shipped': 'ship', 'packed': 'pack', 'studied': 'study',
    'examined': 'examine', 'investigated': 'investigate', 'thrown': 'throw', 'threw': 'throw',
    'tossed': 'toss', 'meant': 'mean', 'longed': 'long', 'yearned': 'yearn', 'itched': 'itch',
    'loaned': 'loan', 'returned': 'return', 'slipped': 'slip', 'wired': 'wire', 'crawled': 'crawl',
    'shattered': 'shatter', 'bought': 'buy', 'squeezed': 'squeeze', 'teleported': 'teleport',
    'melted': 'melt', 'blessed': 'bless'
}

VERB_LISTS = [
    (V_trans_omissible, 'v_trans_omissible'),
    (V_trans_omissible_pp, 'v_trans_omissible_pp'),
    (V_trans_not_omissible, 'v_trans_not_omissible'),
    (V_trans_not_omissible_pp, 'v_trans_not_omissible_pp'),
    (V_cp_taking, 'v_cp_taking'),
    (V_inf_taking, 'v_inf_taking'),
    (V_unacc, 'v_unacc'),
    (V_unacc_pp, 'v_unacc_pp'),
    (V_unerg, 'v_unerg'),
    (V_inf, 'v_inf'),
    (V_dat, 'v_dat'),
    (V_dat_pp, 'v_dat_pp'),
]

FUNCTION_WORDS = {
    'a': 'det', 'the': 'det',
    'on': 'pp', 'in': 'pp', 'beside': 'pp',
    'was': 'was', 'by': 'by', 'to': 'to', 'that': 'that',
}

# Order in which a row's categories are written; matches the parser's
# verb-slot layout (active form, passive participle, cp-taking, inf-taking).
CATEGORY_ORDER = [
    'det', 'pp', 'was', 'by', 'to', 'that', 'common_noun', 'proper_noun',
    'v_trans_omissible', 'v_trans_omissible_pp',
    'v_trans_not_omissible', 'v_trans_not_omissible_pp',
    'v_cp_taking', 'v_inf_taking',
    'v_unacc', 'v_unerg', 'v_inf', 'v_dat', 'v_dat_pp', 'v_unacc_pp',
]


def build_rows():
    cats = {}   # word -> set of category names
    stems = {}  # word -> stem (only where it differs from the word)

    for word, cat in FUNCTION_WORDS.items():
        cats.setdefault(word, set()).add(cat)
    for word in animate_nouns + inanimate_nouns + on_nouns + in_nouns + beside_nouns:
        cats.setdefault(word, set()).add('common_noun')
    for word in proper_nouns:
        cats.setdefault(word, set()).add('proper_noun')

    for lst, cat in VERB_LISTS:
        for word in lst:
            cats.setdefault(word, set()).add(cat)
            stem = verbs_lemmas.get(word, word)
            if stem != word:
                prev = stems.setdefault(word, stem)
                assert prev == stem, f"conflicting stems for {word}"

    # The vocabulary keeps nouns and verbs disjoint; the parser relies on it.
    for word, cs in cats.items():
        noun = cs & {'common_noun', 'proper_noun'}
        verb = cs - {'common_noun', 'proper_noun'} - set(FUNCTION_WORDS.values())
        assert not (noun and verb), f"{word} is both noun and verb: {cs}"

    order = {c: i for i, c in enumerate(CATEGORY_ORDER)}
    rows = []
    for word in sorted(cats):
        cat_field = ','.join(sorted(cats[word], key=order.__getitem__))
        row = [word, cat_field]
        if word in stems:
            row.append(stems[word])
        rows.append('\t'.join(row))
    return rows


def main():
    default_out = Path(__file__).resolve().parents[1] / 'src' / 'flatsem' / 'data' / 'lexicon.tsv'
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument('--out', type=Path, default=default_out)
    args = ap.parse_args()

    rows = build_rows()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text('\n'.join(rows) + '\n')
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == '__main__':
    main()
