"""Tests for the bitmask kernel: interning, masks, matching, naming guards."""

import pytest

from repro.core.alphabet import (
    Alphabet,
    MeaningMap,
    bit_indices,
    intern,
    iter_bits,
    mask_matching_exists,
    set_label_name,
    short_names,
)
from repro.core.problem import Problem


# -- Alphabet ----------------------------------------------------------------


def test_alphabet_orders_bits_by_sorted_names():
    alphabet = Alphabet(["b", "a", "c"])
    assert alphabet.names == ("a", "b", "c")
    assert alphabet.index == {"a": 0, "b": 1, "c": 2}
    assert alphabet.bit("b") == 0b010
    assert alphabet.full_mask == 0b111


def test_alphabet_mask_members_roundtrip():
    alphabet = Alphabet(["x", "y", "z"])
    for subset in ([], ["x"], ["y", "z"], ["x", "y", "z"]):
        mask = alphabet.mask(subset)
        assert alphabet.members(mask) == tuple(sorted(subset))
        assert alphabet.label_set(mask) == frozenset(subset)
        assert mask.bit_count() == len(subset)


def test_alphabet_indices_and_config():
    alphabet = Alphabet(["p", "q", "r"])
    mask = alphabet.mask(["r", "p"])
    assert alphabet.indices(mask) == (0, 2)
    assert alphabet.config((0, 0, 2)) == ("p", "p", "r")


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]


@pytest.mark.parametrize("mask", [0, 1, 0b101001, (1 << 64) | 1, (1 << 200) - 1, 1 << 7576])
def test_bit_indices_matches_iter_bits(mask):
    assert bit_indices(mask) == tuple(iter_bits(mask))


# -- interning ---------------------------------------------------------------


@pytest.fixture()
def toy_problem():
    return Problem.make(
        "toy",
        2,
        edge_configs=[("a", "b"), ("b", "b")],
        node_configs=[("a", "a"), ("a", "b")],
        labels=["a", "b"],
    )


def test_intern_is_cached_per_problem(toy_problem):
    assert intern(toy_problem) is intern(toy_problem)


def test_interned_adjacency_is_singleton_polar(toy_problem):
    interned = intern(toy_problem)
    a, b = interned.alphabet.index["a"], interned.alphabet.index["b"]
    # a is only compatible with b; b is compatible with both.
    assert interned.adjacency[a] == 1 << b
    assert interned.adjacency[b] == (1 << a) | (1 << b)


def test_interned_configs_are_sorted_index_tuples(toy_problem):
    interned = intern(toy_problem)
    assert interned.node_configs == ((0, 0), (0, 1))
    assert interned.config_supports == (0b01, 0b11)
    # In (a, b) the label a sits at position 0 and b at position 1.
    assert interned.config_position_masks[1] == {0: 0b01, 1: 0b10}


# -- matching ----------------------------------------------------------------


def test_mask_matching_exists_basic():
    assert mask_matching_exists([])
    assert mask_matching_exists([0b01, 0b10])
    assert mask_matching_exists([0b11, 0b11])
    # Two slots fighting over one position.
    assert not mask_matching_exists([0b01, 0b01])
    # An empty slot can never match.
    assert not mask_matching_exists([0b11, 0])


def test_mask_matching_needs_augmenting_path():
    # Slot 0 grabs position 0 first; slot 1 forces a reroute.
    assert mask_matching_exists([0b11, 0b01])
    # Hall violator: three slots, two positions.
    assert not mask_matching_exists([0b11, 0b11, 0b11])


# -- naming guards (satellite: collision safety) -----------------------------


def test_set_label_name_sorted_and_stable_for_plain_labels():
    assert set_label_name(["b", "a"]) == "{a,b}"
    assert set_label_name(["0", "1"]) == "{0,1}"


def test_set_label_name_escapes_colliding_members():
    # Without escaping both of these sets would be named "{a,b}".
    aliased = set_label_name(["a,b"])
    plain = set_label_name(["a", "b"])
    assert aliased != plain
    assert plain == "{a,b}"


def test_set_label_name_injective_on_nasty_members():
    nasty_sets = [
        frozenset({"a,b"}),
        frozenset({"a", "b"}),
        frozenset({"{a", "b}"}),
        frozenset({"{a,b}"}),
        frozenset({"a\\", "b"}),
        frozenset({"a\\,b"}),
    ]
    names = [set_label_name(s) for s in nasty_sets]
    assert len(set(names)) == len(nasty_sets)


def test_short_names_sequence():
    names = short_names(30)
    assert names[0] == "A"
    assert names[25] == "Z"
    assert names[26] == "L26"
    assert len(set(names)) == 30


def test_short_names_avoid_skips_user_labels():
    assert short_names(3, avoid={"B"}) == ["A", "C", "D"]
    assert short_names(2, avoid={"A", "B", "C"}) == ["D", "E"]
    # Skipping keeps the stream deterministic across the letter boundary.
    assert short_names(27, avoid={"Z"})[-2:] == ["L26", "L27"]


#: Labels containing every character ``set_label_name`` escapes.
NASTY_LABELS = ["a,b", "{a", "b}", "c\\", "{x,y}", "plain", "\\,"]


def test_mask_name_is_byte_identical_to_set_label_name():
    alphabet = Alphabet(NASTY_LABELS)
    for mask in range(1 << alphabet.size):
        assert alphabet.mask_name(mask) == set_label_name(alphabet.members(mask))
        assert alphabet.indices_name(alphabet.indices(mask)) == alphabet.mask_name(mask)


def test_nasty_labels_derive_and_translate_through_the_cache():
    from repro.engine import Engine
    from repro.problems.catalog import get_problem

    base = get_problem("mis", 3)
    labels = sorted(base.labels)
    nasty = base.renamed(dict(zip(labels, NASTY_LABELS)), name="nasty")
    twin = base.renamed(dict(zip(labels, reversed(NASTY_LABELS))), name="twin")
    engine = Engine()
    engine.speedup(nasty)
    hit = engine.speedup(twin)
    assert engine.cache_stats()["hits"] == 1
    fresh = Engine().speedup(twin)

    def full_meanings(result):
        return {
            frozenset(result.half_meaning[half] for half in members)
            for members in result.full_meaning.values()
        }

    assert hit.half == fresh.half
    assert dict(hit.half_meaning) == dict(fresh.half_meaning)
    assert all(name == set_label_name(m) for name, m in hit.half_meaning.items())
    assert full_meanings(hit) == full_meanings(fresh)


# -- MeaningMap --------------------------------------------------------------


def test_meaning_map_reads_as_the_dict_it_was_built_from():
    import pickle

    meanings = {"A": frozenset({"x", "y"}), "B": frozenset({"z"}), "C": frozenset()}
    meaning = MeaningMap.of(meanings)
    assert meaning == meanings and meanings == meaning
    assert dict(meaning) == meanings and len(meaning) == 3 and "A" in meaning
    assert MeaningMap.of(meaning) is meaning
    assert meaning != {**meanings, "C": frozenset({"x"})}
    clone = pickle.loads(pickle.dumps(meaning))
    assert clone == meaning and clone.masks == meaning.masks
    with pytest.raises(TypeError):
        meaning["D"] = frozenset()
    with pytest.raises(TypeError):
        hash(meaning)


def test_meaning_map_rename_shares_masks_and_reencodes_over_an_alphabet():
    meaning = MeaningMap(("x", "y", "z"), {"A": 0b011, "B": 0b100})
    renamed = meaning.renamed({"x": "p", "y": "q", "z": "r"})
    assert renamed.masks is meaning.masks
    assert renamed == {"A": frozenset({"p", "q"}), "B": frozenset({"r"})}
    # Members in the alphabet's order: the masks are read as they are.
    assert meaning.masks_over(Alphabet("xyz"), ["B", "A"]) == [0b100, 0b011]
    # Members in another order: each meaning is re-encoded.
    shuffled = MeaningMap(("z", "x", "y"), {"A": 0b110, "B": 0b001})
    assert shuffled == meaning
    assert shuffled.masks_over(Alphabet("xyz"), ["B", "A"]) == [0b100, 0b011]


def test_meaning_map_keeps_decoded_meanings_only_when_small():
    small = MeaningMap(("x", "y"), {"A": 0b11})
    assert small["A"] is small["A"]
    members = tuple(f"m{i}" for i in range(300))
    large = MeaningMap(members, {f"L{i}": 1 << i for i in range(300)})
    assert large["L7"] == frozenset({"m7"})
    assert large["L7"] is not large["L7"]

