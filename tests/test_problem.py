"""Tests for the Problem model: canonicalisation, validation, transformations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edge_relations import assert_behaves_as, legacy_edge_relation
from repro.core.problem import (
    UNMAPPED,
    EdgeRelation,
    Problem,
    ProblemError,
    edge_config,
    node_config,
    row_images,
)
from repro.problems.catalog import catalog
from repro.utils.multiset import multisets_of_size


def test_edge_config_canonical():
    assert edge_config("b", "a") == ("a", "b")
    assert edge_config("a", "a") == ("a", "a")


def test_node_config_canonical():
    assert node_config(["c", "a", "b"]) == ("a", "b", "c")


def test_make_infers_labels(sc3):
    assert sc3.labels == frozenset({"0", "1"})


def test_make_canonicalises():
    problem = Problem.make("p", 2, [("b", "a")], [("b", "a")])
    assert ("a", "b") in problem.edge_constraint
    assert ("a", "b") in problem.node_constraint


def test_rejects_bad_delta():
    with pytest.raises(ProblemError):
        Problem.make("p", 0, [], [])


def test_rejects_wrong_arity_node_config():
    with pytest.raises(ProblemError):
        Problem.make("p", 3, [], [("a", "b")])


def test_rejects_unknown_labels():
    with pytest.raises(ProblemError):
        Problem.make("p", 2, [("a", "z")], [("a", "a")], labels=["a"])


def test_rejects_noncanonical_direct_construction():
    with pytest.raises(ProblemError):
        Problem(
            name="p",
            delta=2,
            labels=frozenset({"a", "b"}),
            edge_constraint=frozenset({("b", "a")}),
            node_constraint=frozenset(),
        )


def test_allows_edge_and_node(sc3):
    assert sc3.allows_edge("0", "1")
    assert sc3.allows_edge("1", "0")
    assert not sc3.allows_edge("1", "1")
    assert sc3.allows_node(["1", "0", "0"])
    assert not sc3.allows_node(["1", "1", "0"])


def test_usable_labels(sc3):
    assert sc3.usable_labels == frozenset({"0", "1"})


def test_usable_labels_drops_dead():
    problem = Problem.make(
        "p", 2, [("a", "a"), ("b", "b")], [("a", "a")], labels=["a", "b", "c"]
    )
    assert problem.usable_labels == frozenset({"a"})


def test_compressed_cascades():
    # b is only usable through a config also mentioning dead label c.
    problem = Problem.make(
        "p",
        2,
        [("a", "a"), ("b", "c")],
        [("a", "a"), ("b", "c")],
        labels=["a", "b", "c", "d"],
    )
    compressed = problem.compressed()
    assert compressed.labels == frozenset({"a", "b", "c"})
    smaller = Problem.make(
        "q", 2, [("a", "a"), ("b", "b")], [("a", "a"), ("b", "c")], labels="abc"
    ).compressed()
    assert smaller.labels == frozenset({"a"})


def test_renamed_roundtrip(sc3):
    renamed = sc3.renamed({"0": "x", "1": "y"})
    back = renamed.renamed({"x": "0", "y": "1"})
    assert back.edge_constraint == sc3.edge_constraint
    assert back.node_constraint == sc3.node_constraint


def test_renamed_rejects_noninjective(sc3):
    with pytest.raises(ProblemError):
        sc3.renamed({"0": "x", "1": "x"})


def test_renamed_rejects_partial(sc3):
    with pytest.raises(ProblemError):
        sc3.renamed({"0": "x"})


def test_restricted_is_subproblem(col4_ring):
    keep = {"c1", "c2", "c3"}
    restricted = col4_ring.restricted(keep)
    assert restricted.labels == frozenset(keep)
    assert restricted.edge_constraint < col4_ring.edge_constraint
    assert restricted.node_constraint < col4_ring.node_constraint


def test_restricted_rejects_unknown(sc3):
    with pytest.raises(ProblemError):
        sc3.restricted({"0", "z"})


def test_is_empty():
    assert Problem.make("p", 2, [], [], labels="a").is_empty
    assert not Problem.make("p", 2, [("a", "a")], [("a", "a")]).is_empty


def test_describe_mentions_everything(sc3):
    text = sc3.describe()
    assert "0 0 1" in text
    assert "0 1" in text


def test_description_size(sc3):
    # 2 labels + 2 edge configs * 2 + 1 node config * 3.
    assert sc3.description_size == 2 + 4 + 3


@given(st.integers(2, 4), st.integers(2, 4))
def test_equality_is_structural(delta, num_labels):
    labels = [f"l{i}" for i in range(num_labels)]
    first = Problem.make("a", delta, [(labels[0], labels[0])], [(labels[0],) * delta], labels=labels)
    second = Problem.make("b", delta, [(labels[0], labels[0])], [(labels[0],) * delta], labels=labels)
    # Same structure, different names: dataclass equality includes the name,
    # but constraints compare equal.
    assert first.edge_constraint == second.edge_constraint
    assert first.node_constraint == second.node_constraint


def test_compressed_without_drops_shares_the_relations(sc3):
    assert sc3.compressed() is sc3
    named = sc3.compressed(name="other")
    assert named.name == "other"
    assert named.edge_constraint is sc3.edge_constraint
    assert named.node_constraint is sc3.node_constraint


def test_restricted_to_every_label_shares_the_relations(sc3):
    restricted = sc3.restricted(sc3.labels)
    assert restricted.name == f"{sc3.name}|restricted"
    assert restricted.edge_constraint is sc3.edge_constraint


def test_with_name_is_a_trusted_copy(sc3):
    assert sc3.with_name(sc3.name) is sc3
    copy = sc3.with_name("copy")
    assert copy.name == "copy" and copy != sc3
    assert copy.edge_constraint is sc3.edge_constraint
    assert copy.node_constraint is sc3.node_constraint


# -- the trust boundary ----------------------------------------------------
#
# Problems are validated where they enter the system; internal transforms
# and the full step build their output through the unvalidated trusted
# constructor.  These tests re-validate every such output with the public
# constructor, so a transform that broke an invariant fails here instead of
# far downstream.

#: The eleven single-step derivations of the repository benchmark.
DERIVE_CASES = (
    ("sinkless-orientation", 3),
    ("sinkless-coloring", 5),
    ("3-coloring", 3),
    ("mis", 3),
    ("maximal-matching", 3),
    ("weak-2-coloring", 3),
    ("weak-2-coloring", 4),
    ("superweak-2-coloring", 3),
    ("4-coloring", 2),
    ("weak-3-coloring", 2),
    ("superweak-3-coloring", 2),
)


def assert_revalidates(problem: Problem) -> None:
    """``problem`` passes full validation and its size is the counted one."""
    assert type(problem.labels) is frozenset
    assert type(problem.node_constraint) is frozenset
    assert type(problem.edge_constraint) is EdgeRelation
    rebuilt = Problem(
        name=problem.name,
        delta=problem.delta,
        labels=problem.labels,
        edge_constraint=problem.edge_constraint,
        node_constraint=problem.node_constraint,
    )
    assert rebuilt == problem
    assert problem.description_size == (
        len(problem.labels)
        + sum(len(pair) for pair in problem.edge_constraint)
        + sum(len(config) for config in problem.node_constraint)
    )


@pytest.fixture(scope="module")
def derived_and_twin_hits():
    """Fresh derivations of every benchmark case, then renamed-twin hits."""
    from repro.engine import Engine
    from repro.problems.catalog import get_problem

    engine = Engine()
    fresh, hits = [], []
    for name, delta in DERIVE_CASES:
        problem = get_problem(name, delta)
        fresh.append(engine.speedup(problem))
        labels = sorted(problem.labels)
        twin = problem.renamed(
            {label: f"t{index}" for index, label in enumerate(reversed(labels))},
            name=f"{problem.name}~twin",
        )
        before = engine.cache_stats()["hits"]
        hits.append(engine.speedup(twin))
        assert engine.cache_stats()["hits"] == before + 1, (name, delta)
    return fresh, hits


@pytest.mark.parametrize(
    "case", range(len(DERIVE_CASES)), ids=lambda i: "%s[%d]" % DERIVE_CASES[i]
)
def test_derived_problems_revalidate(derived_and_twin_hits, case):
    fresh, hits = derived_and_twin_hits
    for result in (fresh[case], hits[case]):
        assert_revalidates(result.half)
        assert_revalidates(result.full)
    assert hits[case].full.edge_constraint is fresh[case].full.edge_constraint
    assert hits[case].full.name == f"{hits[case].original.name}+1"


# -- the condensed edge relation of derived problems -------------------------


@pytest.mark.parametrize(
    "case", DERIVE_CASES, ids=lambda case: "%s[%d]" % case
)
def test_derived_edge_relation_behaves_as_the_string_path(case):
    """The derived Pi_1 relation acts as the frozenset the string path builds."""
    from repro.core.speedup import compute_speedup
    from repro.problems.catalog import get_problem

    result = compute_speedup(get_problem(*case))
    assert_behaves_as(result.full, legacy_edge_relation(result))


def test_derived_edge_relation_stays_condensed():
    """Deriving, interning, hashing, deciding and cache hits leave the string
    pairs unbuilt; the first iteration builds them once."""
    from repro.core.alphabet import intern
    from repro.core.canonical import canonical_form
    from repro.core.zero_round import is_zero_round_solvable
    from repro.engine import Engine
    from repro.problems.catalog import get_problem

    engine = Engine()
    problem = get_problem("weak-3-coloring", 2)
    full = engine.speedup(problem).full
    relation = full.edge_constraint
    assert isinstance(relation, EdgeRelation)
    intern(full)
    canonical_form(full)
    is_zero_round_solvable(full)
    assert full.description_size > len(relation)
    assert full.compressed() is full
    assert full.with_name("other").edge_constraint is relation
    twin = problem.renamed({label: f"t{label}" for label in problem.labels}, name="twin")
    hits = engine.cache_stats()["hits"]
    assert engine.speedup(twin).full.edge_constraint is relation
    assert engine.cache_stats()["hits"] == hits + 1
    assert relation._pairs is None and relation._set is None

    first = iter(relation)
    view = relation._pairs
    assert view is not None and len(view) == len(relation)
    iter(relation)
    assert relation._pairs is view
    assert sum(1 for _ in first) == len(relation)


@st.composite
def problems_and_label_choices(draw):
    delta = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    all_edges = list(multisets_of_size(labels, 2))
    all_nodes = list(multisets_of_size(labels, delta))
    edges = draw(st.lists(st.sampled_from(all_edges), max_size=len(all_edges)))
    nodes = draw(st.lists(st.sampled_from(all_nodes), max_size=8))
    problem = Problem.make("random", delta, edges, nodes, labels=labels)
    images = draw(st.permutations(["x", "y", "z", "a", "b"]))
    keep = draw(st.lists(st.sampled_from(labels), unique=True))
    return problem, dict(zip(labels, images)), keep


@given(problems_and_label_choices())
def test_transforms_preserve_the_invariants(choice):
    problem, mapping, keep = choice
    outputs = [
        problem.renamed(mapping),
        problem.renamed(mapping, name="renamed"),
        problem.restricted(keep),
        problem.restricted(problem.labels, name="all"),
        problem.compressed(),
        problem.compressed(name="compressed"),
        problem.restricted(keep).compressed(),
        problem.with_name("other"),
    ]
    for output in outputs:
        assert_revalidates(output)


# -- one edge format: adjacency rows over the sorted alphabet ----------------


def assert_rows_over_labels(problem: Problem) -> None:
    relation = problem.edge_constraint
    assert type(relation) is EdgeRelation
    assert relation.names == tuple(sorted(problem.labels))


def test_every_construction_stores_rows():
    pairs = frozenset({("a", "a"), ("a", "b")})
    built = Problem("p", 2, frozenset("abc"), pairs, frozenset({("a", "b")}))
    made = Problem.make("p", 2, [("b", "a"), ("a", "a")], [("b", "a")], labels="abc")
    loaded = Problem.from_dict(made.to_dict())
    for problem in (built, made, loaded):
        assert_rows_over_labels(problem)
        assert problem.edge_constraint == pairs and pairs == problem.edge_constraint
        assert hash(problem.edge_constraint) == hash(pairs)
    assert built == made == loaded
    assert not isinstance(built.edge_constraint, frozenset)


def test_rows_over_a_sub_alphabet_move_to_the_problem_alphabet():
    relation = EdgeRelation(("a", "c"), (0b11, 0b01))
    problem = Problem("p", 1, frozenset("abc"), relation, frozenset({("a",)}))
    assert_rows_over_labels(problem)
    assert problem.edge_constraint.masks == (0b101, 0, 0b001)
    assert problem.edge_constraint == {("a", "a"), ("a", "c")}
    with pytest.raises(ProblemError, match="malformed adjacency rows"):
        Problem("p", 1, frozenset("ac"), EdgeRelation(("a", "c"), (0b100, 0)), frozenset())


@pytest.mark.parametrize("name", sorted(catalog()))
def test_catalog_problems_store_rows(name):
    family = catalog()[name]
    built = 0
    for delta in (2, 3, 4):
        try:
            problem = family(delta)
        except ValueError:
            continue
        assert_rows_over_labels(problem)
        built += 1
    assert built


def pair_oracle(name, delta, labels, edges, nodes) -> Problem:
    """A problem built from string pairs and tuples through ``make``."""
    return Problem.make(name, delta, edges, nodes, labels=labels)


def loaded(problem: Problem) -> tuple[Problem, dict]:
    """A fresh copy of ``problem`` (its string pairs unbuilt) and its payload."""
    data = problem.to_dict()
    return Problem.from_dict(data), data


def assert_row_transforms(source: Problem, cases: list[tuple[Problem, Problem]]) -> None:
    """Each ``(result, expected)`` pair is equal, and no transform (nor the
    comparison, a mask compare) built a string pair."""
    for result, expected in cases:
        assert result == expected
        assert_rows_over_labels(result)
    assert source.edge_constraint._pairs is None
    assert all(result.edge_constraint._pairs is None for result, _ in cases)
    for result, expected in cases:
        assert result.to_dict() == expected.to_dict()


@given(problems_and_label_choices())
def test_renamed_restricted_compressed_match_a_pair_oracle(choice):
    problem, mapping, keep = choice
    source, data = loaded(problem)
    name, delta = data["name"], data["delta"]
    edges = [tuple(pair) for pair in data["edge_constraint"]]
    nodes = [tuple(config) for config in data["node_constraint"]]

    renamed = pair_oracle(
        name,
        delta,
        [mapping[label] for label in data["labels"]],
        [(mapping[a], mapping[b]) for a, b in edges],
        [[mapping[label] for label in config] for config in nodes],
    )
    kept = set(keep)
    restricted = pair_oracle(
        f"{name}|restricted",
        delta,
        kept,
        [pair for pair in edges if kept.issuperset(pair)],
        [config for config in nodes if kept.issuperset(config)],
    )
    labels = set(data["labels"])
    while True:
        edges = [pair for pair in edges if labels.issuperset(pair)]
        nodes = [config for config in nodes if labels.issuperset(config)]
        usable = {label for pair in edges for label in pair}
        usable &= {label for config in nodes for label in config}
        if usable == labels:
            break
        labels = usable
    compressed = pair_oracle(name, delta, labels, edges, nodes)
    assert_row_transforms(
        source,
        [
            (source.renamed(mapping), renamed),
            (source.restricted(keep), restricted),
            (source.compressed(), compressed),
        ],
    )


def test_compressed_drops_labels_on_rows():
    # e is dead (no node uses it); then c (its only edge was with e), then d
    # (its only node was with c) drop in turn.
    problem = Problem.make(
        "p",
        2,
        [("a", "a"), ("b", "b"), ("c", "e"), ("d", "d")],
        [("a", "a"), ("a", "b"), ("c", "d")],
        labels="abcde",
    )
    source, _ = loaded(problem)
    expected = Problem.make("p", 2, [("a", "a"), ("b", "b")], [("a", "a"), ("a", "b")])
    assert_row_transforms(source, [(source.compressed(), expected)])


@st.composite
def index_maps(draw):
    """An index map of one of the shapes the transforms use, or an arbitrary one."""
    size = draw(st.integers(0, 70))
    kind = draw(st.sampled_from(["arbitrary", "compaction", "permutation", "shift"]))
    if kind == "arbitrary":
        targets = draw(st.integers(1, 80))
        image = draw(st.lists(st.integers(UNMAPPED, targets - 1), min_size=size, max_size=size))
    elif kind == "compaction":
        kept = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        image = [sum(kept[:index]) if keep else UNMAPPED for index, keep in enumerate(kept)]
    elif kind == "permutation":
        image = list(draw(st.permutations(range(size))))
    else:
        shift = draw(st.integers(-size, size))
        image = [index + shift if index + shift >= 0 else UNMAPPED for index in range(size)]
    rows = draw(st.lists(st.integers(0, (1 << size) - 1), max_size=6))
    return image, rows


@given(index_maps())
def test_row_images_match_a_per_bit_oracle(case):
    image, rows = case
    expected = []
    for row in rows:
        mapped = 0
        for index, target in enumerate(image):
            if row >> index & 1 and target != UNMAPPED:
                mapped |= 1 << target
        expected.append(mapped)
    assert list(row_images(image, rows)) == expected
