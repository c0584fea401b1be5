"""The README/quickstart API surface works as documented."""

import pkgutil

import repro


def test_version():
    assert repro.__version__


def test_quickstart_snippet():
    problem = repro.sinkless_coloring(3)
    derived = repro.speedup(problem).full
    assert repro.are_isomorphic(derived.compressed(), problem.compressed())


def test_catalog_round_trip():
    for name in ("sinkless-coloring", "mis", "weak-2-coloring"):
        family = repro.get_family(name)
        problem = family(3)
        text = repro.format_problem(problem)
        assert repro.parse_problem(text) == problem


def test_all_exports_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_run_round_elimination_from_top_level():
    result = repro.run_round_elimination(repro.sinkless_coloring(3), max_steps=2)
    assert result.unbounded


def test_layer_exports():
    import repro.analysis
    import repro.sim
    import repro.superweak

    for module in (repro.analysis, repro.sim, repro.superweak):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_string_oracle_is_not_shipped():
    """The frozen string path is a test-only oracle (``tests/_legacy.py``)."""
    shipped = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    assert not [m.name for m in shipped if m.name.rsplit(".", 1)[-1] == "_legacy"]
