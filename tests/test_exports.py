"""The package's public names: listed once each, and all importable."""
import difflink


def test_all_names_are_distinct_and_resolve():
    names = difflink.__all__
    assert len(names) == len(set(names)), sorted(
        name for name in set(names) if names.count(name) > 1)
    assert [name for name in names if not hasattr(difflink, name)] == []
