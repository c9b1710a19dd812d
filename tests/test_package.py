"""Package-level exports."""

import subplanck


def test_all_is_unique_and_resolves():
    names = subplanck.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(subplanck, name), name
