"""The package's public names: every export resolves and none repeats."""

from collections import Counter

import tpsfem


def test_every_exported_name_resolves():
    assert [n for n in tpsfem.__all__ if not hasattr(tpsfem, n)] == []


def test_no_name_exported_twice():
    assert [n for n, k in Counter(tpsfem.__all__).items() if k > 1] == []
