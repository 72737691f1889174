"""The package's export list: every name in `gapfuse.__all__` resolves, none
repeats, and `from gapfuse import *` binds them all."""

from collections import Counter

import gapfuse


def test_every_exported_name_resolves():
    assert [name for name in gapfuse.__all__ if not hasattr(gapfuse, name)] == []


def test_no_exported_name_repeats():
    assert [name for name, n in Counter(gapfuse.__all__).items() if n > 1] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from gapfuse import *", namespace)
    assert set(gapfuse.__all__) <= set(namespace)
