"""The package's export list: every name in ``apksift.__all__`` resolves."""

import apksift


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from apksift import *", namespace)
    assert apksift.__all__ == sorted(set(apksift.__all__))
    for name in apksift.__all__:
        assert namespace[name] is getattr(apksift, name), name
