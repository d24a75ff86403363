"""The package's public names: every entry of cavmag.__all__ resolves.

A name deleted from a module but left in __all__ breaks
`from cavmag import *` while every other import keeps working.
"""

import cavmag


def test_every_public_name_resolves():
    assert [name for name in cavmag.__all__ if not hasattr(cavmag, name)] == []
    assert len(set(cavmag.__all__)) == len(cavmag.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cavmag import *", namespace)
    assert set(cavmag.__all__) <= namespace.keys()
