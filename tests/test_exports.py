"""The package's ``__all__`` is exactly what its ``__init__`` binds for the public.

A deletion that drops a name from one of the two lists and not the other
(a stale import, or a stale ``__all__`` entry) fails here.
"""
import types

import monogamy


def test_all_names_every_public_binding_of_the_package():
    public = {name for name, value in vars(monogamy).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(monogamy.__all__) == len(set(monogamy.__all__))
    assert set(monogamy.__all__) == public
