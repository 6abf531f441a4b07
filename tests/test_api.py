"""The package's public names: ``fedproj.__all__`` matches what it exports."""

import types

import fedproj


def test_every_public_name_resolves_once():
    assert len(fedproj.__all__) == len(set(fedproj.__all__))
    assert [n for n in fedproj.__all__ if not hasattr(fedproj, n)] == []


def test_every_exported_object_is_listed():
    exported = {n for n, v in vars(fedproj).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported <= set(fedproj.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from fedproj import *", namespace)
    assert set(fedproj.__all__) <= set(namespace)
