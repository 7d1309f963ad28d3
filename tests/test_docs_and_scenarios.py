"""Documentation coverage.

A library release requires doc comments on every public item; this test
walks the package and enforces it mechanically.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro


def walk_modules():
    seen = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        seen.append(info.name)
    return seen


ALL_MODULES = walk_modules()


class TestDocCoverage:
    def test_package_has_modules(self):
        assert len(ALL_MODULES) > 30

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_every_module_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_every_public_callable_documented(self, name):
        module = importlib.import_module(name)
        public = getattr(module, "__all__", None)
        if public is None:
            return
        for symbol in public:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if getattr(obj, "__module__", "").startswith("repro"):
                    assert (
                        obj.__doc__ and obj.__doc__.strip()
                    ), f"{name}.{symbol} lacks a docstring"

    def test_public_api_documented(self):
        undocumented = []
        for symbol in repro.__all__:
            obj = getattr(repro, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(symbol)
        assert not undocumented, undocumented
