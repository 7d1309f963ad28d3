"""The ``impl`` axis shared by the kernel test modules.

Every kernel entry point has one selector — ``load_cext()`` as imported
by :mod:`repro.core.kernels.masked` (synthesis) and
:mod:`repro.core.kernels.graph` (analysis) — so pinning an implementation
means patching that name at those two sites and nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.kernels import cext, collect_kernel_timings, graph, masked

#: what a same-run comparison can loop over on this box
IMPLS = ("cext", "twin") if cext.load_cext() is not None else ("twin",)


@contextmanager
def use_impl(name: str):
    """Run the body on the C kernels as loaded (``"cext"``, skipping with
    the build error when there is no compiler) or on the numpy/scipy
    twins with the extension masked out (``"twin"``).  For tests that
    cannot take the fixture: hypothesis bodies, same-run comparisons."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "cext":
            if cext.load_cext() is None:
                pytest.skip(f"C extension unavailable: {cext.cext_error()}")
        else:
            patch.setattr(masked, "load_cext", lambda: None)
            patch.setattr(graph, "load_cext", lambda: None)
        # stage clocks and twin counts left on this thread by direct
        # kernel calls of earlier tests must not reach this one's reports
        collect_kernel_timings()
        yield name


# the twin's id predates its name: kept so test ids compare across commits
@pytest.fixture(params=["cext", pytest.param("twin", id="pyref")])
def impl(request):
    """Pin the implementation behind the kernel entry points."""
    with use_impl(request.param) as name:
        yield name


class _HandleSpy:
    """Stands in for the ``ctypes.CDLL``: records each entry point
    looked up on it, then hands back the real one."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.calls: list[str] = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._lib, name)


@pytest.fixture()
def ctypes_calls(monkeypatch):
    """The names of the C entry points called while the test runs."""
    kernels = cext.load_cext()
    if kernels is None:
        pytest.skip(f"C extension unavailable: {cext.cext_error()}")
    spy = _HandleSpy(kernels._lib)
    monkeypatch.setattr(kernels, "_lib", spy)
    return spy.calls
