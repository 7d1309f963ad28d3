"""The synthesis planner: one validated object carrying every knob.

The contract under test: a ``SynthesisPlan`` threaded through any
consumer — ``synthesize_from_logs``, the streaming synthesizer, layer
caches, the BSP pipeline — produces exactly what the equivalent loose
keyword arguments produce, and plan validation happens once, at
construction.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DEFAULT_PLAN,
    StreamingSynthesizer,
    SynthesisPlan,
    synthesize_from_logs,
)
from repro.core.kernels import BACKENDS
from repro.distrib import SerialPool, ThreadPool
from repro.errors import SynthesisError
from tests.core.test_kernel_equivalence import (
    N_PERSONS,
    T0,
    T1,
    csr_identical,
    write_tricky_logs,
)


@pytest.fixture(scope="module")
def plan_logs(tmp_path_factory):
    return write_tricky_logs(tmp_path_factory.mktemp("plan-logs"), seed=55)


class TestPlanValidation:
    def test_defaults_resolve(self):
        assert DEFAULT_PLAN.kernel == "intervals"
        assert DEFAULT_PLAN.backend in BACKENDS  # eagerly resolved

    @pytest.mark.parametrize(
        "bad",
        [
            {"kernel": "quantum"},
            {"backend": "cuda"},
            {"pool_kind": "fork-bomb"},
            {"batch_size": 0},
            {"tile_hours": 0},
        ],
    )
    def test_invalid_knobs_raise_at_construction(self, bad):
        with pytest.raises(SynthesisError):
            SynthesisPlan(**bad)

    def test_dispatch_knob_is_gone(self):
        """One record path: there is nothing left to select."""
        with pytest.raises(TypeError):
            SynthesisPlan(dispatch="value")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            synthesize_from_logs(".", N_PERSONS, T0, T1, dispatch="zero-copy")

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PLAN.kernel = "dense-hours"  # type: ignore[misc]

    def test_with_derives_without_mutation(self):
        derived = DEFAULT_PLAN.with_(strict=True, batch_size=4)
        assert derived.strict and derived.batch_size == 4
        assert not DEFAULT_PLAN.strict and DEFAULT_PLAN.batch_size == 16

    def test_describe_mentions_resolved_backend(self):
        text = SynthesisPlan(strict=True).describe()
        assert "kernel=intervals" in text
        assert "backend=" in text and "auto" not in text
        assert "strict" in text

    def test_make_pool_kinds(self):
        assert isinstance(SynthesisPlan().make_pool(), SerialPool)
        pool = SynthesisPlan(pool_kind="thread", n_workers=2).make_pool()
        try:
            assert isinstance(pool, ThreadPool)
        finally:
            pool.close()


class TestPlanAuthority:
    """plan= wins over the loose keyword arguments it replaces."""

    def test_plan_equals_loose_kwargs(self, plan_logs):
        loose, _ = synthesize_from_logs(
            plan_logs, N_PERSONS, T0, T1,
            kernel="dense-hours", batch_size=3,
        )
        plan = SynthesisPlan(kernel="dense-hours", batch_size=3)
        via_plan, report = synthesize_from_logs(
            plan_logs, N_PERSONS, T0, T1, plan=plan
        )
        assert csr_identical(loose.adjacency, via_plan.adjacency)
        assert report.kernel == "dense-hours"

    def test_plan_overrides_conflicting_kwargs(self, plan_logs):
        plan = SynthesisPlan(kernel="intervals")
        _, report = synthesize_from_logs(
            plan_logs, N_PERSONS, T0, T1, kernel="dense-hours", plan=plan
        )
        assert report.kernel == "intervals"

    def test_explicit_checkpoint_beats_plan(self, plan_logs, tmp_path):
        """checkpoint/resume args are call-site state, not configuration:
        an explicit argument wins over the plan's default."""
        plan = SynthesisPlan(checkpoint=str(tmp_path / "plan-ckpt"))
        ckpt = tmp_path / "call-ckpt"
        synthesize_from_logs(
            plan_logs, N_PERSONS, T0, T1, checkpoint=ckpt, plan=plan
        )
        assert ckpt.exists()
        assert not (tmp_path / "plan-ckpt").exists()

    def test_plan_builds_and_owns_pool(self, plan_logs):
        plan = SynthesisPlan(pool_kind="thread", n_workers=2)
        net, report = plan.synthesize(plan_logs, N_PERSONS, T0, T1)
        ref, _ = synthesize_from_logs(plan_logs, N_PERSONS, T0, T1)
        assert report.n_workers == 2
        assert csr_identical(net.adjacency, ref.adjacency)

    def test_streaming_accepts_plan(self, plan_logs):
        plan = SynthesisPlan(batch_size=2)
        ref = StreamingSynthesizer(N_PERSONS, interval_hours=48, batch_size=2)
        via = StreamingSynthesizer(N_PERSONS, interval_hours=48, plan=plan)
        a = ref.process(plan_logs, 2)
        b = via.process(plan_logs, 2)
        for x, y in zip(a.networks, b.networks):
            assert csr_identical(x.adjacency, y.adjacency)


class TestPlanCacheFactory:
    def test_build_cache_round_trip(self, plan_logs, tmp_path):
        plan = SynthesisPlan(tile_hours=12, cache_dir=str(tmp_path / "t"))
        with plan.build_cache(plan_logs, N_PERSONS) as cache:
            got = cache.query_window(T0, T1)
        want, _ = synthesize_from_logs(
            plan_logs, N_PERSONS, T0, T1, kernel="intervals"
        )
        assert csr_identical(got.adjacency, want.adjacency)
        assert (tmp_path / "t").exists()

    def test_build_cache_rejects_dense_kernel(self, plan_logs):
        plan = SynthesisPlan(kernel="dense-hours")
        with pytest.raises(SynthesisError, match="interval"):
            plan.build_cache(plan_logs, N_PERSONS)
