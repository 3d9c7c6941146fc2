"""Task registry: resolution, manifest round trip, builtin closure."""

from __future__ import annotations

import pytest

from expforge.errors import UnsupportedTaskForKind
from expforge.registry import TaskImplementation, TaskRegistry
from expforge.tasks import builtin_implementations, builtin_registry


class _Impl(TaskImplementation):
    def __init__(self, task_type: str, kind: str):
        self.task_type = task_type
        self.kind = kind

    def run(self, params, ctx):
        return None


def test_register_and_resolve():
    registry = TaskRegistry([_Impl("probe", "simulated")])
    assert registry.resolve("probe", "simulated") == "probe@simulated"
    with pytest.raises(UnsupportedTaskForKind):
        registry.resolve("probe", "linux-shell")


def test_duplicate_registration_rejected():
    registry = TaskRegistry([_Impl("probe", "simulated")])
    with pytest.raises(ValueError):
        registry.register(_Impl("probe", "simulated"))


def test_unknown_impl_id():
    with pytest.raises(UnsupportedTaskForKind):
        builtin_registry().implementation("nope@simulated")


def test_builtin_closure_simulated_and_linux():
    # Every builtin task runs hermetically and on a real shell.
    registry = builtin_registry()
    for task_type in registry.task_types():
        for kind in ("simulated", "linux-shell"):
            impl_id = registry.resolve(task_type, kind)
            assert registry.implementation(impl_id).task_type == task_type


def test_manifest_roundtrip_preserves_resolution():
    registry = builtin_registry()
    manifest = registry.to_manifest()
    rebuilt = TaskRegistry.from_manifest(manifest, builtin_implementations())
    for task_type in registry.task_types():
        for kind in ("simulated", "linux-shell", "ssh-host"):
            assert rebuilt.resolve(task_type, kind) \
                == registry.resolve(task_type, kind)


def test_manifest_with_unknown_impl_rejected():
    manifest = {"tasks": {"probe": {"simulated": "probe@simulated"}}}
    with pytest.raises(UnsupportedTaskForKind):
        TaskRegistry.from_manifest(manifest, [])


def test_manifest_entry_mismatch_rejected():
    manifest = {"tasks": {"probe": {"linux-shell": "probe@simulated"}}}
    with pytest.raises(ValueError):
        TaskRegistry.from_manifest(manifest, [_Impl("probe", "simulated")])


def test_implementation_without_type_or_kind_rejected():
    class Nameless(TaskImplementation):
        kind = "simulated"

    with pytest.raises(ValueError, match="must declare task_type and kind"):
        TaskRegistry([Nameless()])
