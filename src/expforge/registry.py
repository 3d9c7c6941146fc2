"""Task registry: maps (task type, node kind) to concrete implementations.

Implementations are kind-specific subclasses of :class:`TaskImplementation`.
Resolution prefers an exact kind match, then walks the kind's declared
fallback chain (an ssh host runs the same executor binary as a plain Linux
shell, so linux-shell implementations serve as its fallback).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, TYPE_CHECKING

from .errors import UnsupportedTaskForKind
from .model import EMPTY_ENVIRONMENT, EnvironmentRequirement

if TYPE_CHECKING:  # pragma: no cover
    from .executor import TaskContext

KIND_FALLBACKS: dict[str, tuple[str, ...]] = {
    "ssh-host": ("linux-shell",),
}


class TaskImplementation:
    """Target-specific run method for one task type on one node kind.

    Subclasses set ``task_type`` and ``kind``, optionally declare an
    ``environment`` requirement and ``cleanup_commands``, and implement
    :meth:`run`. Implementations must be reentrant: the same instance may run
    concurrently within a stage under different names and params, and must not
    touch state outside the task context and its node scratch scope.
    """

    task_type: str = ""
    kind: str = ""
    environment: EnvironmentRequirement = EMPTY_ENVIRONMENT
    cleanup_commands: tuple[str, ...] = ()

    @property
    def impl_id(self) -> str:
        return f"{self.task_type}@{self.kind}"

    def run(self, params: Mapping[str, Any], ctx: "TaskContext") -> str | bytes | None:
        """Execute and return the result payload; raise TaskError on failure.

        ``params`` is this run's own shallow copy. Values nested in it are
        shared with every node that runs the same pipeline and must not be
        changed.
        """
        raise NotImplementedError


class TaskError(Exception):
    """Raised by implementations to mark a failed (not crashed) task."""

    def __init__(self, message: str, payload: str | bytes | None = None):
        super().__init__(message)
        self.payload = payload


class TaskRegistry:
    def __init__(self, implementations: Iterable[TaskImplementation] = ()):
        self._by_key: dict[tuple[str, str], TaskImplementation] = {}
        self._by_id: dict[str, TaskImplementation] = {}
        for impl in implementations:
            self.register(impl)

    def register(self, impl: TaskImplementation) -> None:
        if not impl.task_type or not impl.kind:
            raise ValueError("implementation must declare task_type and kind")
        key = (impl.task_type, impl.kind)
        if key in self._by_key:
            raise ValueError(f"duplicate implementation for {key}")
        self._by_key[key] = impl
        self._by_id[impl.impl_id] = impl

    def resolve(self, task_type: str, kind: str) -> str:
        """Implementation id for (task_type, kind); exact match wins, then
        the kind's fallback chain. Deterministic by construction."""
        for candidate in (kind, *KIND_FALLBACKS.get(kind, ())):
            impl = self._by_key.get((task_type, candidate))
            if impl is not None:
                return impl.impl_id
        raise UnsupportedTaskForKind(
            f"no implementation of {task_type!r} for kind {kind!r}")

    def implementation(self, impl_id: str) -> TaskImplementation:
        try:
            return self._by_id[impl_id]
        except KeyError:
            raise UnsupportedTaskForKind(
                f"unknown implementation id {impl_id!r}") from None
