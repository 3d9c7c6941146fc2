"""Compile a validated experiment into a deployment plan.

The plan carries one deduplicated environment spec per distinct
(pipeline digest, node kind) pair, each distinct pipeline once (keyed by
digest), a per-node execution bundle that names its pipeline by digest, and
cleanup command sequences per node kind. Compilation is a pure function:
identical experiment and registry yield a byte-identical plan document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ValidationFailed
from .model import (DocCodec, Experiment, StagedFile, canonical_json,
                    check_experiment)
from .registry import TaskRegistry

# Connector-interpreted token: wipe the node's scratch area. Kept symbolic so
# every connector (local dir, ssh workdir, simulated virtual fs) can implement
# it natively instead of trusting an rm -rf string.
CLEAN_SCRATCH_COMMAND = "expforge-clean-scratch"


@dataclass(frozen=True)
class EnvironmentSpec(DocCodec):
    """Setup and verification for one (pipeline digest, node kind) pair."""

    pipeline_digest: str
    node_kind: str
    setup_commands: tuple[str, ...] = ()
    staged_files: tuple[StagedFile, ...] = ()
    verify_commands: tuple[str, ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        return (self.pipeline_digest, self.node_kind)


@dataclass(frozen=True)
class DeploymentPlan(DocCodec):
    environment_specs: tuple[EnvironmentSpec, ...]
    pipelines: Mapping[str, dict]  # pipeline digest -> pipeline doc
    node_bundles: Mapping[str, dict]
    cleanup_commands: Mapping[str, tuple[str, ...]]

    def spec_for(self, pipeline_digest: str, kind: str) -> EnvironmentSpec:
        for spec in self.environment_specs:
            if spec.key == (pipeline_digest, kind):
                return spec
        raise KeyError((pipeline_digest, kind))

    def canonical(self) -> str:
        return canonical_json(self.to_doc())


def _binary_verify_command(name: str) -> str:
    return f"command -v {name}"


def compile_experiment(exp: Experiment, registry: TaskRegistry) -> DeploymentPlan:
    """Build the deployment plan from the validation walk's resolutions.

    Raises :class:`ValidationFailed` when the experiment does not validate.
    """
    issues, resolved = check_experiment(exp, registry)
    if issues:
        raise ValidationFailed(issues)

    specs: dict[tuple[str, str], EnvironmentSpec] = {}
    pipelines: dict[str, dict] = {}
    bundles: dict[str, dict] = {}
    cleanup: dict[str, list[str]] = {}

    for index, assignment in enumerate(exp.assignments):
        pipeline_doc, pipeline_digest = assignment.pipeline.digested_doc()
        pipelines.setdefault(pipeline_digest, pipeline_doc)
        for node in assignment.nodes:
            impl_ids, body = resolved[(index, node.kind)]
            key = (pipeline_digest, node.kind)
            if key not in specs:
                verify = list(body.verify_commands)
                for binary in body.binaries:
                    probe = _binary_verify_command(binary.name)
                    if probe not in verify:
                        verify.append(probe)
                specs[key] = EnvironmentSpec(
                    pipeline_digest=pipeline_digest,
                    node_kind=node.kind,
                    setup_commands=body.setup_commands,
                    staged_files=body.staged_files,
                    verify_commands=tuple(verify),
                )
                kind_cleanup = cleanup.setdefault(node.kind, [])
                for impl_id in impl_ids.values():
                    for cmd in registry.implementation(impl_id).cleanup_commands:
                        if cmd not in kind_cleanup:
                            kind_cleanup.append(cmd)
            bundles[node.node_id] = {
                "experiment_id": exp.experiment_id,
                "node_id": node.node_id,
                "node_kind": node.kind,
                "pipeline_digest": pipeline_digest,
                "impl_ids": dict(impl_ids),
            }

    for kind in cleanup:
        if CLEAN_SCRATCH_COMMAND not in cleanup[kind]:
            cleanup[kind].append(CLEAN_SCRATCH_COMMAND)

    return DeploymentPlan(
        environment_specs=tuple(specs.values()),
        pipelines=pipelines,
        node_bundles=bundles,
        cleanup_commands={k: tuple(v) for k, v in cleanup.items()},
    )
