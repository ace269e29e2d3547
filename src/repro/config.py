"""Typed engine selection — one config object for every backend knob.

:class:`EngineConfig` is the one way to choose an implementation
backend; it bundles four selectors, each with one vocabulary defined
here and imported by every module that checks it:

* ``cover_kernel`` (:data:`COVER_KERNELS`) — the
  :func:`~repro.core.algorithms.greedy_marginal_cover` kernel that AL
  construction and repair run on (``kernel=`` on that function and on
  the constructors);
* ``routing`` (:data:`ROUTING_ENGINES`) — the path backend
  (``engine=`` on the :mod:`repro.sdn.routing` functions);
* ``solver`` (:data:`SOLVER_ENGINES`) — greedy or exact optimization;
* ``workers`` — the default worker count of :meth:`AlvcStack.run_sweep
  <repro.stack.AlvcStack.run_sweep>`.

:meth:`repro.stack.AlvcStack.build` accepts it::

    stack = AlvcStack.build(
        engines=EngineConfig(cover_kernel="bitset", routing="csr", workers=4)
    )

The stack threads the config through every collaborator (cluster
manager, AL constructor, reconfigurators, orchestrator routing, the
event simulator, sweep defaults); a library caller below the stack
passes the same choice per call.  There is no process-wide default to
set and no second constructor spelling (the retired ones are listed in
the migration table of ``docs/api_guide.md``).
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import ValidationError

#: Recognized cover-kernel selectors (see :mod:`repro.core.algorithms`).
COVER_KERNELS = ("auto", "set", "bitset")

#: Recognized routing-engine selectors (see :mod:`repro.sdn.routing`).
ROUTING_ENGINES = ("auto", "csr", "nx")

#: Recognized solver-engine selectors for AL construction and placement
#: (see :mod:`repro.opt`): greedy heuristics, the exact solvers, or
#: size-dependent auto fallback.
SOLVER_ENGINES = ("greedy", "exact", "auto")


@dataclasses.dataclass(frozen=True, slots=True)
class EngineConfig:
    """Which backend implementations a stack runs on.

    Every selector is purely an implementation choice: all kernels and
    engines are bit-identical on outputs, so an :class:`EngineConfig`
    never changes an experiment's result — only its speed.

    Attributes:
        cover_kernel: set-cover kernel for AL construction and repair
            (``"auto"`` picks bitset for universes of 64+ elements).
        routing: path-computation backend (``"auto"`` picks the CSR
            engine when the fabric's accessor caching is on).
        solver: optimization engine for AL construction and chain
            placement — ``"greedy"`` (the paper's heuristics, default),
            ``"exact"`` (the certified :mod:`repro.opt` cover MILP for
            AL construction; ``PlacementAlgorithm.EXACT`` for every
            provision, plan and modification that names no
            algorithm), or ``"auto"`` (exact on small instances,
            greedy beyond; for placement, chains of at most 12
            optical-capable functions go ``EXACT``).  Unlike the other
            selectors this one *can* change results — exact solutions
            may beat the greedy — so the default stays on the
            heuristic path.
        workers: default worker-process count for seeded sweeps
            (``1`` runs fully in-process).
    """

    cover_kernel: str = "auto"
    routing: str = "auto"
    solver: str = "greedy"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.cover_kernel not in COVER_KERNELS:
            raise ValidationError(
                f"unknown cover kernel {self.cover_kernel!r} "
                f"(expected one of {', '.join(COVER_KERNELS)})"
            )
        if self.routing not in ROUTING_ENGINES:
            raise ValidationError(
                f"unknown routing engine {self.routing!r} "
                f"(expected one of {', '.join(ROUTING_ENGINES)})"
            )
        if self.solver not in SOLVER_ENGINES:
            raise ValidationError(
                f"unknown solver engine {self.solver!r} "
                f"(expected one of {', '.join(SOLVER_ENGINES)})"
            )
        if (
            not isinstance(self.workers, int)
            or isinstance(self.workers, bool)
            or self.workers < 1
        ):
            raise ValidationError(
                f"workers must be a positive integer, got {self.workers!r}"
            )

    @classmethod
    def coerce(cls, value: "EngineConfig | dict | None") -> "EngineConfig":
        """Normalize ``engines=`` input: None, a config, or a kwargs dict.

        A dict may still carry the retired ``sim_engine``/``admission``
        keys (every journal genesis record written before the event
        simulator had one data plane stores them): they are validated
        as before and dropped.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            value = _without_retired_keys(value)
            try:
                return cls(**value)
            except TypeError as exc:
                raise ValidationError(f"bad EngineConfig mapping: {exc}") from None
        raise ValidationError(
            f"engines must be an EngineConfig, a dict, or None, "
            f"got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (journal genesis records store this)."""
        return dataclasses.asdict(self)


def _without_retired_keys(mapping: dict) -> dict:
    """Validate and strip the retired simulator selectors of a mapping.

    Raises:
        ValidationError: on a value the selectors never accepted.
    """
    sim_engines = ("incremental", "from_scratch", "legacy", "vector")
    admission_modes = ("auto", "per_event", "batched")
    sim_engine = mapping.get("sim_engine", "incremental")
    admission = mapping.get("admission", "auto")
    if sim_engine not in sim_engines:
        raise ValidationError(
            f"unknown simulation engine {sim_engine!r} "
            f"(expected one of {', '.join(sim_engines)})"
        )
    if admission not in admission_modes:
        raise ValidationError(
            f"unknown admission mode {admission!r} "
            f"(expected one of {', '.join(admission_modes)})"
        )
    if admission == "batched" and sim_engine != "vector":
        raise ValidationError(
            "admission='batched' requires sim_engine='vector', "
            f"got sim_engine={sim_engine!r}"
        )
    return {
        key: value
        for key, value in mapping.items()
        if key not in ("sim_engine", "admission")
    }
