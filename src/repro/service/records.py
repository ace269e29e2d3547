"""Versioned, schema-checked state-journal records.

Every state-mutating control-plane operation is journaled as one
:class:`OpRecord` — the *command*, not the effect.  Because the whole
control plane is deterministic (seeded placement, seeded AL
construction, monotonic id allocators), replaying the recorded commands
through the same public entry points reconstructs a bit-identical
object graph; :mod:`repro.service.restore` is exactly that replay.

Record taxonomy
---------------

* **genesis** — the ``AlvcStack.build`` arguments; always ``seq == 0``.
* **command records** (replayed): ``register_service``, ``populate``,
  ``cluster``, ``provision``, ``teardown``, ``modify``, ``upgrade``,
  ``vm_migrate``, ``ops_failure``, ``ops_repair``, ``vnf_migrate``,
  ``vnf_scale``.
  ``provision`` records carry an ``entry`` field (``"stack"`` or
  ``"orchestrator"``) so replay re-enters through the same public
  surface the caller used — the stack entry lazily bootstraps clusters,
  the orchestrator entry does not.
* **annotation records** (``nested=True``, skipped on replay): the AL
  reconfiguration detail rows emitted by
  :class:`~repro.core.reconfiguration.AlReconfigurator` — useful for
  audit trails, redundant for state reconstruction because their parent
  command reproduces them.

Each record carries a ``version``; loaders reject versions they do not
understand, which is the hook for future rolling schema upgrades.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.exceptions import JournalError

#: Current record schema version.
RECORD_VERSION = 1

#: op -> required keys in ``data``.  Extra keys are allowed (forward
#: compatibility); missing ones fail validation at append *and* read.
SCHEMAS: dict[str, tuple[str, ...]] = {
    "genesis": ("build",),
    "register_service": (
        "name",
        "cpu_cores",
        "memory_gb",
        "storage_gb",
        "traffic_intensity",
    ),
    "populate": ("service", "vms"),
    "cluster": ("service",),
    "provision": (
        "entry",
        "tenant",
        "service",
        "chain",
        "flow_size_gb",
        "algorithm",
    ),
    "teardown": ("chain_id",),
    "modify": ("chain_id", "new_chain", "algorithm"),
    "upgrade": ("chain_id",),
    "vm_migrate": ("vm", "server"),
    "ops_failure": ("ops", "policy"),
    "ops_repair": ("ops",),
    "vnf_migrate": ("vnf", "host"),
    "vnf_scale": ("vnf", "factor"),
    "al_reconfig": ("action", "cost", "rebuilt"),
}

#: Ops whose records are replayed by :mod:`repro.service.restore`.
#: ``genesis`` seeds the rebuild; annotation ops are informational.
REPLAYED_OPS = frozenset(SCHEMAS) - {"genesis", "al_reconfig"}


@dataclasses.dataclass(frozen=True, slots=True)
class OpRecord:
    """One journaled control-plane operation.

    Attributes:
        seq: position in the journal (0 is always the genesis record).
        op: operation kind; a key of :data:`SCHEMAS`.
        data: JSON-serializable operation arguments.
        nested: True for annotation records emitted *inside* another
            command (skipped on replay).
        version: schema version the record was written under.
    """

    seq: int
    op: str
    data: dict
    nested: bool = False
    version: int = RECORD_VERSION

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "op": self.op,
            "data": self.data,
            "nested": self.nested,
            "v": self.version,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OpRecord":
        try:
            seq = int(payload["seq"])
            op = str(payload["op"])
            data = dict(payload["data"])
            nested = bool(payload.get("nested", False))
            version = int(payload.get("v", RECORD_VERSION))
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed journal record: {exc}") from None
        check_record(seq, op, data, version)
        return cls(seq, op, data, nested, version)


def validate_record(record: OpRecord) -> None:
    """Schema-check one record; raises :class:`JournalError` on mismatch."""
    check_record(record.seq, record.op, record.data, record.version)


def check_record(
    seq: int, op: str, data: Mapping, version: int = RECORD_VERSION
) -> None:
    """The schema rules of :func:`validate_record`, applied to a
    record's fields: the journal checks a record this way before it
    frames it, without building an :class:`OpRecord`."""
    if version > RECORD_VERSION:
        raise JournalError(
            f"record seq={seq} has version {version}; this "
            f"build reads up to version {RECORD_VERSION}"
        )
    required = SCHEMAS.get(op)
    if required is None:
        raise JournalError(f"record seq={seq} has unknown op {op!r}")
    missing = [key for key in required if key not in data]
    if missing:
        raise JournalError(
            f"record seq={seq} op={op!r} is missing "
            f"required field(s): {', '.join(missing)}"
        )
    if op == "genesis" and seq != 0:
        raise JournalError(f"genesis record must have seq 0, got {seq}")


# ----------------------------------------------------------------------
# Domain-object <-> spec converters (everything the journal must carry)
# ----------------------------------------------------------------------
def chain_to_spec(chain) -> dict:
    """Serialize a :class:`~repro.core.chaining.NetworkFunctionChain`.

    Function types are stored in full (demand vector, cost, optical
    capability) so replay never depends on a catalog lookup.
    """
    return {
        "chain_id": chain.chain_id,
        "bandwidth_gbps": chain.bandwidth_gbps,
        "partial_order": [list(pair) for pair in chain.partial_order],
        "anti_affinity": [list(pair) for pair in chain.anti_affinity],
        "functions": [
            {
                "name": function.name,
                "demand": {
                    "cpu_cores": function.demand.cpu_cores,
                    "memory_gb": function.demand.memory_gb,
                    "storage_gb": function.demand.storage_gb,
                },
                "per_gb_processing_cost": function.per_gb_processing_cost,
                "optical_capable": function.optical_capable,
            }
            for function in chain.functions
        ],
    }


def chain_from_spec(spec: Mapping):
    """Rebuild a :class:`NetworkFunctionChain` from its journaled spec."""
    from repro.core.chaining import NetworkFunctionChain
    from repro.nfv.functions import NetworkFunctionType
    from repro.topology.elements import ResourceVector

    functions = tuple(
        NetworkFunctionType(
            name=entry["name"],
            demand=ResourceVector(**entry["demand"]),
            per_gb_processing_cost=entry["per_gb_processing_cost"],
            optical_capable=entry["optical_capable"],
        )
        for entry in spec["functions"]
    )
    return NetworkFunctionChain(
        chain_id=spec["chain_id"],
        functions=functions,
        bandwidth_gbps=spec["bandwidth_gbps"],
        # Journals written before the constraint knobs lack these keys.
        partial_order=tuple(
            (int(a), int(b)) for a, b in spec.get("partial_order", ())
        ),
        anti_affinity=tuple(
            (int(a), int(b)) for a, b in spec.get("anti_affinity", ())
        ),
    )


def policy_to_spec(policy) -> dict | None:
    """Serialize a recovery policy, or None for the single-attempt default.

    Only :class:`repro.chaos.RecoveryPolicy` (and derivatives exposing
    the same constructor fields) can ride in a journal; an opaque
    duck-typed policy cannot be replayed and raises.
    """
    if policy is None:
        return None
    try:
        return {
            "max_attempts": policy.max_attempts,
            "base_delay": policy.base_delay,
            "backoff": policy.backoff,
            "jitter": policy.jitter,
            "max_delay": policy.max_delay,
            "seed": policy.seed,
        }
    except AttributeError:
        raise JournalError(
            f"cannot journal opaque recovery policy "
            f"{type(policy).__name__}; use repro.chaos.RecoveryPolicy "
            f"(its parameters are replayable)"
        ) from None


def policy_from_spec(spec: Mapping | None):
    """Rebuild the recovery policy recorded by :func:`policy_to_spec`."""
    if spec is None:
        return None
    from repro.chaos import RecoveryPolicy

    return RecoveryPolicy(**spec)
