"""Fault tolerance: retries, circuit breaking, fault injection, supervision.

The ROADMAP's "millions of users" story needs every serving and
maintenance process to be individually crash-safe before it can be
replicated: a malformed input line, a torn artifact write or a stalled
client must degrade one request — never the whole process.  This
package is the dependency-free layer that provides (and *proves*) that,
in four modules:

* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` (exponential
  backoff with deterministic seeded jitter), :class:`Deadline` and
  :class:`CircuitBreaker`: the reusable decision pieces, all driven by
  an injectable clock so tests never sleep;
* :mod:`~repro.resilience.faults` — :class:`FaultInjector`, a
  programmable chaos harness.  Production code marks its hazardous
  operations with :func:`fault_point` (a no-op until an injector is
  installed); tests script fault plans — fail the Nth call, delay,
  corrupt or truncate bytes, or :class:`CrashPoint` (a simulated
  process death that pierces ``except Exception``) — and assert the
  system recovers;
* :mod:`~repro.resilience.supervisor` — :class:`Supervisor`, an asyncio
  restart-with-capped-backoff driver, plus window *checkpointing*
  (:func:`save_checkpoint` / :func:`load_checkpoint`): an atomic,
  fsynced, hash-verified snapshot of a
  :class:`~repro.stream.buffer.StreamBuffer` window and its source
  offset, from which a restarted
  :class:`~repro.stream.maintenance.MaintenanceLoop` resumes and
  publishes models bit-identical to an uncrashed run;
* :mod:`~repro.resilience.container` — the one verified container
  under every binary file and the one durable atomic writer under every
  file the system keeps.

The serving stack builds on this: graceful drain and ``/readyz`` in
:class:`~repro.serve.server.PredictionServer`, last-good degradation
behind a :class:`CircuitBreaker` in
:class:`~repro.serve.server.PredictionService`, and quarantine of
corrupt versions in :class:`~repro.serve.registry.ModelRegistry`.
See ``docs/resilience.md`` for the supervision model, the checkpoint
format and a fault-plan cookbook; ``tests/test_resilience.py``
(``pytest -m chaos_smoke``) is the chaos suite.
"""

from repro.resilience.faults import (
    CrashPoint,
    FaultInjector,
    FaultRule,
    InjectedFault,
    fault_point,
)
from repro.resilience.policy import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.resilience.supervisor import (
    CheckpointError,
    RestartEvent,
    Supervisor,
    WindowCheckpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "CheckpointError",
    "CircuitBreaker",
    "CircuitOpenError",
    "CrashPoint",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "RestartEvent",
    "RetryPolicy",
    "Supervisor",
    "WindowCheckpoint",
    "fault_point",
    "load_checkpoint",
    "save_checkpoint",
]
