"""The campaign service: socket worker fleet, coordinator, HTTP server.

``repro.service`` runs campaigns beyond one process pool:

* :mod:`repro.service.protocol` -- length-prefixed JSON-over-TCP framing
  shared by workers and the coordinator;
* :mod:`repro.service.worker` -- the shard worker loop (CLI: ``talft
  shard-worker``), executing injection steps and streaming results;
* :mod:`repro.service.coordinator` -- :func:`run_campaign_sharded`:
  the local process pool, or a step source for the campaign driver that
  plans shards over remote TCP workers, steals work from slow workers
  and reissues from dead ones;
* :mod:`repro.service.store` -- :class:`JobStore`: the append-only,
  CRC-framed job journal behind ``talft serve --state-dir`` that makes
  the control plane itself crash-safe;
* :mod:`repro.service.scheduler` -- :class:`FairScheduler`: weighted
  fair queueing across tenants, per-tenant priorities, bounded
  admission with ``Retry-After`` backpressure, cooperative cancellation
  and graceful drain;
* :mod:`repro.service.server` -- ``talft serve``: a stdlib HTTP/JSON
  endpoint accepting campaign jobs and exposing live progress and the
  Prometheus registry.

The contract everything here defends: a sharded campaign's report is
**bit-identical** (fingerprint-equal, ``latency_buckets`` included) to
the single-process run, no matter how many workers, how they die, or in
what order results arrive -- and, since PR 9, no matter whether the
*service process itself* survives: a SIGKILLed ``talft serve`` restarted
with the same ``--state-dir`` resumes every interrupted job to the exact
report an uninterrupted run would have produced.
"""

from repro.service.coordinator import run_campaign_sharded
from repro.service.protocol import Connection, ProtocolError
from repro.service.scheduler import FairScheduler, QueueFull
from repro.service.server import CampaignService, serve_http
from repro.service.store import JobStore

__all__ = [
    "CampaignService",
    "Connection",
    "FairScheduler",
    "JobStore",
    "ProtocolError",
    "QueueFull",
    "run_campaign_sharded",
    "serve_http",
]
