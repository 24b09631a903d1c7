"""``repro.service`` — the versioned wire frontend over the cluster.

The paper's requirements do not stop at the storage engine: a records
system is consumed over a network by many principals at once, and the
guarantees (authenticated principals, authorized and audited access,
predictable degradation under load) have to hold at that boundary too.
This package is that boundary:

* :mod:`repro.service.api` — the ``/v1`` wire schema and the stable
  error-code table;
* :mod:`repro.service.auth` — challenge-response authentication and
  bearer-token sessions (login, lockout, refresh rotation, revocation);
* :mod:`repro.service.admission` — per-actor token buckets and the
  bounded admission queue, decided by policy;
* :mod:`repro.service.service` — the transport-independent dispatcher
  (routing, authorization, exception mapping, the service audit chain);
* :mod:`repro.service.http` — the HTTP/1.1 glue, one thread per connection;
* :mod:`repro.service.client` — the blocking client the CLI, tests,
  and the E11 load generator use.
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.api import ERROR_CODES, SERVICE_CODES, ErrorBody, ErrorCode
from repro.service.auth import SessionBroker, decode_token, encode_token
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import ServiceServer
from repro.service.service import (
    CuratorService,
    Request,
    Response,
    Route,
    ServiceConfig,
)

__all__ = [
    "AdmissionController",
    "CuratorService",
    "ERROR_CODES",
    "ErrorBody",
    "ErrorCode",
    "Request",
    "Response",
    "Route",
    "SERVICE_CODES",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceServer",
    "SessionBroker",
    "TokenBucket",
    "decode_token",
    "encode_token",
]
