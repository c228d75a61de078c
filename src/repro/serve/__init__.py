"""``repro.serve`` — simulation as a long-running service.

The service stack, bottom to top:

* :mod:`repro.serve.protocol` — the newline-delimited JSON codec and
  request validation shared by both sides of the socket;
* :mod:`repro.serve.server` — :class:`MbpServer`, the asyncio daemon
  composing the persistent :class:`~repro.core.engine.ExecutionEngine`
  (shared worker pool + resident traces), the content-addressed
  :class:`~repro.cache.SimulationCache` (multi-tenant result store)
  and request coalescing, behind per-client backpressure;
* :mod:`repro.serve.client` — :class:`MbpClient`, the blocking
  reference client behind ``mbp client``.

Start a daemon with ``mbp serve --socket mbp.sock``, or embed one with
:func:`start_in_thread`.  The full protocol reference and operational
guide live in ``docs/serve.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".client": ("MbpClient", "ServeError"),
    ".protocol": ("ERROR_CODES", "OPERATIONS", "PROTOCOL_VERSION",
                  "ProtocolError"),
    ".server": ("MbpServer", "ServeConfig", "ServerHandle",
                "start_in_thread"),
})

__all__ = [
    "PROTOCOL_VERSION",
    "OPERATIONS",
    "ERROR_CODES",
    "ProtocolError",
    "ServeConfig",
    "MbpServer",
    "ServerHandle",
    "start_in_thread",
    "MbpClient",
    "ServeError",
]
