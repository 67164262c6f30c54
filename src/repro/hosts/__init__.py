"""Host machine models (Section 4 / Figure 9's ``other`` component) and
the multi-host event-engine driver (:mod:`repro.hosts.multihost`), with
the queued request stream it shares with the synchronous queued driver."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.hosts.multihost import (
        QUEUE_WORKLOADS,
        REQUEST_SECTORS,
        format_report,
        request_targets,
        run_multihost,
    )
    from repro.hosts.specs import (
        HostSpec,
        SPARCSTATION_10,
        ULTRASPARC_170,
        HOSTS,
    )

__all__ = [
    "HostSpec",
    "SPARCSTATION_10",
    "ULTRASPARC_170",
    "HOSTS",
    "QUEUE_WORKLOADS",
    "REQUEST_SECTORS",
    "request_targets",
    "run_multihost",
    "format_report",
]

__getattr__, __dir__ = lazy_exports(__name__)
