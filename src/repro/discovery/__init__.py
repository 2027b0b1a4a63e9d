"""Access-constraint discovery and incremental maintenance (Section 7, C1)."""

from .maintenance import MaintenanceReport, Update, apply_updates
from .mining import DiscoveryConfig, discover_access_schema, discover_constraints
from .workload_cover import WorkloadCoverResult, cover_workload, cover_workload_from_data

__all__ = [
    "DiscoveryConfig",
    "MaintenanceReport",
    "Update",
    "WorkloadCoverResult",
    "apply_updates",
    "cover_workload",
    "cover_workload_from_data",
    "discover_access_schema",
    "discover_constraints",
]
