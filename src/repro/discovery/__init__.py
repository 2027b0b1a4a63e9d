"""Access-constraint discovery and incremental maintenance (Section 7, C1)."""

from .maintenance import MaintenanceReport, Update, apply_updates
from .mining import DiscoveryConfig, discover_access_schema, discover_constraints

__all__ = [
    "DiscoveryConfig",
    "MaintenanceReport",
    "Update",
    "apply_updates",
    "discover_access_schema",
    "discover_constraints",
]
