"""Decentralized Aequus service stack: USS, UMS, PDS, FCS, IRS, and the
simulated network connecting installations (paper Figure 2)."""

from .cache import CacheStats, TTLCache
from .fcs import FairshareCalculationService
from .irs import IdentityResolutionError, IdentityResolutionService, table_endpoint
from .messages import (PolicyExportMessage, UsageDeltaMessage,
                       UsageResyncRequest)
from .network import Network, NetworkStats
from .pds import PolicyDistributionService
from .site import AequusSite, ParticipationMode, SiteConfig, connect_sites
from .ums import UsageMonitoringService
from .uss import UsageStatisticsService

__all__ = [
    "CacheStats", "TTLCache",
    "FairshareCalculationService",
    "IdentityResolutionError", "IdentityResolutionService", "table_endpoint",
    "PolicyExportMessage", "UsageDeltaMessage", "UsageResyncRequest",
    "Network", "NetworkStats",
    "PolicyDistributionService",
    "AequusSite", "ParticipationMode", "SiteConfig", "connect_sites",
    "UsageMonitoringService",
    "UsageStatisticsService",
]
