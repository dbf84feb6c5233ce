"""Exact-arithmetic toolkit for a catalog of Q-Fano threefold weighted
complete intersections: singularity baskets, Kawamata-blowup intersection
numbers, exclusion certificates and Sarkisov-link data, verified against
golden classification tables."""

from .catalog import Catalog, load_catalog
from .report import build_report, verify_tables

__version__ = "0.1.0"

__all__ = ["Catalog", "load_catalog", "build_report", "verify_tables"]
