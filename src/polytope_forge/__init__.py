"""Exact reconstruction of a chiral {8,3,3} polytope sharing the 4-cube's
skeleton, its minimal regular cover in E^8, and the Moebius-Kantor
configuration 8_3 over Q(sqrt(3), i).

Everything outside the SVG renderer is exact integer / rational arithmetic.
"""

__version__ = "0.1.0"

from .signedperm import SignedPerm, block_pair

__all__ = ["SignedPerm", "block_pair", "__version__"]
