"""NVLink-style processor-centric network substrate (extension)."""

from .pcn import PCNFabric

__all__ = ["PCNFabric"]
