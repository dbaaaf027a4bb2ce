"""PCIe interconnect substrate."""

from .pcie import PCIeSwitch

__all__ = ["PCIeSwitch"]
