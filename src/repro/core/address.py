"""Physical memory address mapping.

Section VI-A specifies the mapping ``RW:CLH:BK:CT:VL:LC:CLL:BY`` (MSB to
LSB): Row, Column-High, Bank, Cluster ID, Vault, Local-HMC ID, Column-Low,
Byte offset.  Reading LSB-up, a physical address interleaves:

- bytes within a 32 B block (BY) and column-low (CLL) — together one cache
  line (128 B);
- consecutive cache lines across the **local HMCs of one cluster** (LC) —
  this is the fine-grained intra-cluster interleaving that flattens
  intra-cluster traffic variance (Section V-A) and justifies removing
  intra-cluster channels in sFBFLY;
- then across the vaults of an HMC (VL);
- the cluster ID (CT) sits **above the 4 KB page offset**, so a page lives
  entirely within one cluster and page placement (Section III-C) decides
  which cluster a page maps to;
- bank (BK), column-high (CLH), and row (RW) complete the DRAM coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..errors import AddressError
from ..mem import DecodedAddress


def _log2_exact(value: int, what: str) -> int:
    if value < 1 or value & (value - 1):
        raise AddressError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressMapping:
    """Bit-field memory address mapping (``RW:CLH:BK:CT:VL:LC:CLL:BY``)."""

    num_clusters: int = 4
    hmcs_per_cluster: int = 4
    vaults_per_hmc: int = 16
    banks_per_vault: int = 16
    line_bytes: int = 128
    row_bytes: int = 2048
    row_bits: int = 14
    byte_block: int = 32
    #: Granularity of interleaving across a cluster's local HMCs.  The
    #: paper's mapping is ``"line"`` (the LC field sits just above the
    #: cache-line offset, Section III-C); ``"page"`` moves LC above the
    #: cluster field so an entire page maps to one local HMC — the ablation
    #: that shows why line interleaving is what flattens intra-cluster
    #: traffic (Section V-A).
    intra_cluster_interleave: str = "line"

    # Derived bit widths / shifts, computed in __post_init__.
    _fields: Tuple[Tuple[str, int, int], ...] = field(init=False, repr=False)
    #: name -> (shift, bits, mask); decode/extract run once per memory
    #: access, so the per-call field scan is replaced by dict/tuple lookups.
    _field_map: Dict[str, Tuple[int, int, int]] = field(
        init=False, repr=False, compare=False
    )
    #: Flat (shift, mask) pairs for CT, LC, VL, BK, RW in decode order.
    _decode_sm: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_bits = _log2_exact(self.byte_block, "byte block")
        line_bits = _log2_exact(self.line_bytes, "line size")
        if line_bits < by_bits:
            raise AddressError("line size smaller than the byte block")
        cll_bits = line_bits - by_bits
        lc_bits = _log2_exact(self.hmcs_per_cluster, "HMCs per cluster")
        vl_bits = _log2_exact(self.vaults_per_hmc, "vaults per HMC")
        ct_bits = max(1, (self.num_clusters - 1).bit_length())
        bk_bits = _log2_exact(self.banks_per_vault, "banks per vault")
        row_col_bits = _log2_exact(self.row_bytes, "row size")
        clh_bits = max(0, row_col_bits - line_bits)
        if self.intra_cluster_interleave == "line":
            # RW:CLH:BK:CT:VL:LC:CLL:BY (the paper's mapping).
            order = ("BY", "CLL", "LC", "VL", "CT", "BK", "CLH", "RW")
        elif self.intra_cluster_interleave == "page":
            # RW:BK:LC:CT:CLH:VL:CLL:BY — LC above the page offset, so a
            # whole page lives on one local HMC (CLH moves below the page
            # offset to keep the cluster field above it).
            order = ("BY", "CLL", "VL", "CLH", "CT", "LC", "BK", "RW")
        else:
            raise AddressError(
                f"unknown interleave {self.intra_cluster_interleave!r}; "
                "expected 'line' or 'page'"
            )
        widths = {
            "BY": by_bits,
            "CLL": cll_bits,
            "LC": lc_bits,
            "VL": vl_bits,
            "CT": ct_bits,
            "BK": bk_bits,
            "CLH": clh_bits,
            "RW": self.row_bits,
        }
        fields = []
        shift = 0
        for name in order:
            fields.append((name, shift, widths[name]))
            shift += widths[name]
        object.__setattr__(self, "_fields", tuple(fields))
        field_map = {
            name: (shift, bits, (1 << bits) - 1) for name, shift, bits in fields
        }
        object.__setattr__(self, "_field_map", field_map)
        object.__setattr__(
            self,
            "_decode_sm",
            tuple(
                v
                for name in ("CT", "LC", "VL", "BK", "RW")
                for v in (field_map[name][0], field_map[name][2])
            ),
        )

    # ------------------------------------------------------------------
    def field_info(self, name: str) -> Tuple[int, int]:
        """(shift, width) of a named field."""
        try:
            shift, bits, _ = self._field_map[name]
        except KeyError:
            raise AddressError(f"unknown address field {name!r}") from None
        return shift, bits

    def extract(self, paddr: int, name: str) -> int:
        try:
            shift, _, mask = self._field_map[name]
        except KeyError:
            raise AddressError(f"unknown address field {name!r}") from None
        return (paddr >> shift) & mask

    @property
    def total_bits(self) -> int:
        _, shift, bits = self._fields[-1]
        return shift + bits

    @property
    def address_space_bytes(self) -> int:
        return 1 << self.total_bits

    # ------------------------------------------------------------------
    def decode(self, paddr: int) -> DecodedAddress:
        """Decode a physical address into its memory-system coordinates."""
        if paddr < 0:
            raise AddressError(f"negative physical address {paddr}")
        ct_s, ct_m, lc_s, lc_m, vl_s, vl_m, bk_s, bk_m, rw_s, rw_m = self._decode_sm
        cluster = (paddr >> ct_s) & ct_m
        if cluster >= self.num_clusters:
            raise AddressError(
                f"address 0x{paddr:x} decodes to cluster {cluster} "
                f">= {self.num_clusters}"
            )
        # Positional: decode runs once per memory request.
        return DecodedAddress(
            cluster,
            (paddr >> lc_s) & lc_m,
            (paddr >> vl_s) & vl_m,
            (paddr >> bk_s) & bk_m,
            (paddr >> rw_s) & rw_m,
        )

    def compose(
        self,
        cluster: int,
        local_hmc: int,
        vault: int,
        bank: int,
        row: int,
        column: int = 0,
        byte: int = 0,
    ) -> int:
        """Inverse of :meth:`decode` (column is split into CLH:CLL)."""
        values: Dict[str, int] = {
            "CT": cluster,
            "LC": local_hmc,
            "VL": vault,
            "BK": bank,
            "RW": row,
            "BY": byte,
        }
        _, cll_bits = self.field_info("CLL")
        values["CLL"] = column & ((1 << cll_bits) - 1)
        values["CLH"] = column >> cll_bits
        paddr = 0
        for name, shift, bits in self._fields:
            value = values.get(name, 0)
            if value >= (1 << bits) and bits >= 0:
                raise AddressError(
                    f"field {name} value {value} does not fit in {bits} bits"
                )
            paddr |= value << shift
        return paddr

    # ------------------------------------------------------------------
    # Page-frame composition (for page placement)
    # ------------------------------------------------------------------
    def page_frame_base(self, cluster: int, frame_seq: int, page_bytes: int) -> int:
        """Physical base address of the ``frame_seq``-th page frame of a
        cluster.

        The frame's address bits must keep CT equal to ``cluster`` for every
        offset within the page, so ``frame_seq`` fills all frame bits except
        the CT field.
        """
        if cluster >= self.num_clusters:
            raise AddressError(f"cluster {cluster} >= {self.num_clusters}")
        page_bits = _log2_exact(page_bytes, "page size")
        ct_shift, ct_bits = self.field_info("CT")
        if ct_shift < page_bits:
            raise AddressError(
                "cluster field overlaps the page offset; page-grain cluster "
                "placement is impossible with this mapping"
            )
        base = 0
        seq = frame_seq
        bit = page_bits
        while seq:
            if ct_shift <= bit < ct_shift + ct_bits:
                bit = ct_shift + ct_bits  # skip over the CT field
                continue
            base |= (seq & 1) << bit
            seq >>= 1
            bit += 1
        base |= cluster << ct_shift
        if base + page_bytes > self.address_space_bytes * (1 << 8):
            raise AddressError("page frame sequence exhausted the address space")
        return base

    def frames_per_cluster(self, page_bytes: int) -> int:
        """How many page frames fit in one cluster's capacity."""
        page_bits = _log2_exact(page_bytes, "page size")
        _, ct_bits = self.field_info("CT")
        return 1 << max(0, self.total_bits - page_bits - ct_bits)
