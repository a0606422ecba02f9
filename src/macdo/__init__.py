"""Exact Macdonald polynomials, row-type raising operators, q-identity suites."""

from .algebra import (Frac, MPoly, NotDivisible, UniverseMismatch, VarUniverse,
                      frac_sum, mp_prod, mp_sum, qpoch, qpoch_factors, try_div,
                      universe)
from .macdonald import QDiffOp, macdonald_d, macdonald_d_det, macdonald_j, macdonald_p
from .partitions import Partition, parse_partition
from .qbinomial import interp_product_eval, interp_point, ordinary_qbinom, qbinom_x
from .raising import block_coeff, block_coeff_interp, hall_littlewood_p, row_raising_op

__version__ = "0.1.0"
