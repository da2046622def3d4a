"""Generalized-bicycle CSS codes: construction, scalable families,
decoding, and logical-error-rate estimation."""

from .code import (CssCode, build_gb, code_from_dict, code_to_dict,
                   dimension_gcd, logical_basis, to_alist)
from .decoder import (DecodeOutcome, DecoderConfig, bp_minsum_batch, decode,
                      decode_batch, osd_postprocess)
from .distance import (BudgetExceeded, DistanceResult, min_distance)
from .extension import (ExtensionPlan, SparsityProfile, extend_family,
                        identity_plan, plan_from_dict, plan_to_dict,
                        sparsity_profile)
from .gf2poly import (RingPoly, f2_degree, f2_gcd, f2_mul, f2_weight,
                      format_poly, parse_poly, parse_ring_poly, ring_reduce,
                      x_pow_minus_one)
from .scalable import (ZeroInsertPlan, TripleBlockPlan, build_triple_family,
                       build_insertion_family, triple_extension_plan,
                       verify_embedding)
from .search import (SearchFilter, SearchHit, assemble_report,
                     breakeven_point, catalog, search_base_codes)
from .simulator import (NoiseModel, SimReport, classify_failure, estimate_ler,
                        reports_from_csv, reports_to_csv, sample_error, sweep,
                        threshold_estimate, wilson_interval)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
