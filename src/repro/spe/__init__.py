"""Sum-product expressions and exact inference algorithms."""

from .analysis import cdf_table
from .analysis import entropy
from .analysis import expectation
from .analysis import marginal_support
from .analysis import mutual_information
from .analysis import probability_table
from .analysis import variance
from .base import DEFAULT_CACHE_ENTRIES
from .base import DensityPair
from .base import Memo
from .base import QueryCache
from .base import SPE
from .base import ZeroProbabilityError
from .base import assignment_key
from .base import clause_key
from .builders import factor_shared
from .builders import factor_sum_of_products
from .compiled import CompiledSPE
from .compiled import SpzError
from .compiled import compile_spe
from .compiled import load_spz
from .compiled import read_spz_payload
from .dedup import deduplicate
from .interning import clear_intern_table
from .interning import intern
from .interning import intern_stats
from .interning import intern_uid
from .interning import interning_enabled
from .interning import no_interning
from .interning import structural_key
from .leaf import Leaf
from .leaf import spe_leaf
from .product_node import ProductSPE
from .product_node import spe_product
from .serialize import spe_digest
from .serialize import spe_from_dict
from .serialize import spe_from_json
from .serialize import spe_to_dict
from .serialize import spe_to_json
from .sum_node import SumSPE
from .sum_node import spe_sum
from .visualize import to_dot

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "DensityPair",
    "Leaf",
    "Memo",
    "ProductSPE",
    "QueryCache",
    "SPE",
    "SumSPE",
    "ZeroProbabilityError",
    "assignment_key",
    "CompiledSPE",
    "SpzError",
    "cdf_table",
    "clause_key",
    "clear_intern_table",
    "compile_spe",
    "load_spz",
    "read_spz_payload",
    "deduplicate",
    "entropy",
    "expectation",
    "factor_shared",
    "factor_sum_of_products",
    "intern",
    "intern_stats",
    "intern_uid",
    "interning_enabled",
    "marginal_support",
    "mutual_information",
    "no_interning",
    "probability_table",
    "spe_digest",
    "spe_from_dict",
    "spe_from_json",
    "spe_leaf",
    "spe_product",
    "spe_sum",
    "spe_to_dict",
    "spe_to_json",
    "structural_key",
    "to_dot",
    "variance",
]
