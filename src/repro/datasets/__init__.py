"""Synthetic workload generators reproducing the paper's datasets (§8)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .dblp import DBLPData, author_occurrences, generate_dblp
    from .mag import MAGData, generate_mag
    from .names import author_pool, journal_pool, make_name, make_title
    from .noise import inject_value_noise, perturb_string, zipf_choice, zipf_int
    from .tpch import (
        CustomerData, generate_customer, generate_lineitem, rule_phi, rule_psi,
    )

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "dblp": ("DBLPData", "author_occurrences", "generate_dblp"),
    "mag": ("MAGData", "generate_mag"),
    "names": ("author_pool", "journal_pool", "make_name", "make_title"),
    "noise": ("inject_value_noise", "perturb_string", "zipf_choice", "zipf_int"),
    "tpch": (
        "CustomerData", "generate_customer", "generate_lineitem", "rule_phi",
        "rule_psi",
    ),
})
