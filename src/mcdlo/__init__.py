"""Model checking and formula translation for weak monadic second-order
logic over the dense linear order [0, 1) in the rationals.

Structures: W(I) (finite subsets), L(I) (finite unions of closed
intervals), and the finite orders MSO(n).  The toolkit parses formulas in
several signatures, evaluates them by budgeted grid search, reduces
first-order variables out of two-sorted formulas, translates formulas with
finite-set parameters to parameter-free sentences, and rewrites formulas
between the signatures of MSO(n), W(I), and L(I).
"""

from .order import FinSet, IntervalUnion, Rat, format_rat, parse_rat
from .models import (ElementRestriction, LciStructure, MsoFin, WsoStructure,
                     eval_atomic, eval_term, restrict)
from .semantics import EvalReport, bruteforce_eval, grid_eval, stabilize
from .syntax import (MO, MSOFIN, WSO, LCI, SIGNATURES, parse, print_formula)
from .rewriting import (CodePair, code_domain, defeq_translate,
                        l_in_w_translate, lci_existential_rewrite,
                        qf_positive_rewrite, relativize, w_in_l_translate)
from .fefvau import (ParameterTranslation, PowerStructure, fv_reduce,
                     translate_with_parameters)

__version__ = "0.1.0"

__all__ = [
    "Rat", "FinSet", "IntervalUnion", "format_rat", "parse_rat",
    "MsoFin", "WsoStructure", "LciStructure", "ElementRestriction",
    "restrict", "eval_term", "eval_atomic",
    "EvalReport", "bruteforce_eval", "grid_eval", "stabilize", "relativize",
    "MO", "MSOFIN", "WSO", "LCI", "SIGNATURES", "parse", "print_formula",
    "CodePair", "code_domain", "defeq_translate", "qf_positive_rewrite",
    "w_in_l_translate", "l_in_w_translate", "lci_existential_rewrite",
    "fv_reduce", "translate_with_parameters", "ParameterTranslation",
    "PowerStructure",
    "__version__",
]
