"""numlam: a workbench for numeral systems in the untyped lambda calculus."""

from .terms import (
    App,
    F,
    I,
    Lam,
    T,
    Term,
    Var,
    alpha_eq,
    app,
    free_vars,
    is_closed,
    lam,
    mk_pair,
    size,
    substitute,
)
from .parser import (
    DuplicateNameError,
    ParseError,
    Program,
    parse_program,
    parse_term,
    pretty,
)
from .reduction import (
    DEFAULT_FUEL,
    Fuel,
    Normal,
    NotBetaNormalError,
    OutOfFuel,
    beta_eta_normalize,
    beta_normalize,
    eta_normalize,
    head_reduce,
    is_beta_eta_normal,
)
from .report import CheckCase, CheckReport, beta_eta_eq, eq_case
from .numerals import (
    CHURCH_SEQUENCE,
    SYSTEM_NAMES,
    NumeralSystem,
    SequenceSpec,
    UnknownSystemError,
    a_numeral,
    b_numeral,
    bprime_numeral,
    barendregt,
    builtin_system,
    c_numeral,
    church,
    is_generator,
    tilde_numeral,
)
from .harness import (
    NumericFunction,
    check_definable,
    check_predecessor,
    check_successor,
    check_system,
    check_zero_test,
    church_k_term,
    k_function,
    phi_from_zero_test,
    spz_from_k,
    zero_test_from_phi,
)

__version__ = "0.1.0"
