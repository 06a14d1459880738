import sys

# free_vars, substitute and dataclass == on terms still recurse on term
# depth.  Normal-order beta reduction, head reduction, the eta pass,
# alpha_eq, the parser and pretty do not, and
# tests/test_reduction.py, tests/test_differential.py and
# tests/test_parser.py check them on terms deeper than this limit;
# tests/test_cli.py runs the CLI in a new interpreter at the default limit.  Generated and intermediate terms stay
# in the low hundreds of levels, but leave plenty of headroom.
sys.setrecursionlimit(20_000)
