import sys

# The substitution walk still recurses into arguments and the bodies of
# abstractions, though it loops down a left spine, and the dataclass-made
# == and hash of terms recurse on term depth.  free_vars reads the
# set each node is built with, and normal-order beta reduction, head
# reduction, the eta pass, alpha_eq, the parser and pretty do not recurse;
# tests/test_terms.py, tests/test_reduction.py, tests/test_differential.py
# and tests/test_parser.py check them on terms deeper than this limit, and
# tests/test_cli.py runs the CLI and long left spines in a new interpreter
# at the default limit.  Generated and intermediate terms stay in the low
# hundreds of levels, but leave plenty of headroom.
sys.setrecursionlimit(20_000)
