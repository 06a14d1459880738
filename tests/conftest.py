import sys

# free_vars, substitute, to_indexed, the parser's _term/_atom, the eta pass
# and dataclass == on terms still recurse on term depth.  Normal-order beta
# reduction, head reduction and pretty do not, and tests/test_reduction.py
# and tests/test_parser.py check them on terms deeper than this limit.
# Generated and intermediate terms stay in the low hundreds of levels, but
# leave plenty of headroom.
sys.setrecursionlimit(20_000)
