import sys

# Two things still recurse on the depth of a term: the substitution walk,
# which loops down a left spine but recurses into arguments and the bodies
# of abstractions, and the dataclass-made == and hash of terms.  At the
# default limit only the three cases of
# tests/test_numerals.py::test_stepped_numerals_equal_random_access fail:
# they compare numerals of up to 200 levels with ==.  The other walks do
# not recurse; tests/test_cli.py runs the CLI, deep numerals and long left
# spines in a new interpreter at the default limit.
sys.setrecursionlimit(20_000)
