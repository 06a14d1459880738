"""Set-up time of numlam in a fresh interpreter; run.py starts this in a child.

Usage: python3 setup_probe.py SRC_DIR.  Prints the seconds from before
`import numlam` until the program is ready to check: every built-in system
built, the Church k term built and the CLI prelude assembled.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import numlam  # noqa: E402

for name in numlam.SYSTEM_NAMES:
    numlam.builtin_system(name)
numlam.builtin_system("c", numlam.SequenceSpec("barendregt", numlam.barendregt))
numlam.church_k_term()
try:
    from numlam.cli import prelude
except ImportError:
    prelude = None
if prelude is not None:
    prelude()
print(repr(time.perf_counter() - start))
