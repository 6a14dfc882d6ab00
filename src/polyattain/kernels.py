"""Name of the exact kernel.

The predicates are plain integer arithmetic in ``geometry``; there is one
backend.  Benchmark records carry this name so runs stay comparable.
"""

BACKEND = "python"
