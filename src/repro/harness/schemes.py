"""The load-balancing scheme names, and nothing else.

A leaf module that imports nothing, so the CLI parser (``choices=``) and
``repro schemes`` can name the schemes without loading the simulator.
:func:`repro.harness.experiment.assemble` is where each name is wired to
the code that implements it.
"""

SCHEMES = (
    "ecmp",
    "edge-flowlet",
    "clove-ecn",
    "clove-int",
    "clove-latency",
    "presto",
    "mptcp",
    "conga",
    "letflow",
)
