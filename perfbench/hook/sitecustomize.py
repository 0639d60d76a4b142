"""Start-up hook for the traced benchmark run.

``perfbench/run.py --trace 1`` puts this directory on the server's
``PYTHONPATH`` and sets ``PERFBENCH_TRACE_DIR``; Python imports
``sitecustomize`` in every interpreter it starts, so the router and each
fleet worker (which inherit the environment) install the same timing
wrappers before serving.  Without the variable this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
