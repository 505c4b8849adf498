"""Test-session defaults.

Monte Carlo results do not depend on the parallelism degree (the
degree-parametrized pins and determinism tests check that), so the suite
runs its sweeps on up to four threads unless ``RULEVAL_PARALLEL`` is set
already.  A test that needs a degree sets its own with ``monkeypatch``; the
``tracemalloc`` tests call code that never starts the thread pool.
"""

import os

os.environ.setdefault("RULEVAL_PARALLEL", str(min(os.cpu_count() or 1, 4)))
