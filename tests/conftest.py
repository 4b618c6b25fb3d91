"""Settings shared by the test modules.

The ``hypothesis`` properties run under one profile: derandomized, so a
run draws the same examples every time, with no example database and no
deadline, and with function-scoped fixtures such as ``tmp_path`` allowed,
since each example overwrites the files it uses.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1", derandomize=True, max_examples=400, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
settings.load_profile("tier1")
