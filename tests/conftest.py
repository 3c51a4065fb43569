"""Shared test settings.

Every ``hypothesis`` test is derandomized, so each run draws the same
examples; it has no per-example deadline, since a first call may pay numpy
and BLAS warm-up; and it keeps no example database, so a run neither reads
nor writes ``.hypothesis/``.  A test's own ``@settings`` sets only its
``max_examples``, apart from one whose examples are seeded by its decorator's
text (see ``TestStreamedSave.test_round_trip_is_bitwise``).
"""

from hypothesis import settings

settings.register_profile("istlab", derandomize=True, deadline=None, database=None)
settings.load_profile("istlab")
