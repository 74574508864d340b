"""Suite-wide settings.

Property tests run derandomized, with a small example budget and no example
database, so every run of the suite draws the same examples in bounded time.
"""

from hypothesis import settings

settings.register_profile(
    "gmchaos", derandomize=True, max_examples=20, deadline=None, database=None
)
settings.load_profile("gmchaos")
