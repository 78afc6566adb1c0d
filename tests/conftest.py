from hypothesis import settings

# Property tests run derandomized with a bounded example count, so the suite
# is deterministic and stays fast.
settings.register_profile(
    "deterministic", derandomize=True, max_examples=60, deadline=None
)
settings.load_profile("deterministic")
