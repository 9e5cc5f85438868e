from hypothesis import settings

# reproducible property tests that leave no example database behind
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
