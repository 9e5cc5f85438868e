from hypothesis import Phase, settings

# reproducible property tests that leave no example database behind; a failing
# example is reported as found, without shrinking, so a regression fails fast
settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.explain],
)
settings.load_profile("tier1")
