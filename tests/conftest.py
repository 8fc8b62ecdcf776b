from hypothesis import settings

# Derandomized draws and no example database keep the suite deterministic;
# no deadline, because 40-digit mpmath oracles run at the speed of whatever
# machine runs them.
settings.register_profile("cuspbc", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("cuspbc")
